import numpy as np
import pytest

from charpolylab.orthopoly import OPTable


@pytest.fixture(scope="session")
def table_cache():
    cache = {}

    def get(N):
        if N not in cache:
            cache[N] = OPTable(N)
        return cache[N]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
