import numpy as np
import pytest

from charpolylab.ensemble import gue_model
from charpolylab.orthopoly import recurrence_table


@pytest.fixture(scope="session")
def model():
    return gue_model()


@pytest.fixture(scope="session")
def table_cache(model):
    cache = {}

    def get(N):
        if N not in cache:
            cache[N] = recurrence_table(model, N)
        return cache[N]

    return get


@pytest.fixture()
def rng():
    return np.random.default_rng(20260808)
