import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charpolylab import extremes
from charpolylab.ensemble import sample_spectrum_gue
from charpolylab.extremes import (cheb_grid, factor14_check, field_q,
                                  max_experiment, ordering_constant,
                                  regularized_max, experiment_rows)


def test_field_q_vanishes_at_infinity(model):
    spec = sample_spectrum_gue(64, 3)
    assert abs(field_q(spec, model, 1e6)) < 1e-3
    assert abs(field_q(spec, model, 1e6 + 1e6j)) < 1e-3


def test_field_q_mean_value_property(model):
    # harmonic off the real axis: equals its circle average
    spec = sample_spectrum_gue(32, 5)
    q0 = 0.3 + 0.8j
    r = 0.1
    angles = 2.0 * math.pi * np.arange(64) / 64
    avg = np.mean([field_q(spec, model, q0 + r * np.exp(1j * a)) for a in angles])
    assert field_q(spec, model, q0) == pytest.approx(avg, abs=1e-6)


def test_field_q_deterministic(model):
    spec = sample_spectrum_gue(32, 5)
    assert field_q(spec, model, 0.37) == field_q(spec, model, 0.37)


def test_field_q_eigenvalue_hit(model):
    spec = sample_spectrum_gue(8, 1)
    val = field_q(spec, model, complex(spec.eigenvalues[0]))
    assert val == -math.inf


def test_cheb_grid():
    g = cheb_grid(2)
    assert np.allclose(g, [1.0, math.cos(math.pi / 4), 0.0,
                           math.cos(3 * math.pi / 4), -1.0])
    assert len(cheb_grid(7)) == 15
    assert cheb_grid(7)[0] == 1.0 and cheb_grid(7)[-1] == -1.0


def test_factor14_constant():
    assert factor14_check(0, cheb_coeffs=[3.0])["max_ratio"] == 1.0


def test_factor14_chebyshev_extremal():
    for N in (8, 64, 256):
        coeffs = np.zeros(N + 1)
        coeffs[-1] = 1.0
        res = factor14_check(N, cheb_coeffs=coeffs)
        assert res["max_ratio"] <= 14.0


def test_factor14_random_roots(rng):
    for _ in range(50):
        deg = int(rng.integers(2, 65))
        roots = rng.uniform(-1, 1, deg)
        res = factor14_check(deg, roots=roots)
        assert 1.0 <= res["max_ratio"] <= 14.0


def test_factor14_interior_peak(rng):
    # clustered roots force a genuine interior maximum between grid points
    deg = 16
    roots = np.full(deg, 0.31)
    res = factor14_check(deg, roots=roots)
    assert res["max_ratio"] <= 14.0


def test_factor14_input_validation():
    with pytest.raises(ValueError):
        factor14_check(4, roots=[0.1, 0.2], cheb_coeffs=[1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        factor14_check(4, roots=[0.1, 0.2])
    with pytest.raises(ValueError):
        factor14_check(4)


def test_shift_monotonicity_pointwise(model):
    # sum log|x - lambda| <= sum log|x - iy/N - lambda| at every grid point
    spec = sample_spectrum_gue(128, 3)
    grid = cheb_grid(128)
    shift = 2.0 / 128
    diff = grid[:, None] - spec.eigenvalues[None, :]
    on_axis = np.log(np.abs(diff)).sum(axis=1)
    shifted = 0.5 * np.log(diff * diff + shift * shift).sum(axis=1)
    assert np.all(on_axis <= shifted + 1e-12)


def test_regularized_max_ordering(model):
    for s in range(20):
        spec = sample_spectrum_gue(256, 100 + s)
        rec = regularized_max(spec, model, 2.0)
        c_v = ordering_constant(model)
        assert rec.m_star <= rec.m_star_reg + c_v * 2.0 + 1e-9
    with pytest.raises(ValueError):
        regularized_max(spec, model, 0.5)


def test_equilibrium_shift_bound(model):
    # N (Re g(x - iy/N) - Re g(x)) <= pi ||rho||_inf y, and nearly saturates
    N, y = 256, 2.0
    xs = np.linspace(-0.95, 0.95, 41)
    gap = N * (model.g_grid(xs - 1j * y / N).real + model.g_tilde_grid(xs))
    bound = math.pi * model.rho_max * y
    assert gap.max() <= bound + 1e-9
    assert gap.max() >= 0.8 * bound


def test_max_experiment_deterministic_across_threads(model):
    r1, s1 = max_experiment(model, 64, 6, 1.5, seed=9, threads=1)
    r2, s2 = max_experiment(model, 64, 6, 1.5, seed=9, threads=2)
    assert [r.m_star for r in r1] == [r.m_star for r in r2]
    assert s1 == s2


def test_max_experiment_rows(model):
    records, summary = max_experiment(model, 64, 4, None, seed=2)
    rows = experiment_rows(records)
    assert len(rows) == 4
    logN = math.log(64)
    assert rows[0][3] == pytest.approx(rows[0][2] / logN)
    assert summary["ratio_quartiles"][0] <= summary["ratio_quartiles"][2]


def _log_abs_sum_unblocked(eigs, pts, shift):
    # the same op sequence as _log_abs_sum, on the whole grid at once
    diff = np.asarray(pts, dtype=float)[:, None] - eigs[None, :]
    with np.errstate(divide="ignore"):
        if shift == 0.0:
            return np.log(np.abs(diff)).sum(axis=1)
        return 0.5 * np.log(diff * diff + shift * shift).sum(axis=1)


@pytest.mark.parametrize("N", [300, 4096])
def test_log_abs_sum_matches_unblocked(N):
    eigs = sample_spectrum_gue(N, 11).eigenvalues
    block = extremes._block_rows(N)
    grid = np.linspace(-1.1, 1.1, 3 * block + 5)
    for n_pts in (1, block - 1, block, block + 1, 3 * block + 5):
        pts = grid[:n_pts]
        for shift in (0.0, 2.0 / N):
            assert np.array_equal(extremes._log_abs_sum(eigs, pts, shift),
                                  _log_abs_sum_unblocked(eigs, pts, shift))


def test_log_abs_sum_eigenvalue_hit():
    eigs = sample_spectrum_gue(64, 2).eigenvalues
    pts = np.concatenate([cheb_grid(64), eigs[[0, 31]]])
    real = extremes._log_abs_sum(eigs, pts)
    assert np.array_equal(real, _log_abs_sum_unblocked(eigs, pts, 0.0))
    assert np.all(real[-2:] == -math.inf) and np.all(np.isfinite(real[:-2]))
    shifted = extremes._log_abs_sum(eigs, pts, shift=2.0 / 64)
    assert np.array_equal(shifted, _log_abs_sum_unblocked(eigs, pts, 2.0 / 64))
    assert np.all(np.isfinite(shifted))


@settings(max_examples=60, deadline=None)
@given(eigs=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=40),
       pts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=60),
       shift=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
       block=st.integers(1, 7))
def test_log_abs_sum_property(eigs, pts, shift, block):
    eigs = np.array(eigs)
    pts = pts + eigs[:2].tolist()  # exact hits give -inf on the real axis
    # shrink the buffer so the grid spans several blocks and a partial one
    with mock.patch.object(extremes, "_LOGSUM_BUFFER_BYTES", 8 * len(eigs) * block):
        got = extremes._log_abs_sum(eigs, pts, shift)
    assert np.array_equal(got, _log_abs_sum_unblocked(eigs, pts, shift))
