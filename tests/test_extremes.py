import csv
import json
import math
import os
import pickle
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charpolylab import extremes
from charpolylab._rng import substream
from charpolylab.cli import main
from charpolylab.ensemble import (RHO_MAX, Spectrum, char_poly, g, g_tilde,
                                  recurrence_coeffs, sample_spectrum_gue)
from charpolylab.extremes import C_V, cheb_grid, factor14_check, max_experiment
from oracles import factor14_unpruned, field_q


def test_field_q_vanishes_at_infinity():
    spec = sample_spectrum_gue(64, 3)
    assert abs(field_q(spec, 1e6)) < 1e-3
    assert abs(field_q(spec, 1e6 + 1e6j)) < 1e-3


def test_field_q_mean_value_property():
    # harmonic off the real axis: equals its circle average
    spec = sample_spectrum_gue(32, 5)
    q0 = 0.3 + 0.8j
    r = 0.1
    angles = 2.0 * math.pi * np.arange(64) / 64
    avg = np.mean([field_q(spec, q0 + r * np.exp(1j * a)) for a in angles])
    assert field_q(spec, q0) == pytest.approx(avg, abs=1e-6)


def test_field_q_deterministic():
    spec = sample_spectrum_gue(32, 5)
    assert field_q(spec, 0.37) == field_q(spec, 0.37)


def test_field_q_eigenvalue_hit():
    spec = sample_spectrum_gue(8, 1)
    val = field_q(spec, complex(spec.eigenvalues[0]))
    assert val == -math.inf


def test_cheb_grid():
    g = cheb_grid(2)
    assert np.allclose(g, [1.0, math.cos(math.pi / 4), 0.0,
                           math.cos(3 * math.pi / 4), -1.0])
    assert len(cheb_grid(7)) == 15
    assert cheb_grid(7)[0] == 1.0 and cheb_grid(7)[-1] == -1.0


def test_factor14_constant():
    # no command checks degree 0: its Chebyshev grid does not exist
    with pytest.raises(ValueError):
        factor14_check(cheb_coeffs=[3.0])


def test_factor14_chebyshev_extremal():
    for N in (8, 64, 256):
        coeffs = np.zeros(N + 1)
        coeffs[-1] = 1.0
        assert factor14_check(cheb_coeffs=coeffs) <= 14.0


def test_factor14_random_roots(rng):
    for _ in range(50):
        deg = int(rng.integers(2, 65))
        roots = rng.uniform(-1, 1, deg)
        assert 1.0 <= factor14_check(roots=roots) <= 14.0


def test_factor14_interior_peak(rng):
    # clustered roots force a genuine interior maximum between grid points
    deg = 16
    roots = np.full(deg, 0.31)
    assert factor14_check(roots=roots) <= 14.0


def test_factor14_input_validation():
    with pytest.raises(ValueError):
        factor14_check(roots=[0.1, 0.2], cheb_coeffs=[1, 2, 3, 4, 5])
    with pytest.raises(ValueError):
        factor14_check()
    # the degree is the coefficient count less one: the last must be nonzero
    with pytest.raises(ValueError, match="leading Chebyshev coefficient"):
        factor14_check(cheb_coeffs=[1.0, 2.0, 3.0, 4.0, 0.0])


def _criterion_8_families(n_each):
    """The first n_each polynomials of each random family in criterion 8's
    stream: real roots, conjugate root pairs, Chebyshev coefficients."""
    rng = substream(20260808, 8)
    real, pairs, coeffs = [], [], []
    for _ in range(400):
        deg = int(rng.integers(1, 257))
        real.append(rng.uniform(-1, 1, deg))
    for _ in range(300):
        deg = 2 * int(rng.integers(1, 129))
        half = (rng.uniform(-1.05, 1.05, deg // 2)
                + 1j * rng.uniform(0.0, 0.2, deg // 2))
        pairs.append(np.concatenate([half, np.conj(half)]))
    for _ in range(n_each):
        deg = int(rng.integers(1, 257))
        c = rng.standard_normal(deg + 1)
        c[-1] = c[-1] if c[-1] != 0 else 1.0
        coeffs.append(c)
    return real[:n_each], pairs[:n_each], coeffs


def test_factor14_matches_unpruned_polish():
    # pruning and the real-arithmetic route keep the root families' bits; the
    # DCT grid and the cosine-sum polish move the coefficient family slightly
    real, pairs, coeffs = _criterion_8_families(50)
    for roots in real + pairs:
        assert factor14_check(roots=roots) == factor14_unpruned(len(roots), roots=roots)
    for c in coeffs[:12] + [np.eye(17)[16], np.eye(65)[64]]:
        assert factor14_check(cheb_coeffs=c) == pytest.approx(
            factor14_unpruned(len(c) - 1, cheb_coeffs=c), rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(re=st.lists(st.floats(-1.2, 1.2), min_size=1, max_size=32),
       lift=st.floats(0.0, 0.3), kind=st.sampled_from(["real", "conjugate", "complex"]))
def test_factor14_roots_bitwise_as_unpruned(re, lift, kind):
    re = np.array(re)
    if kind == "real":
        roots = re
    elif kind == "conjugate":
        half = re[:max(1, len(re) // 2)] + 1j * lift
        roots = np.concatenate([half, np.conj(half)])
    else:
        roots = re + 1j * lift * np.cos(np.arange(len(re)))
    assert factor14_check(roots=roots) == factor14_unpruned(len(roots), roots=roots)


@settings(max_examples=60, deadline=None)
@given(N=st.one_of(st.integers(1, 64), st.integers(250, 300)), complex_roots=st.booleans(),
       hit=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_root_log_sums_bitwise_as_one_broadcast(N, complex_roots, hit, seed):
    # the dense grid's 8N + 1 points in blocks of _LOGSUM_ROWS, on either
    # side of one block, and a root on a grid node (a -inf sum)
    rng = np.random.default_rng(seed)
    roots = rng.uniform(-1.1, 1.1, N)
    x = np.cos(np.pi * np.arange(8 * N + 1) / (8 * N))[::-1]
    if hit:
        roots[0] = x[rng.integers(len(x))]
    if complex_roots:
        roots = roots + 1j * rng.uniform(-0.3, 0.3, N) * (np.arange(N) > 0)
    with np.errstate(divide="ignore"):
        ref = np.log(np.abs(x[:, None] - roots[None, :])).sum(axis=1)
    assert np.array_equal(extremes._root_log_sums(x, roots), ref)


def test_factor14_peak_memory(rng):
    # degree 256 with complex roots: 8N + 1 = 2049 dense points, blocks of
    # 256 points hold 1 MiB complex; measured peak 2.0 MiB, and 12.0 MiB
    # with the whole (2049 x 256) complex difference, its abs and its log
    roots = rng.uniform(-1.1, 1.1, 256) + 1j * rng.uniform(-0.3, 0.3, 256)
    tracemalloc.start()
    try:
        factor14_check(roots=roots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, peak / 2**20


def test_shift_monotonicity_pointwise():
    # sum log|x - lambda| <= sum log|x - iy/N - lambda| at every grid point
    spec = sample_spectrum_gue(128, 3)
    grid = cheb_grid(128)
    shift = 2.0 / 128
    diff = grid[:, None] - spec.eigenvalues[None, :]
    on_axis = np.log(np.abs(diff)).sum(axis=1)
    shifted = 0.5 * np.log(diff * diff + shift * shift).sum(axis=1)
    assert np.all(on_axis <= shifted + 1e-12)


def test_regularized_max_ordering():
    columns, _ = max_experiment(256, 20, 2.0, seed=100)
    assert np.all(columns["m_star"] <= columns["m_star_reg"] + C_V * 2.0 + 1e-9)
    # the ordering is checked on every sample: a bound no sample meets raises
    with mock.patch.object(extremes, "C_V", -1e3):
        with pytest.raises(extremes.OrderingViolation, match="ordering violated"):
            max_experiment(64, 3, 2.0, seed=100)


def test_equilibrium_shift_bound():
    # N (Re g(x - iy/N) - Re g(x)) <= pi ||rho||_inf y, and nearly saturates
    N, y = 256, 2.0
    xs = np.linspace(-0.95, 0.95, 41)
    gap = N * (g(xs - 1j * y / N).real + g_tilde(xs))
    bound = math.pi * RHO_MAX * y
    assert gap.max() <= bound + 1e-9
    assert gap.max() >= 0.8 * bound


def _record_array(columns):
    return np.array(list(columns.values()))


@settings(max_examples=25, deadline=None)
@given(N=st.integers(2, 96), n_samples=st.integers(1, 9),
       seed=st.integers(0, 2**63 - 1), y=st.sampled_from([None, 1.5]),
       threads=st.sampled_from([1, 2, 3]),
       block_bytes=st.sampled_from([1, 3000, 1 << 19]))
def test_max_experiment_deterministic_across_threads(N, n_samples, seed, y,
                                                     threads, block_bytes):
    # every (sample, point) of the grid recurrence is elementwise, so neither
    # the thread count nor the block size moves a bit
    r1, s1 = max_experiment(N, n_samples, y, seed, threads=1)
    with mock.patch.object(extremes, "_BLOCK_BYTES", block_bytes):
        r2, s2 = max_experiment(N, n_samples, y, seed, threads=threads)
    assert np.array_equal(_record_array(r1), _record_array(r2), equal_nan=True)
    assert s1 == s2


@pytest.mark.parametrize("threads,workers,y", [(64, 1, None), (2, 2, 2.0),
                                                (1, None, 2.0), (4000, 2, 2.0)])
def test_max_experiment_worker_count(threads, workers, y):
    # min(threads, CPUs, tasks) workers, and no pool at one thread; the
    # mocked executor maps in-process, so no process starts.  At two threads,
    # or any number on two CPUs, each pass is two blocks, the shifted grid's
    # submitted first, and the columns keep the bytes of one thread
    n_samples = 1 if workers == 1 else 4
    ref, _ = max_experiment(8, n_samples, y, 0, threads=1)
    with mock.patch("os.cpu_count", return_value=2), \
            mock.patch("concurrent.futures.ProcessPoolExecutor") as pool_cls:
        pool = pool_cls.return_value.__enter__.return_value
        pool.map.side_effect = map
        columns, _ = max_experiment(8, n_samples, y, 0, threads=threads)
    if workers is None:
        pool_cls.assert_not_called()
    else:
        pool_cls.assert_called_once()
        kwargs = pool_cls.call_args.kwargs
        assert kwargs["max_workers"] == workers
        assert kwargs["mp_context"].get_start_method() == "fork"
        shifts = pool.map.call_args.args[5]
        assert shifts == ((None,) if y is None else (y, y, None, None))
    assert np.isfinite(columns["m_star"]).all()
    assert _record_array(columns).tobytes() == _record_array(ref).tobytes()


def _eigen_logs(eigs, xs):
    """sum_i log|x - lambda_i| by the eigenvalue route, in row chunks."""
    out = np.empty(len(xs))
    for lo in range(0, len(xs), 256):
        out[lo:lo + 256] = np.log(np.abs(xs[lo:lo + 256, None] - eigs[None, :])).sum(axis=1)
    return out


def _block(spec):
    """A one-draw block of its own arrays."""
    return Spectrum(N=spec.N, d=spec.d[None].copy(), e=spec.e[None].copy())


@pytest.mark.parametrize("y", [None, 1.5])
def test_max_experiment_runs_only_the_shifted_grid_complex(y, tmp_path):
    # the Chebyshev grid runs in float64, the grid shifted by -iy/N in
    # complex128, one char_poly call per (pass, block), each sample once per
    # pass.  A forked worker inherits the patched spy but not the parent's
    # memory, so each call is written to a file of its own
    N, n_samples = 64, 5

    def spy(a, b2, xs):
        fd, path = tempfile.mkstemp(dir=tmp_path)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump((xs, a.shape[0]), fh)
        return char_poly(a, b2, xs)

    with mock.patch.object(extremes, "char_poly", spy):
        columns, _ = max_experiment(N, n_samples, y, seed=3, threads=2)
    calls = [pickle.loads(p.read_bytes()) for p in tmp_path.iterdir()]
    grid = cheb_grid(N)
    real = [n for xs, n in calls if xs.dtype == np.float64 and np.array_equal(xs, grid)]
    shifted = [n for xs, n in calls if xs.dtype == np.complex128
               and np.array_equal(xs, grid - 1j * (1.5 / N))]
    assert sum(real) == n_samples
    assert sum(shifted) == (0 if y is None else n_samples)
    assert len(real) + len(shifted) == len(calls)
    assert (np.isnan(columns["m_star_reg"]) == (y is None)).all()


@pytest.mark.parametrize("N", [64, 256, 1024, 4096])
def test_grid_field_matches_eigen_route(N):
    # the determinant recurrence against the solved spectrum on pinned draws:
    # both grid maxima, and every point of the shifted grid, to 1e-9.  On the
    # real grid single points next to an eigenvalue lose digits on both routes
    y = 2.0
    spec = sample_spectrum_gue(N, 2026 + N)
    grid = cheb_grid(N)
    shifted = grid - 1j * (y / N)
    # _grid_maxima overwrites its block with the recurrence coefficients
    m_star = extremes._grid_maxima(_block(spec), (grid, N * g_tilde(grid)), None)
    m_star_reg = extremes._grid_maxima(_block(spec), (grid, -N * g(shifted).real), y)
    eig_real = _eigen_logs(spec.eigenvalues, grid) + N * g_tilde(grid)
    eig_shift = _eigen_logs(spec.eigenvalues, shifted)
    assert abs(m_star[0] - eig_real.max()) <= 1e-9
    assert abs(m_star_reg[0] - (eig_shift - N * g(shifted).real).max()) <= 1e-9
    m, e = char_poly(*recurrence_coeffs(spec.d.copy(), spec.e.copy()), shifted)
    assert np.abs(np.log(np.abs(m)) + e * math.log(2.0) - eig_shift).max() <= 1e-9


def test_max_experiment_rows(tmp_path):
    # the CSV's ratio and second-order columns are the arrays whose quartiles
    # the summary reports, and its m_star column is, bit for bit, the array
    # whose tail fraction upperbound-verify takes at the same N, samples and
    # seed (.17g round-trips a float)
    out = tmp_path / "max.csv"
    run = ["--N", "64", "--samples", "7", "--seed", "2"]
    assert main(["max-experiment", *run, "--y", "2", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    col = {name: np.array([float(r[name]) for r in rows]) for name in rows[0]}
    summary = json.loads(open(f"{out}.summary.json").read())
    assert col["N"].tolist() == [64.0] * 7 and col["seed_index"].tolist() == list(range(7))
    assert extremes._quartiles(col["m_star_over_logN"]) == summary["ratio_quartiles"]
    assert (extremes._quartiles(col["m_star_centered_2nd_order"])
            == summary["second_order_quartiles"])
    seen = []

    def spy(*args, **kwargs):
        seen.append(max_experiment(*args, **kwargs))
        return seen[-1]

    with mock.patch.object(extremes, "max_experiment", spy):
        assert main(["upperbound-verify", *run]) == 0
    assert len(seen) == 1
    assert seen[0][0]["m_star"].tobytes() == col["m_star"].tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_quartiles_match_percentile_bitwise(xs):
    # bit for bit on arrays without -0.0 (x + 0.0 maps it to 0.0): where
    # -0.0 ties with 0.0, np.sort and numpy's partition may order them apart
    x = np.array(xs) + 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        got = np.array(extremes._quartiles(x))
        ref = np.percentile(x, [25, 50, 75])
    assert got.tobytes() == ref.tobytes()


def test_quartiles_nan():
    assert np.isnan(extremes._quartiles(np.array([1.0, np.nan, 2.0]))).all()
