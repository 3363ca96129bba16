import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from charpolylab import _lapack, gaussfield, momentlab
from charpolylab._lapack import dpstrf
from charpolylab._rng import substream
from charpolylab.gaussfield import (BiasSpec, GaussKernel,
                                    _factor_covariance, bias_variance,
                                    brw_check, cov_g, cov_t, exp_moment_g,
                                    kernel_g, kernel_t, sample_gauss)
from charpolylab.hyperbolic import hyp_dist, ray_point
from charpolylab.momentlab import LowerBoundParams, omega_grid
from oracles import brw_check_pairs, factor_covariance_tril, mobius_to_zero


def random_disk_points(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.random(n))
    th = 2.0 * np.pi * rng.random(n)
    return r * np.exp(1j * th)


def test_cov_g_values():
    assert cov_g(0.3 + 0.1j, 0.0) == 0.0
    assert cov_g(0.5, 0.5) == pytest.approx(-0.5 * math.log(0.75), abs=1e-15)


def test_cov_g_cosh_form(rng):
    for z, w in random_disk_points(rng, 2000).reshape(1000, 2):
        dh_z = hyp_dist(0.0, z)
        dh_w = hyp_dist(0.0, w)
        dh_zw = hyp_dist(z, w)
        cosh_form = 0.5 * math.log(
            math.cosh(dh_z / 2.0) * math.cosh(dh_w / 2.0) / math.cosh(dh_zw / 2.0))
        assert cov_g(z, w) == pytest.approx(cosh_form, abs=1e-10)
        assert cov_g(z, w) == pytest.approx(cov_g(w, z), abs=1e-15)


def test_cov_t_values():
    assert cov_t(0.0, 0.4 - 0.2j) == 0.0
    assert cov_t(0.5, 0.5) == pytest.approx(-math.log(0.75), abs=1e-15)


def test_cov_t_representation(rng):
    # T = (G(z) + G(conj z)) / sqrt(2), so Cov T is the symmetrized bilinear form
    for z, w in random_disk_points(rng, 2000).reshape(1000, 2):
        rep = 0.5 * (cov_g(z, w) + cov_g(z, np.conj(w))
                     + cov_g(np.conj(z), w) + cov_g(np.conj(z), np.conj(w)))
        assert cov_t(z, w) == pytest.approx(rep, abs=1e-12)


def test_kernel_matrix_matches_pointwise_cov(rng):
    pts = random_disk_points(rng, 30)
    for kern in (kernel_g(), kernel_t()):
        mat = kern.matrix(pts)
        ref = np.array([[kern.cov(z, w) for w in pts] for z in pts])
        assert np.allclose(mat, ref, rtol=1e-13, atol=1e-15)


_EDGE = gaussfield._COV_ROWS


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([0, 1, 2, _EDGE - 1, _EDGE, _EDGE + 1, 2 * _EDGE - 1,
                          2 * _EDGE, 2 * _EDGE + 1]) | st.integers(0, 3 * _EDGE),
       seed=st.integers(0, 2 ** 32 - 1),
       kern=st.sampled_from([kernel_g(), kernel_t()]))
@example(n=0, seed=0, kern=kernel_g()).via("empty")
def test_kernel_matrix_row_blocks_bitwise(n, seed, kern):
    # the column-block build against the one-shot broadcast it replaced, for
    # point counts on each side of the block edges: the lower triangle,
    # diagonal included, bit for bit, and its mirror image above it
    pts = random_disk_points(np.random.default_rng(seed), n, rmax=0.99)
    mat = kern.matrix(pts)
    assert mat.dtype == np.float64 and mat.shape == (n, n)
    lower = np.tril_indices(n)
    assert mat[lower].tobytes() == kern.cov(pts[:, None], pts[None, :])[lower].tobytes()
    assert mat.tobytes() == mat.T.tobytes() and mat.flags.f_contiguous
    if n == 0:
        assert bias_variance(BiasSpec(), kern) == 0.0


def test_kernel_g_matrix_matches_log_series(rng):
    # -(1/2) log|1 - u| = (1/2) Re sum_{k>=1} u^k / k with u = z conj(w); for
    # |z|, |w| <= 0.9 the terms after k = 400 are below 0.81^400 / 400 ~ 1e-39
    pts = random_disk_points(rng, 25)
    u = pts[:, None] * np.conj(pts)[None, :]
    series = np.zeros_like(u)
    power = np.ones_like(u)
    for k in range(1, 401):
        power = power * u
        series += power / k
    mat = kernel_g().matrix(pts)
    assert np.abs(pts).max() <= 0.9
    np.testing.assert_allclose(mat, 0.5 * series.real, rtol=1e-13, atol=1e-15)


def test_bias_spec_validation():
    with pytest.raises(ValueError):
        BiasSpec(plus_points=(1.2,), minus_points=())
    with pytest.raises(ValueError):
        BiasSpec(plus_points=(0.5, 0.5), minus_points=())
    with pytest.raises(ValueError):
        BiasSpec(plus_points=(0.5,), minus_points=(0.5,))


def test_exp_moment_empty():
    assert exp_moment_g(BiasSpec()) == 1.0


def test_exp_moment_two_points():
    bias = BiasSpec(plus_points=(0.5,), minus_points=(0.6,))
    assert exp_moment_g(bias) == pytest.approx(49.0 / 48.0, rel=1e-14)
    quad = math.exp(0.5 * bias_variance(bias, kernel_g()))
    assert exp_moment_g(bias) == pytest.approx(quad, rel=1e-12)


def test_exp_moment_product_vs_quadratic_form(rng):
    from charpolylab.hyperbolic import pseudo_dist
    done = 0
    while done < 100:
        npts = int(rng.integers(2, 9))
        nplus = int(rng.integers(1, npts))
        pts = random_disk_points(rng, npts)
        ok = all(pseudo_dist(a, b) >= 0.05
                 for i, a in enumerate(pts) for b in pts[i + 1:])
        if not ok:
            continue
        bias = BiasSpec(plus_points=tuple(pts[:nplus]),
                        minus_points=tuple(pts[nplus:]))
        lhs = exp_moment_g(bias)
        rhs = math.exp(0.5 * bias_variance(bias, kernel_g()))
        assert lhs == pytest.approx(rhs, rel=1e-10)
        done += 1


def test_exp_moment_degenerate_error():
    # a point within one ulp of the circle makes |1 - z zbar| underflow the guard
    z = float(np.nextafter(1.0, 0.0))
    with pytest.raises(ValueError):
        exp_moment_g(BiasSpec(plus_points=(z,), minus_points=()))


def test_biased_mean_importance_sampling():
    zeta = 0.25 + 0.3j
    bias = BiasSpec(plus_points=(0.5,), minus_points=(-0.2 + 0.4j,))
    pts = list(bias.plus_points) + list(bias.minus_points) + [zeta]
    sample = sample_gauss(pts, kernel_g(), 100_000, seed=99)
    vals = sample.values
    b = 2.0 * vals[:, 0] - 2.0 * vals[:, 1]
    w = np.exp(b)
    est = (w * vals[:, 2]).mean() / w.mean()
    # batch-means standard error of the ratio estimator
    batches = np.array_split(np.arange(len(w)), 20)
    ests = np.array([(w[i] * vals[i, 2]).mean() / w[i].mean() for i in batches])
    se = ests.std(ddof=1) / math.sqrt(len(batches))
    # tilting by e^{B(W)} shifts the mean of W(zeta) by E[W(zeta) B(W)]
    mu = 2.0 * cov_g(zeta, 0.5) - 2.0 * cov_g(zeta, -0.2 + 0.4j)
    assert abs(est - mu) < 3.0 * se


def test_sample_gauss_variance():
    z = 0.5
    n = 100_000
    sample = sample_gauss([z], kernel_g(), n, seed=5)
    var = sample.values.var()
    target = cov_g(z, z)
    assert abs(var - target) < 3.0 * math.sqrt(2.0 / n) * target


def test_sample_gauss_determinism_and_rows():
    pts = [0.1, 0.5j, -0.3 + 0.2j]
    a = sample_gauss(pts, kernel_g(), 50, seed=7)
    b = sample_gauss(pts, kernel_g(), 50, seed=7)
    assert np.array_equal(a.values, b.values)
    # row i depends only on (seed, i): a shorter run reproduces a prefix
    c = sample_gauss(pts, kernel_g(), 10, seed=7)
    assert np.array_equal(a.values[:10], c.values)


@pytest.mark.parametrize("pts,rank", [
    ([0.1, 0.5j, -0.3 + 0.2j, 0.7, -0.6j], 5),
    ([0.5, 0.5 + 1e-9, 0.5 + 2e-9j, -0.4], 2),
], ids=["full_rank", "near_degenerate"])
def test_sample_gauss_row_blocks_match_per_row_product(pts, rank):
    # the row-block product against the per-row F @ x it replaces, and
    # bit-exact prefixes across block boundaries
    F, fact = _factor_covariance(kernel_g().matrix(np.asarray(pts, dtype=complex)))
    assert F.shape == (len(pts), rank)
    runs = {n: sample_gauss(pts, kernel_g(), n, seed=13) for n in (1, 63, 64, 65, 130)}
    assert {r.factorization for r in runs.values()} == {fact}
    full = runs[130].values
    for n, run in runs.items():
        assert run.values.shape == (n, len(pts))
        assert np.array_equal(run.values, full[:n])
    for i in range(130):
        ref = F @ substream(13, i).standard_normal(F.shape[1])
        assert np.allclose(full[i], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


class _Captured(Exception):
    pass


def _lowerbound_covariance(n, monkeypatch):
    """The covariance lowerbound-sim factors at depth n (delta 0.2, eta 3)."""
    def capture(points, kernel, n_samples, seed):
        raise _Captured(kernel.matrix(np.asarray(points, dtype=complex)))
    monkeypatch.setattr(momentlab, "sample_gauss", capture)
    with pytest.raises(_Captured) as exc:
        momentlab.lower_bound_mc(LowerBoundParams(n=n, delta=0.2, eta=3), 1, 0)
    return exc.value.args[0]


@pytest.mark.parametrize("n,points,rank", [(9, 726, 464), (10, 1614, 826),
                                          (None, 120, 40)],
                         ids=["lowerbound_n9", "lowerbound_n10", "gram_rank40"])
def test_dpstrf_matches_scipy(n, points, rank, monkeypatch):
    # the binding to numpy's OpenBLAS, in place on a Fortran copy, against
    # scipy's dpstrf on another copy, bit for bit
    from scipy.linalg import lapack
    if n is None:
        x = np.random.default_rng(40).standard_normal((points, 40))
        cov = x @ x.T
    else:
        cov = _lowerbound_covariance(n, monkeypatch)
    assert cov.shape == (points, points)
    buf = np.array(cov, order="F")
    c, piv, got_rank = dpstrf(buf)
    assert np.shares_memory(c, buf)
    ref_c, ref_piv, ref_rank, info = lapack.dpstrf(np.array(cov, order="F"), lower=1)
    assert got_rank == ref_rank == rank and info == (rank < points)
    assert np.array_equal(piv, ref_piv) and np.array_equal(c, ref_c)


def test_dpstrf_reads_only_the_lower_triangle(monkeypatch):
    # the in-place factor never reads cov's strict upper triangle, which
    # _factor_covariance's residual then takes as cov's lower one
    cov = _lowerbound_covariance(9, monkeypatch)
    poisoned = cov.copy(order="F")
    poisoned[np.triu_indices(len(cov), 1)] = math.nan
    c, piv, rank = dpstrf(cov.copy(order="F"))
    nan_c, nan_piv, nan_rank = dpstrf(poisoned)
    lower = np.tril_indices(len(cov))
    assert nan_rank == rank and np.array_equal(nan_piv, piv)
    assert nan_c[lower].tobytes() == c[lower].tobytes()


@pytest.mark.parametrize("shape", [(3, 2), (3,)])
def test_dpstrf_rejects_non_square(shape):
    # LAPACK would read n^2 entries from a buffer that has fewer
    with pytest.raises(ValueError, match="square"):
        dpstrf(np.ones(shape))


def _factor_cases(monkeypatch):
    x = np.random.default_rng(40).standard_normal((120, 40))
    yield "gram_rank40", x @ x.T
    yield "five_points", kernel_g().matrix(np.array([0.1, 0.5j, -0.3 + 0.2j, 0.7, -0.6j]))
    yield "cluster_rank1", kernel_g().matrix(np.array([0.5, 0.5 + 1e-9, 0.5 + 2e-9j]))
    yield "lowerbound_n9", _lowerbound_covariance(9, monkeypatch)


def test_factor_covariance_matches_tril_oracle(monkeypatch):
    # the in-place factor and its row-block residual against the copying
    # np.tril one they replaced: the same F, bit for bit, and the same route
    # string, residual included.  The oracle runs first: the factor
    # overwrites a Fortran-ordered cov
    for name, cov in _factor_cases(monkeypatch):
        ref_F, ref_route = factor_covariance_tril(cov)
        F, route = _factor_covariance(cov)
        assert F.shape == ref_F.shape and F.tobytes() == ref_F.tobytes(), name
        assert route == ref_route, name
    neg = -kernel_g().matrix(np.array([0.1, 0.5j, -0.3 + 0.2j]))
    with pytest.raises(np.linalg.LinAlgError) as ref:
        factor_covariance_tril(neg)
    with pytest.raises(np.linalg.LinAlgError, match=f"^{ref.value}$"):
        _factor_covariance(neg)


def test_factor_residual_reads_the_last_row_block(monkeypatch):
    # a factor wrong only in F's last row, which the residual sees in its
    # last row block alone, fails the check: no block is skipped
    pts = random_disk_points(np.random.default_rng(7), 2 * _EDGE + 9)
    cov = kernel_g().matrix(pts)
    assert _factor_covariance(cov.copy(order="F"))[0].shape[0] == len(pts)

    def corrupt(buf, real=dpstrf):
        c, piv, rank = real(buf)
        c[np.flatnonzero(piv == len(c))[0], 0] += 1e-6
        return c, piv, rank
    monkeypatch.setattr(_lapack, "dpstrf", corrupt)
    with pytest.raises(np.linalg.LinAlgError, match="residual .* above bound"):
        _factor_covariance(cov)


def test_covariance_path_peak_memory(monkeypatch):
    # at lowerbound-sim's n = 9 ray grid (726 points, rank 464) the Gaussian
    # path holds the float64 covariance, factored in place, and the n x rank
    # factor, and no complex n x n array.  Measured peaks: 1.94 and 1.91 n^2
    # doubles; 2.67 and 2.65 while dpstrf worked on a copy and the residual
    # was a full n x n product, 4.0 and 4.03 when the covariance was one
    # broadcast (two complex n x n temporaries) and the factor took an
    # np.tril copy
    points = []
    monkeypatch.setattr(momentlab, "sample_gauss",
                        lambda pts, *args: points.append(pts) or sample_gauss(pts, *args))
    params = LowerBoundParams(n=9, delta=0.2, eta=3)
    peaks = []
    for run in (lambda: momentlab.lower_bound_mc(params, 40, 3),
                lambda: sample_gauss(points[0], kernel_g(), 40, 3)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    n = len(points[0])
    assert n == 726
    assert max(peaks) <= 2.25 * n * n * 8, [p / (n * n * 8) for p in peaks]


def test_sample_gauss_degenerate_cluster_rank_one():
    pts = [0.5, 0.5 + 1e-9, 0.5 + 2e-9j]
    sample = sample_gauss(pts, kernel_g(), 10, seed=1)
    assert sample.factorization.startswith("pivoted Cholesky, rank 1 of 3 points, ")
    # one standard normal per row: the three columns coincide to 1e-8
    assert np.ptp(sample.values, axis=1).max() < 1e-8 * np.abs(sample.values).max()


def test_factor_rejects_indefinite_covariance():
    neg = GaussKernel(lambda z, w: -cov_g(z, w))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^pivoted Cholesky, rank 0 of 3 points: residual "
                             r"\S+ above bound -\S+$"):
        sample_gauss([0.1, 0.5j, -0.3 + 0.2j], neg, 5, seed=1)


def test_sampled_covariance_on_rank_deficient_ray_grid():
    # lowerbound-sim's n = 8 point set: the leaf ring and the oversampled
    # reference ring (the barrier ring is the leaf ring), 326 points of lower
    # numerical rank; checked on 22 points around the center i zeta_ref
    params = LowerBoundParams(n=8, delta=0.2, eta=3)
    omegas = omega_grid(params)
    m = len(omegas)
    pts = np.concatenate([omegas * ray_point(params.n0),
                          omegas * ray_point(params.b[params.r])])
    n = 20_000
    sample = sample_gauss(pts, kernel_g(), n, seed=17)
    rank = int(sample.factorization.split("rank ")[1].split(" of")[0])
    assert rank < len(pts)
    rays = m // 2 + np.array([-40, -10, -3, -2, -1, 0, 1, 2, 3, 10, 40])
    sub = np.concatenate([rays, rays + m])
    emp = np.cov(sample.values[:, sub].T, bias=True)
    kern = kernel_g().matrix(pts[sub])
    se = np.sqrt((np.outer(np.diag(kern), np.diag(kern)) + kern ** 2) / n)
    assert (np.abs(emp - kern) / se).max() <= 4.0


def test_sample_gauss_duplicate_points_rejected():
    with pytest.raises(ValueError):
        sample_gauss([0.5, 0.5], kernel_g(), 5, seed=1)


def test_sample_gauss_max_growth():
    # empirical max over the angular lattice at depth n0 grows ~ n0
    maxima = []
    for n0 in (4, 6, 8):
        omegas = np.exp(1j * (np.pi / 2 + np.arange(-40, 41) * 0.02))
        pts = omegas * ray_point(n0)
        s = sample_gauss(pts, kernel_g(), 200, seed=11)
        maxima.append(s.values.max(axis=1).mean())
    assert maxima[0] < maxima[1] < maxima[2]


def test_increment_variance_is_conformal_invariant(rng):
    kern = kernel_g()
    for z, w, y in random_disk_points(rng, 300).reshape(100, 3):
        var1 = kern.cov(z, z) + kern.cov(w, w) - 2.0 * kern.cov(z, w)
        z2, w2 = mobius_to_zero(y, z), mobius_to_zero(y, w)
        var2 = kern.cov(z2, z2) + kern.cov(w2, w2) - 2.0 * kern.cov(z2, w2)
        assert var1 == pytest.approx(var2, abs=1e-10)


def test_empirical_covariance_20_points(rng):
    pts = random_disk_points(rng, 20, rmax=0.85)
    n = 200_000
    sample = sample_gauss(pts, kernel_g(), n, seed=21)
    emp = np.cov(sample.values.T, bias=True)
    kern = kernel_g().matrix(pts)
    # SE of a covariance entry for joint Gaussians
    se = np.sqrt((np.outer(np.diag(kern), np.diag(kern)) + kern ** 2) / n)
    assert np.all(np.abs(emp - kern) <= 4.0 * se)


def test_brw_check_g_kernel():
    grid = [ray_point(h) * np.exp(1j * th)
            for h in range(2, 9) for th in np.linspace(-0.5, 0.5, 9)]
    res = brw_check(grid, kernel_g())
    lo, hi = res["k_offset_range"]
    center = -0.5 * math.log(2.0)
    assert hi - lo <= 2.0
    assert lo >= center - 1.0 and hi <= center + 1.0
    assert math.isfinite(res["c_b"]) and res["c_b"] > 0
    # refining the grid keeps c_b of the same order
    grid2 = [ray_point(h) * np.exp(1j * th)
             for h in range(2, 9) for th in np.linspace(-0.5, 0.5, 17)]
    res2 = brw_check(grid2, kernel_g())
    assert res2["c_b"] <= 2.0 * res["c_b"] + 1.0


def test_brw_check_matches_the_pair_loop():
    # brw-verify's grid, and a random one with pairs beyond d_H = 1 and with
    # two points on each half of the real axis: sin of half their angle gap
    # is 0 (log term +inf) or 1 (log term -0.0)
    grid = [ray_point(h) * np.exp(1j * th)
            for h in range(2, 9) for th in np.linspace(-0.5, 0.5, 9)]
    rand = np.concatenate([random_disk_points(np.random.default_rng(17), 30),
                           [0.3, 0.7, -0.4, -0.8]])
    dist = hyp_dist(rand[:, None], rand[None, :])
    assert (dist > 1.0).any() and ((dist > 0.0) & (dist <= 1.0)).any()
    for points in (grid, rand):
        for kernel in (kernel_g(), kernel_t()):
            assert brw_check(points, kernel) == brw_check_pairs(points, kernel)
