import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from charpolylab import charpoly
from charpolylab._rng import substream
from charpolylab.charpoly import (_batch_se, exp_moment_field, exp_pm2_moment, fs_balanced,
                                  laplace_split, mc_char_ratio, vandermonde_det,
                                  write_verification_report)
from charpolylab.ensemble import char_poly, g, recurrence_coeffs, tridiagonal_draw
from charpolylab.extremes import cheb_grid
from charpolylab.gaussfield import BiasSpec
from charpolylab.hyperbolic import joukowsky
from charpolylab.orthopoly import OPTable, _scaled_det
from oracles import (_mp_dps, mc_abs2_moment, mc_char_ratio_oneshot, mc_field_bias_moment,
                     mp_faddeeva, mp_fs_balanced)


def test_vandermonde():
    assert vandermonde_det([]) == 1.0
    assert vandermonde_det([2.0]) == 1.0
    assert vandermonde_det([0.0, 1.0]) == 1.0
    assert vandermonde_det([0.0, 1.0, 2.0]) == 2.0


def test_fs_balanced_identity_tuples(table_cache):
    tab = table_cache(8)
    for ell in (1, 2, 3):
        pts = [0.3 + 0.5j, -0.2 + 0.6j, 0.1 - 0.7j][:ell]
        val = fs_balanced(tab, pts, pts)
        assert val == pytest.approx(1.0, abs=1e-9)


def test_fs_balanced_single_point_unity(table_cache):
    # 2x2 case: the determinant is det Y_N, forced to 1
    tab = table_cache(8)
    q = 0.3 + 0.5j
    assert fs_balanced(tab, [q], [q]) == pytest.approx(1.0, abs=1e-10)


def test_fs_balanced_permutation_invariance(table_cache):
    tab = table_cache(8)
    p = [0.3 + 0.4j, -0.1 + 0.5j]
    q = [0.2 + 0.6j, -0.3 - 0.5j]
    a = fs_balanced(tab, p, q)
    b = fs_balanced(tab, p[::-1], q)
    assert a == pytest.approx(b, rel=1e-12)


def test_fs_balanced_vs_monte_carlo(table_cache):
    tab = table_cache(4)
    p, q = [0.3 + 0.4j], [-0.2 + 0.5j]
    f = fs_balanced(tab, p, q)
    [(mc, se)] = mc_char_ratio(4, [p], [q], 300_000, seed=31)
    assert abs(mc - f) < 3.0 * se


# the two cases fs-verify checks against Monte Carlo
@pytest.mark.parametrize("p,q", [(0.3 + 0.4j, -0.2 + 0.5j),
                                 (-0.35 + 0.45j, 0.25 + 0.6j)])
@pytest.mark.parametrize("N", [256, 1024, 2048])
def test_fs_balanced_matches_mpmath(N, p, q):
    f = fs_balanced(OPTable(N), [p], [q])
    assert f == pytest.approx(mp_fs_balanced(N, p, q), rel=1e-12)


@pytest.mark.parametrize("q", [-0.2 + 0.5j, 0.25 + 0.6j])
def test_faddeeva_continued_fraction_matches_erfc(q):
    # the q of both fs-verify cases at N = 256, at the digits mp_chains uses
    N = 256
    with mpmath.workdps(_mp_dps(N, N, q)):
        z = mpmath.sqrt(2 * N) * mpmath.mpc(q)
        assert z.imag >= 4  # the continued-fraction route
        ref = mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
        assert abs(mp_faddeeva(z) - ref) <= mpmath.mpf(10) ** (5 - mpmath.mp.dps) * abs(ref)


def test_fs_balanced_rejects_bad_input(table_cache):
    tab = table_cache(8)
    with pytest.raises(ValueError):
        fs_balanced(tab, [0.3 + 0.4j], [0.5])      # q on the real axis
    with pytest.raises(ValueError):
        fs_balanced(tab, [0.3 + 0.4j, 0.3 + 0.4j], [0.2 + 0.3j, 0.4 + 0.3j])
    # the formula holds for l <= N points on each side
    with pytest.raises(ValueError, match="need N >= l"):
        fs_balanced(table_cache(1), [0.3 + 0.4j, 0.1 + 0.2j], [0.2 + 0.3j, 0.4 + 0.3j])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(0, 1000))
def test_scaled_det_matches_slogdet(n, seed, scale):
    # rows and columns scaled by up to 2^{+-1000}, each entry split at random
    # between mantissa and exponent: the plain matrix would over- and
    # underflow, but det(D1 A D2) = det(D1) det(A) det(D2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assume(np.linalg.cond(A) < 1e6)
    r = rng.integers(-scale, scale, n, endpoint=True)
    c = rng.integers(-scale, scale, n, endpoint=True)
    split = rng.integers(-3, 3, (n, n), endpoint=True)
    m, e = _scaled_det(np.ldexp(A.real, split) + 1j * np.ldexp(A.imag, split),
                       r[:, None] + c[None, :] - split)
    sign, logabs = np.linalg.slogdet(A)
    assert math.log(abs(m)) + e * math.log(2.0) == pytest.approx(
        logabs + (r.sum() + c.sum()) * math.log(2.0), abs=1e-8)
    assert m / abs(m) == pytest.approx(sign, abs=1e-8)


def test_laplace_split_scalar():
    a, b, c, d = 2.0 + 1.0j, -0.5j, 1.5, 0.25 + 0.25j
    val = laplace_split([a], [b], [c], [d], [0.7], [0.9j])
    assert val == pytest.approx(a * d - b * c, rel=1e-14)


def test_laplace_split_block_diagonal(rng):
    ell = 3
    p = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
    q = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
    one = np.ones(ell)
    zero = np.zeros(ell)
    val = laplace_split(one, zero, zero, one, p, q)
    assert val == pytest.approx(vandermonde_det(q) * vandermonde_det(p), rel=1e-12)


def _direct_block_det(A, B, C, D, p, q):
    ell = len(p)
    V = lambda pts: np.vander(np.asarray(pts), ell, increasing=True)
    top = np.hstack([np.diag(A) @ V(q), np.diag(B) @ V(q)])
    bot = np.hstack([np.diag(C) @ V(p), np.diag(D) @ V(p)])
    return np.linalg.det(np.vstack([top, bot]))


def test_laplace_split_vs_direct_determinant(rng):
    for _ in range(100):
        ell = int(rng.integers(1, 4))
        vals = rng.standard_normal((4, ell)) + 1j * rng.standard_normal((4, ell))
        p = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        q = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        split = laplace_split(*vals, p, q)
        direct = _direct_block_det(*vals, p, q)
        assert split == pytest.approx(direct, rel=1e-10)


def test_exp_moment_field_empty(table_cache):
    assert exp_moment_field(table_cache(8), BiasSpec()) == 1.0


def test_exp_moment_field_cross_path(table_cache):
    tab = table_cache(16)
    z = 1j * 0.85 * np.exp(0.05j)
    w = 1j * 0.78 * np.exp(-0.04j)
    bias = BiasSpec(plus_points=(z,), minus_points=(w,))
    emf = exp_moment_field(tab, bias)
    p = [joukowsky(np.conj(z)), joukowsky(z)]
    q = [joukowsky(np.conj(w)), joukowsky(w)]
    fb = fs_balanced(tab, p, q)
    center = math.exp(-16 * sum(g(v).real for v in p)
                      + 16 * sum(g(v).real for v in q))
    assert emf == pytest.approx((fb * center).real, rel=1e-8)


def test_exp_moment_field_vs_mc(table_cache):
    tab = table_cache(8)
    z = 1j * 0.85 * np.exp(0.05j)
    w = 1j * 0.78 * np.exp(-0.04j)
    bias = BiasSpec(plus_points=(z,), minus_points=(w,))
    f = exp_moment_field(tab, bias)
    mc, se = mc_field_bias_moment(8, bias, 200_000, seed=41)
    assert abs(mc - f) < 3.0 * se


def test_exp_moment_field_conjugation_invariance(table_cache):
    tab = table_cache(8)
    z = 0.3 + 0.55j
    w = -0.25 + 0.6j
    a = exp_moment_field(tab, BiasSpec((z,), (w,)))
    b = exp_moment_field(tab, BiasSpec((np.conj(z),), (np.conj(w),)))
    assert a == pytest.approx(b, rel=1e-9)


def test_exp_moment_field_unbalanced_rejected(table_cache):
    with pytest.raises(ValueError):
        exp_moment_field(table_cache(8), BiasSpec((0.3j,), ()))


def test_exp_moment_field_real_point_collides_under_joukowsky(table_cache):
    # a real bias point maps to the same plane point as its conjugate
    with pytest.raises(ValueError):
        exp_moment_field(table_cache(8), BiasSpec((0.5,), (0.3j,)))


def test_exp_pm2_positive_and_cs(table_cache):
    tab = table_cache(8)
    for q in (0.2 + 0.5j, -0.4 + 0.3j, 0.6 - 0.8j):
        plus = exp_pm2_moment(tab, q, +1)
        minus = exp_pm2_moment(tab, q, -1)
        assert plus > 0 and minus > 0
        assert plus * minus >= 1.0 - 1e-10  # Cauchy-Schwarz on e^{+-Q}


def test_exp_pm2_vs_mc(table_cache):
    tab = table_cache(8)
    q = 0.2 + 0.5j
    for sign in (+1, -1):
        f = exp_pm2_moment(tab, q, sign)
        mc, se = mc_abs2_moment(8, q, sign, 200_000, seed=47)
        assert abs(mc - f) < 3.5 * se


def test_exp_pm2_rejects_real_axis(table_cache):
    with pytest.raises(ValueError):
        exp_pm2_moment(table_cache(8), 0.5, +1)


def test_exp_pm2_minus_needs_two_levels(table_cache):
    # the minus sign reads h_{N-2}: at N = 1 that index would wrap to the end
    with pytest.raises(ValueError, match="N >= 2"):
        exp_pm2_moment(table_cache(1), 0.2 + 0.5j, -1)


def test_verification_report(tmp_path):
    path = tmp_path / "report.csv"
    write_verification_report([["case", 4, 1.0, 1.1, 0.05, 2.0]], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "case_id,N,formula_value,mc_value,mc_stderr,z_score"
    assert len(lines) == 2


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 500), seed=st.integers(0, 2**32 - 1),
       spread=st.floats(1e-3, 1e3),
       shift=st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
       phase=st.floats(-math.pi, math.pi))
def test_batched_mean_se_is_the_complex_means(n, seed, spread, shift, phase):
    # the standard error of the complex mean: a common shift and a unit phase
    # leave it alone, and it is the hypot of its components' errors
    rng = substream(seed, 0)
    vals = rng.standard_normal(n) + 1j * spread * rng.standard_normal(n)

    def batch_se(v):
        return _batch_se(v, 50, np.mean)

    se = batch_se(vals)
    assert se > 0.0
    assert se == pytest.approx(math.hypot(batch_se(vals.real), batch_se(vals.imag)),
                               rel=1e-12)
    # the shifted values round at the shift's scale, not the spread's
    assert batch_se(vals + shift) == pytest.approx(se, rel=1e-9, abs=1e-13 * abs(shift))
    assert batch_se(vals * np.exp(1j * phase)) == pytest.approx(se, rel=1e-12)


def _raw_char_poly_batch(N, xs, rng, n_samples):
    """The unscaled three-term recurrence: the oracle for the rescaled one."""
    s = 2.0 * math.sqrt(N)
    d = rng.standard_normal((n_samples, N)) / s
    dof = 2.0 * np.arange(N - 1, 0, -1)
    e = np.sqrt(rng.chisquare(dof, size=(n_samples, N - 1)) / 2.0) / s
    out = np.empty((n_samples, len(xs)), dtype=complex)
    for ix, x in enumerate(xs):
        Dm1 = np.ones(n_samples, dtype=complex)
        D = x - d[:, 0]
        for k in range(1, N):
            Dm1, D = D, (x - d[:, k]) * D - e[:, k - 1] ** 2 * Dm1
        out[:, ix] = D
    return out


def test_char_poly_batch_rescale_is_exact():
    # the kernel of the Monte Carlo oracles and of the grid maxima, on complex
    # and on real points (where it runs in real arithmetic)
    xs = [0.3 + 0.4j, -0.2 + 0.5j, 0.1 + 1e-3j]
    raw = _raw_char_poly_batch(64, xs, substream(9, 0), 500)
    coeffs = recurrence_coeffs(*tridiagonal_draw(64, substream(9, 0), size=(500,)))
    mant, exps = (a.T for a in char_poly(*coeffs, np.array(xs)[:, None]))
    assert exps.dtype.kind == "i" and np.any(exps != 0)
    assert np.array_equal(np.ldexp(mant.real, exps), raw.real)
    assert np.array_equal(np.ldexp(mant.imag, exps), raw.imag)
    xs = [0.3, -0.95, 1.2]
    raw = _raw_char_poly_batch(64, xs, substream(9, 0), 500)
    coeffs = recurrence_coeffs(*tridiagonal_draw(64, substream(9, 0), size=(500,)))
    mant, exps = (a.T for a in char_poly(*coeffs, np.array(xs)[:, None]))
    assert mant.dtype == float and np.any(exps != 0)
    assert np.array_equal(np.ldexp(mant, exps), raw.real) and not raw.imag.any()


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 100), n_samples=st.integers(1, 40), n_points=st.integers(1, 6),
       real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_char_poly_layouts_agree_bitwise(N, n_samples, n_points, real, seed):
    # the state takes the broadcast shape of xs against the sample axes: the
    # Monte Carlo oracle puts samples inner, the grid maxima put points inner
    rng = np.random.default_rng(seed)
    d, e = tridiagonal_draw(N, rng, size=(n_samples,))
    xs = rng.uniform(-1.5, 1.5, n_points)
    if not real:
        xs = xs + 1j * rng.uniform(-1.0, 1.0, n_points)
    a, b2 = recurrence_coeffs(d, e)
    m_in, e_in = char_poly(a, b2, xs[:, None])
    m_out, e_out = char_poly(a[:, None], b2[:, None], xs)
    assert m_in.shape == (n_points, n_samples) and m_out.shape == (n_samples, n_points)
    assert m_in.dtype == m_out.dtype == xs.dtype
    assert np.array_equal(e_in.T, e_out)
    assert np.array_equal(np.ascontiguousarray(m_in.T).view(np.uint64),
                          m_out.view(np.uint64))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 300), n_samples=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_char_poly_real_grid_is_complex_grid_bitwise(N, n_samples, seed):
    # with zero imaginary parts a complex product rounds like the real one,
    # so the max experiment may run its real grid in real arithmetic
    a, b2 = recurrence_coeffs(*tridiagonal_draw(N, np.random.default_rng(seed),
                                                size=(n_samples,)))
    grid = cheb_grid(N)
    m_r, e_r = char_poly(a[:, None], b2[:, None], grid)
    m_c, e_c = char_poly(a[:, None], b2[:, None], grid.astype(complex))
    assert m_r.dtype == np.float64 and m_c.dtype == np.complex128
    assert not m_c.imag.any()
    assert np.array_equal(m_r.view(np.uint64), np.ascontiguousarray(m_c.real).view(np.uint64))
    assert np.array_equal(e_r, e_c)


@pytest.mark.parametrize("N", [1, 2, 64, 1024])
def test_recurrence_coeffs_in_place_bitwise(N):
    d, e = tridiagonal_draw(N, substream(4, 0), size=(5,))
    s = 2.0 * math.sqrt(N)
    want_a, want_b2 = d / s, np.square(e / s)
    a, b2 = recurrence_coeffs(d, e)
    assert a is d and b2 is e
    assert np.array_equal(a.view(np.uint64), want_a.view(np.uint64))
    assert np.array_equal(b2.view(np.uint64), want_b2.view(np.uint64))


@pytest.mark.parametrize("p,q", [
    ([(0.3 + 0.4j,), (-0.35 + 0.45j,), (0.1 - 0.2j,)],
     [(-0.2 + 0.5j,), (0.25 + 0.6j,), (0.5 + 0.3j,)]),
    ([(0.3 + 0.4j, -0.1 + 0.5j), (-0.35 + 0.45j, 0.2 - 0.3j)],
     [(0.2 + 0.6j, -0.3 - 0.5j), (0.25 + 0.6j, 0.6 + 0.2j)])])
def test_mc_char_ratio_case_axis_matches_one_case_calls(monkeypatch, p, q):
    # every case reads the same draws, so each gives the bits of a call
    # with its row alone, here across blocks of 300 draws
    monkeypatch.setattr(charpoly, "_BLOCK_BYTES", 0)
    monkeypatch.setattr(charpoly, "_BLOCK_MIN_ROWS", 300)
    cases = mc_char_ratio(16, p, q, 1_000, seed=7)
    assert len(cases) == len(p)
    for (mc, se), pc, qc in zip(cases, p, q):
        [(one_mc, one_se)] = mc_char_ratio(16, [pc], [qc], 1_000, seed=7)
        assert np.array([mc, se]).view(np.uint64).tolist() == \
            np.array([one_mc, one_se]).view(np.uint64).tolist()


def _bits(cases):
    return np.array(cases, dtype=complex).view(np.uint64).tolist()


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 40), n_samples=st.integers(1, 1000), rows=st.integers(1, 700),
       n_cases=st.integers(1, 3), n_points=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(N=5, n_samples=602, rows=300, n_cases=2, n_points=2, seed=0)
def test_mc_char_ratio_blocks_match_oneshot(N, n_samples, rows, n_cases, n_points, seed):
    # blocks of rows draws, block j drawn whole from substream(seed, j),
    # give the oracle's values and SEs across block boundaries
    rng = np.random.default_rng(seed)
    p, q = (rng.uniform(-0.8, 0.8, (n_cases, n_points))
            + 1j * rng.uniform(0.2, 0.8, (n_cases, n_points)) for _ in range(2))
    with mock.patch.multiple(charpoly, _BLOCK_BYTES=0, _BLOCK_MIN_ROWS=rows):
        got = _bits(mc_char_ratio(N, p, q, n_samples, seed))
    # the oracle's np.prod reduces a block of one draw with several points
    # a side in numpy's reduction loop, which rounds a complex product
    # differently from its elementwise loop; mc_char_ratio multiplies
    # elementwise at every block length, so only such a block may differ
    if n_points == 1 or (n_samples - 1) % rows:
        assert got == _bits(mc_char_ratio_oneshot(N, p, q, n_samples, seed, rows))


def test_mc_char_ratio_peak_memory():
    # fs-verify's two sizes, both cases, and ten times its draws at N = 256:
    # the oracle holds the cases x draws values, one block of draws and the
    # recurrence's state, and frees a block before it draws the next, so
    # beside the values its peak does not grow with the draws.  Measured
    # peak beside the values: 9.0 MiB at N = 256 at either draw count,
    # 16.4 MiB at N = 1024 (32.9 MiB with two blocks alive at once)
    for N, n, slack in [(256, 10_000, 10 << 20), (256, 100_000, 10 << 20),
                        (1024, 2_000, 18 << 20)]:
        tracemalloc.start()
        try:
            mc_char_ratio(N, [(0.3 + 0.4j,), (-0.35 + 0.45j,)],
                          [(-0.2 + 0.5j,), (0.25 + 0.6j,)], n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * 16 + slack, (N, n, (peak - 2 * n * 16) / 2**20)


def test_monte_carlo_oracles_survive_determinant_underflow():
    # at N = 2048 det(q - A) ~ e^{N Re g(q)} is far below the smallest double
    p, q = 0.3 + 0.4j, -0.2 + 0.5j
    raw = _raw_char_poly_batch(2048, [q], substream(3, 0), 50)
    assert np.all(raw == 0)
    [(mc, se)] = mc_char_ratio(2048, [[p]], [[q]], 500, seed=3)
    assert np.isfinite(mc) and 0.0 < se < abs(mc)
    for sign in (+1, -1):
        m2, se2 = mc_abs2_moment(2048, q, sign, 500, seed=3)
        assert np.isfinite(m2) and m2 > 0.0 and np.isfinite(se2)
    bias = BiasSpec(plus_points=(0.5j,), minus_points=(0.5j * np.exp(0.3j),))
    mb, seb = mc_field_bias_moment(2048, bias, 500, seed=3)
    assert np.isfinite(mb) and mb > 0.0 and np.isfinite(seb)
