import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate

from charpolylab import orthopoly
from charpolylab.charpoly import fs_balanced
from charpolylab.ensemble import V
from charpolylab.orthopoly import (DeterminantError, OPTable,
                                   global_parametrix_onecut, h0_closed,
                                   m_matrix, r_weight, y_matrix, _exp2,
                                   _h_chain, _ldexp, _pi_chain)
from oracles import (h0_quadrature, h_chain_per_step, mp_chains, mp_faddeeva,
                     mp_fs_balanced)


def _value(chain, n):
    m, e = chain
    return complex(_ldexp(m[n], e[n]))


def _matrix(rh):
    """The value m * 2**e of a Riemann-Hilbert matrix's cells."""
    return _ldexp(rh.m, rh.e)


def _unscaled(y0, y1, x, N, n):
    """The raw recurrence y_{k+1} = x y_k - (k/4N) y_{k-1}, in plain complex."""
    ys = [complex(y0), complex(y1)]
    for k in range(1, n):
        ys.append(x * ys[k] - k / (4.0 * N) * ys[k - 1])
    return np.array(ys[:n + 1])


def test_forward_rescale_is_exact(table_cache):
    # dividing by a power of two is exact, so m * 2**e is the raw recurrence
    # bit for bit while the latter stays in range
    tab = table_cache(64)
    for x in (0.3 + 0.4j, -1.2 + 0.05j, 2.5 - 1.0j):
        m, e = _pi_chain(tab, 64, x)
        assert np.any(e != 0)
        assert np.array_equal(_ldexp(m, e), _unscaled(1.0, x, x, 64, 64))
    q = 0.2 + 0.01j  # close enough to the axis for the forward h route
    assert orthopoly._dominance_gaps(64, np.arange(1, 64), q).sum() \
        <= orthopoly._FORWARD_GAP_MAX
    h0 = complex(h0_closed(tab, q))
    h1 = q * h0 + tab.gamma0 ** -2 / (2j * math.pi)
    m, e = _h_chain(tab, 64, q)
    assert np.array_equal(_ldexp(m, e), _unscaled(h0, h1, q, 64, 64))


def test_forward_survives_huge_argument(table_cache):
    # |pi_n(x)| ~ |x|^n leaves double range after two steps at |x| = 1e200
    m, e = _pi_chain(table_cache(8), 8, 1e200 + 1e199j)
    logs = np.log(np.abs(m)) + e * math.log(2.0)
    assert np.allclose(logs[1:], np.arange(1, 9) * math.log(abs(1e200 + 1e199j)),
                       rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(w=st.complex_numbers(max_magnitude=700.0, allow_nan=False,
                            allow_infinity=False))
def test_exp2_matches_cmath_exp(w):
    m, e = _exp2(w)
    # the mantissa is e^r with r in [0, log 2) up to rounding
    assert e.dtype.kind == "i" and 0.5 < abs(m) < 4.0
    # the rounding of w.real (up to 700) is a relative error of ~700 ulp
    assert complex(_ldexp(m, e)) == pytest.approx(cmath.exp(w), rel=2e-13)


def test_gue_recurrence_coefficients(table_cache):
    # a_k^2 = k/(4N) drives both the chains and gamma_k^2 = gamma_{k-1}^2 / a_k^2
    tab = table_cache(16)
    assert orthopoly._a2(16, 1) == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert orthopoly._a2(16, 5) == pytest.approx(5.0 / 64.0, rel=1e-15)
    m, e = tab.gamma_sq
    assert math.ldexp(m[4], int(e[4] - e[5])) / m[5] == pytest.approx(5.0 / 64.0, rel=1e-15)
    assert 0.5 <= m.min() and m.max() < 1.0 and e.dtype.kind == "i"


@pytest.mark.parametrize("N", [1024, 2048, 4096])
def test_gamma_sq_matches_mpmath(N):
    # the scaled product keeps gamma_{N-1}^2 to a few ulp; a summed log of
    # the a_k^2 was off by 1.4e-11 relative at N = 2048
    m, e = OPTable(N).gamma_sq
    with mpmath.workdps(40):
        ref = mpmath.sqrt(2 * N / mpmath.pi) \
            * mpmath.fprod(mpmath.mpf(4 * N) / k for k in range(1, N))
        got = mpmath.ldexp(mpmath.mpf(m[N - 1]), int(e[N - 1]))
        assert abs(got / ref - 1) < 1e-14


def test_gamma0_closed_form(table_cache):
    g0 = table_cache(8).gamma0
    assert g0 ** 2 == pytest.approx(math.sqrt(16.0 / math.pi), rel=1e-14)
    assert g0 > 0


def test_gamma0_quadrature_agreement(table_cache):
    # gamma_0 = (integral of e^{-N V})^{-1/2}
    mass, _ = integrate.quad(lambda x: math.exp(-8 * V(x)), -8, 8,
                             limit=200, epsabs=1e-14, epsrel=1e-14)
    assert table_cache(8).gamma0 == pytest.approx(mass ** -0.5, rel=1e-10)


def test_orthogonality_by_quadrature():
    N = 8
    tab = OPTable(N)

    def pi_val(n, x):
        return _value(_pi_chain(tab, n, x), n).real

    inner, _ = integrate.quad(
        lambda x: pi_val(2, x) * pi_val(3, x) * math.exp(-N * V(x)),
        -4, 4, limit=200)
    scale, _ = integrate.quad(
        lambda x: pi_val(2, x) ** 2 * math.exp(-N * V(x)), -4, 4, limit=200)
    assert abs(inner) < 1e-8 * scale


def test_eval_pi_basics(table_cache):
    pis = _pi_chain(table_cache(16), 2, 0.3)
    assert _value(pis, 0) == 1.0
    assert _value(pis, 1) == pytest.approx(0.3, rel=1e-15)
    assert _value(pis, 2) == pytest.approx(0.09 - 1.0 / 64.0, rel=1e-13)


def test_eval_pi_log_domain_large_N():
    tab = OPTable(512)
    m, e = _pi_chain(tab, 512, 0.5)
    log_mag = math.log(abs(m[512])) + e[512] * math.log(2.0)
    assert math.isfinite(log_mag)
    # the raw magnitude is far outside comfortable double range
    assert log_mag < -400.0


def test_h0_routes_agree(table_cache):
    tab = table_cache(8)
    q = 0.2 + 0.4j
    assert h0_closed(tab, q) == pytest.approx(h0_quadrature(8, q), rel=1e-8)


def test_h_conjugation_antisymmetry(table_cache):
    # h_n(conj q) = -conj(h_n(q)): the 1/(2 pi i) prefactor flips under
    # conjugation (checked against quadrature in test_h0_routes for n = 0)
    tab = table_cache(8)
    q = 0.3 + 0.6j
    up = _h_chain(tab, 5, q)
    lo = _h_chain(tab, 5, np.conj(q))
    for n in (0, 1, 5):
        assert _value(lo, n) == pytest.approx(-np.conj(_value(up, n)), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 64), x=st.floats(-1.5, 1.5),
       y=st.floats(1e-2, 2.0), n=st.integers(0, 80))
def test_h_conjugation_antisymmetry_property(N, x, y, n):
    # both the forward and the backward (Miller) route of the chain, also
    # past the table's n_max, on the domain that the backward start-index
    # bound covers: |Re q| <= 1.5 and Im q >= 1/N
    tab = OPTable(N)
    q = complex(x, max(y, 1.0 / N))
    um, ue = _h_chain(tab, n, q)
    lm, le = _h_chain(tab, n, q.conjugate())
    ln2 = math.log(2.0)
    assert math.log(abs(lm[n])) + le[n] * ln2 == pytest.approx(
        math.log(abs(um[n])) + ue[n] * ln2, rel=1e-12, abs=1e-12)
    assert lm[n] / abs(lm[n]) == pytest.approx(-np.conj(um[n] / abs(um[n])), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 256),
       x=st.floats(-1.5, 1.5).filter(lambda x: x == 0.0 or abs(x) >= 2.0 ** -600),
       y=st.floats(1e-3, 2.0), n=st.integers(0, 80), lower=st.booleans())
@example(N=1024, x=0.2, y=0.0, n=1024, lower=False).via("Im q = 1/N, start near 100 N")
@example(N=8, x=-0.9, y=0.05, n=8, lower=True).via("past the forward gap")
def test_h_chain_matches_per_step_rescaling(N, x, y, n, lower):
    # the backward run rescaled every _RESCALE steps against the per-step
    # one it replaced, bit for bit, on the domain that the start-index
    # bound covers: |Re q| <= 1.5 and |Im q| >= 1/N, in both half-planes.
    # A Re q near the subnormal range (2^-1000 at N = 1) makes products
    # q * y subnormal, where a scale by 2^s is no longer exact
    q = complex(x, max(y, 1.0 / N))
    q = q.conjugate() if lower else q
    m, e = _h_chain(OPTable(N), n, q)
    ref_m, ref_e = h_chain_per_step(OPTable(N), n, q)
    assert m.tobytes() == ref_m.tobytes() and e.tobytes() == ref_e.tobytes()


def test_h0_large_q_decay(table_cache):
    tab = table_cache(8)
    q = 1e3j
    target = -(tab.gamma0 ** -2) / (2j * math.pi * q)
    assert h0_closed(tab, q) == pytest.approx(target, rel=1e-4)


def _faddeeva_domain():
    """z = sqrt(2N) q for N = 4 .. 4096 (powers of two), 40 q per N with
    |Re q| <= 1.5 and Im q from 1/N to 1.5 (log-uniform), plus the corners
    of each N's box: the arguments h0_closed takes in the chains."""
    rng = np.random.default_rng(2024)
    zs = []
    for N in 2 ** np.arange(2, 13):
        qs = rng.uniform(-1.5, 1.5, 40) + 1j * np.exp(
            rng.uniform(math.log(1.0 / N), math.log(1.5), 40))
        corners = [complex(x, y) for x in (-1.5, 0.0, 1.5) for y in (1.0 / N, 1.5)]
        zs.extend(math.sqrt(2.0 * N) * np.concatenate([qs, corners]))
    return zs


def test_faddeeva_matches_mpmath():
    zs = _faddeeva_domain()
    with mpmath.workdps(40):
        ref = np.array([complex(mp_faddeeva(z)) for z in zs])
    ours = np.array([orthopoly._faddeeva(z) for z in zs])
    assert (np.abs(ours - ref) / np.abs(ref)).max() <= 4e-15


def test_faddeeva_matches_wofz():
    from scipy.special import wofz
    zs = np.array(_faddeeva_domain())
    ours = np.array([orthopoly._faddeeva(z) for z in zs])
    assert (np.abs(ours - wofz(zs)) / np.abs(wofz(zs))).max() <= 5e-14


def test_h_recurrence_vs_quadrature(table_cache):
    N = 8
    tab = table_cache(8)
    q = 0.2 + 0.8j

    def h_quad(n):
        def integrand_re(x):
            pin = _value(_pi_chain(tab, n, x), n).real
            return (pin * math.exp(-N * V(x)) / (x - q)).real

        def integrand_im(x):
            pin = _value(_pi_chain(tab, n, x), n).real
            return (pin * math.exp(-N * V(x)) / (x - q)).imag

        re, _ = integrate.quad(integrand_re, -4, 4, limit=400, epsabs=1e-14)
        im, _ = integrate.quad(integrand_im, -4, 4, limit=400, epsabs=1e-14)
        return (re + 1j * im) / (2j * math.pi)

    hs = _h_chain(tab, 3, q)
    for n in (2, 3):
        rec = _value(hs, n)
        assert rec == pytest.approx(h_quad(n), rel=1e-6)


def test_h_casoratian_identity():
    # pi_n h_{n-1} - h_n pi_{n-1} = -1/(2 pi i gamma_{n-1}^2) exactly;
    # pins the normalization of the whole h chain at every index
    for N, q in ((4, 0.3 + 0.5j), (16, 0.2 + 0.4j), (64, -0.4 + 0.3j)):
        tab = OPTable(N)
        pis = _pi_chain(tab, N, q)
        hs = _h_chain(tab, N, q)
        for n in (2, N // 2, N):
            w = _value(pis, n) * _value(hs, n - 1) - _value(hs, n) * _value(pis, n - 1)
            m, e = tab.gamma_sq
            target = -1.0 / (2j * math.pi * math.ldexp(m[n - 1], int(e[n - 1])))
            assert w == pytest.approx(target, rel=1e-10)


@pytest.mark.parametrize("im", [1, 8])
@pytest.mark.parametrize("N", [1024, 4096])
def test_h_chain_matches_mpmath(N, im):
    # Im q = 1/N takes the backward route with a start index near 100 N
    q = 0.2 + 1j * im / N
    tab = OPTable(N)
    _, hs, _ = mp_chains(N, N, q, q)
    m, e = _h_chain(tab, N, q)
    for n in (0, N - 2, N - 1, N):
        assert abs(mpmath.mpc(m[n]) * mpmath.ldexp(1, int(e[n])) / hs[n] - 1) <= 1e-12
    assert tab.n_max == N


@pytest.mark.parametrize("N,q", [(8, -0.9 + 0.05j), (16, 0.3 + 0.2j)])
def test_h_chain_past_forward_gap(N, q):
    # summed dominance gaps 10.97 and 11.73: the forward route loses about
    # e^gap ulp, up to 1e-10 here, so these points run backward
    tab = OPTable(N)
    assert orthopoly._dominance_gaps(N, np.arange(1, N), q).sum() > 10.0
    _, hs, _ = mp_chains(N, N, 0.0, q)
    m, e = _h_chain(tab, N, q)
    for n in (N - 1, N):
        assert abs(mpmath.mpc(m[n]) * mpmath.ldexp(1, int(e[n])) / hs[n] - 1) <= 1e-12
    p = 0.3 + 0.4j
    assert abs(fs_balanced(tab, (p,), (q,)) / mp_fs_balanced(N, p, q) - 1) <= 1e-12


@pytest.mark.parametrize("N", [2048, 4096])
def test_y_matrix_at_im_q_one_over_n(N):
    tab = OPTable(N)
    assert abs(y_matrix(tab, 0.2 + 1j / N).det - 1.0) <= 1e-9
    assert tab.n_max == N


def test_h_real_axis_rejected(table_cache):
    with pytest.raises(ValueError):
        _h_chain(table_cache(8), 3, 0.5)


def test_y_matrix_det(table_cache):
    Y = y_matrix(table_cache(8), 0.3 + 0.5j)
    assert Y.det == pytest.approx(1.0, abs=1e-9)


def test_y_matrix_jump():
    N = 4
    tab = OPTable(N)
    x = 0.3
    eps = 1e-6
    Yp = y_matrix(tab, x + 1j * eps)
    Ym = y_matrix(tab, x - 1j * eps)
    up = _matrix(Yp)
    dn = _matrix(Ym)
    jump = np.array([[1.0, math.exp(-N * V(x))], [0.0, 1.0]])
    assert np.allclose(up, dn @ jump, rtol=1e-4, atol=1e-12)


def test_y_matrix_asymptotics():
    N = 4
    tab = OPTable(N)
    q = 50.0 + 0.05j
    Y = y_matrix(tab, q)
    full = _matrix(Y)
    assert math.log(abs(full[0, 0])) == pytest.approx(N * math.log(abs(q)), rel=1e-3)
    assert math.log(abs(full[1, 1])) == pytest.approx(-N * math.log(abs(q)), rel=1e-3)


def test_m_matrix_det_and_boundedness():
    tab = OPTable(64)
    M = m_matrix(tab, 0.1 + 0.2j)
    assert M.det == pytest.approx(1.0, abs=1e-9)
    consts = []
    for N in (16, 32):
        tabN = OPTable(N)
        worst = 0.0
        for x in (-0.5, 0.0, 0.4):
            for im in (0.05, 0.3, 1.0):
                q = x + 1j * im
                Mq = m_matrix(tabN, q)
                norm = np.abs(_matrix(Mq)).max()
                worst = max(worst, norm / (r_weight(q) + 1.0))
        consts.append(worst)
    assert consts[1] <= 2.0 * consts[0] + 0.5
    assert max(consts) < 10.0


def test_m_matrix_converges_to_parametrix():
    x, delta = 0.2, 0.2
    Minf = _matrix(global_parametrix_onecut(x + 1e-13j))
    diffs = []
    for N in (64, 128):
        tab = OPTable(N)
        q = x + 2j * N ** (-1.0 + delta)
        M = m_matrix(tab, q)
        diffs.append(np.abs(_matrix(M) - Minf).max())
    assert diffs[1] < diffs[0]


def test_global_parametrix():
    Minf = global_parametrix_onecut(0.3 + 0.4j)
    assert Minf.det == pytest.approx(1.0, abs=1e-12)
    assert _matrix(global_parametrix_onecut(1e6 + 0j))[0, 0] == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        global_parametrix_onecut(0.3)


def test_global_parametrix_jump():
    # gamma_+ = -i gamma_-, and H_+ = H_- sigma across the cut
    from charpolylab.orthopoly import _gamma_onecut
    x = 0.3
    gp = _gamma_onecut(x + 1e-8j)
    gm = _gamma_onecut(x - 1e-8j)
    assert gp / gm == pytest.approx(-1j, rel=1e-6)
    Hp = _matrix(global_parametrix_onecut(x + 1e-8j))
    Hm = _matrix(global_parametrix_onecut(x - 1e-8j))
    sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(Hp, Hm @ sigma, atol=1e-6)


def test_r_weight():
    assert r_weight(0.0) == pytest.approx(1.0, abs=1e-15)
    q = 0.4 + 0.7j
    assert r_weight(np.conj(q)) == pytest.approx(r_weight(q), rel=1e-14)
    h = 1e-4
    ratio = r_weight(1.0 + h) / r_weight(1.0 + 16 * h)
    assert ratio == pytest.approx(2.0, rel=1e-3)  # |q-1|^{-1/4} scaling
    with pytest.raises(ZeroDivisionError):
        r_weight(1.0)


def test_det_error_raises(table_cache):
    # the one builder forms det from the cells and checks it at the caller's
    # tolerance: scaling the first row by 1.5 scales det by 1.5
    q = 0.4 + 0.3j
    Y = y_matrix(table_cache(8), q)
    m = Y.m.copy()
    m[0] *= 1.5
    with pytest.raises(DeterminantError,
                       match=r"^det Y = .* at q=\(0\.4\+0\.3j\) deviates from 1 beyond 1e-06$"):
        orthopoly._rh_matrix(m, Y.e, "Y", q, 1e-6)
    assert orthopoly._rh_matrix(m, Y.e, "Y", q, 0.6).det == pytest.approx(1.5 * Y.det,
                                                                         rel=1e-14)


def test_table_holds_degrees_to_N_and_chains_run_past_it():
    # the table holds gamma_0 .. gamma_N, and the chains run past its n_max
    # without growing it
    tab = OPTable(4)
    for chain in (_pi_chain(tab, 50, 0.3), _h_chain(tab, 50, 0.3 + 0.01j)):
        assert [len(part) for part in chain] == [51, 51]
    assert tab.n_max == 4 and [len(part) for part in tab.gamma_sq] == [5, 5]


def test_start_index_error_names_route_and_bound(monkeypatch):
    # at the real bound, a q outside the domain it covers (|Re q| <= 1.5,
    # Im q >= 1/N)
    with pytest.raises(RuntimeError) as exc:
        _h_chain(OPTable(2), 3, complex(2.0, 0.01171875))
    assert str(exc.value) == ("backward h-chain at N=2, q=(2+0.01171875j): start index "
                              "216834 needed, bound 200000")
    monkeypatch.setattr(orthopoly, "_BACKWARD_HARD_CAP", 100)
    monkeypatch.setattr(orthopoly, "_BACKWARD_CAP_PER_N", 1)
    tab = OPTable(8)
    with pytest.raises(RuntimeError) as exc:
        _h_chain(tab, 40, 0.2 + 0.5j)
    assert str(exc.value) == ("backward h-chain at N=8, q=(0.2+0.5j): start index "
                              "162 needed, bound 100")
    with pytest.raises(RuntimeError, match=r"start index above 200 needed, bound 100$"):
        _h_chain(tab, 200, 0.2 + 0.5j)
