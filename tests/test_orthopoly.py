import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from charpolylab.ensemble import make_model
from charpolylab.orthopoly import (DeterminantError, LogComplex,
                                   global_parametrix_onecut, h0_closed,
                                   m_matrix, r_weight, recurrence_table,
                                   y_matrix, _h_chain, _pi_chain)
from oracles import h0_quadrature


def test_log_complex_arithmetic():
    a = LogComplex.from_complex(3.0 + 4.0j)
    b = LogComplex.from_complex(-2.0 + 1.0j)
    assert (a * b).value() == pytest.approx((3 + 4j) * (-2 + 1j), rel=1e-14)
    assert (a + b).value() == pytest.approx(1.0 + 5.0j, rel=1e-14)
    assert (a - a).is_zero()
    assert (a / b).value() == pytest.approx((3 + 4j) / (-2 + 1j), rel=1e-14)
    assert a.conj().value() == pytest.approx(3.0 - 4.0j, rel=1e-14)
    big = LogComplex(800.0, 1.0)
    assert math.isinf(big.value().real)
    assert (big / big).value() == pytest.approx(1.0)


# complex numbers whose products and quotients stay well inside double range
_moderate = st.complex_numbers(min_magnitude=1e-50, max_magnitude=1e50,
                               allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(a=_moderate, b=_moderate)
def test_log_complex_arithmetic_property(a, b):
    la, lb = LogComplex.from_complex(a), LogComplex.from_complex(b)
    # exp(log_mag) turns the rounding of log_mag (|log_mag| <= 116 here) into
    # a relative error of up to ~116 ulp
    assert la.value() == pytest.approx(a, rel=1e-13)
    assert (la * lb).value() == pytest.approx(a * b, rel=1e-13)
    assert (la / lb).value() == pytest.approx(a / b, rel=1e-13)
    # a sum is accurate only relative to its terms, not to a cancelled result
    assert abs((la + lb).value() - (a + b)) <= 1e-13 * (abs(a) + abs(b))


def test_gue_recurrence_coefficients(table_cache):
    tab = table_cache(16)
    assert tab.a2[1] == pytest.approx(1.0 / 64.0, rel=1e-15)
    assert tab.a2[5] == pytest.approx(5.0 / 64.0, rel=1e-15)


def test_gamma0_closed_form(table_cache):
    g0 = table_cache(8).gamma0
    assert g0 ** 2 == pytest.approx(math.sqrt(16.0 / math.pi), rel=1e-14)
    assert g0 > 0


def test_gamma0_quadrature_agreement(model, table_cache):
    # gamma_0 = (integral of e^{-N V})^{-1/2}
    mass, _ = integrate.quad(lambda x: math.exp(-8 * model.V(x)), -8, 8,
                             limit=200, epsabs=1e-14, epsrel=1e-14)
    assert table_cache(8).gamma0 == pytest.approx(mass ** -0.5, rel=1e-10)


def test_orthogonality_by_quadrature(model):
    N = 8
    tab = recurrence_table(model, N, 8)

    def pi_val(n, x):
        return _pi_chain(tab, n, x)[n].value().real

    inner, _ = integrate.quad(
        lambda x: pi_val(2, x) * pi_val(3, x) * math.exp(-N * model.V(x)),
        -4, 4, limit=200)
    scale, _ = integrate.quad(
        lambda x: pi_val(2, x) ** 2 * math.exp(-N * model.V(x)), -4, 4, limit=200)
    assert abs(inner) < 1e-8 * scale


def test_eval_pi_basics(table_cache):
    pis = _pi_chain(table_cache(16), 2, 0.3)
    assert pis[0].value() == 1.0
    assert pis[1].value() == pytest.approx(0.3, rel=1e-15)
    assert pis[2].value() == pytest.approx(0.09 - 1.0 / 64.0, rel=1e-13)


def test_eval_pi_log_domain_large_N(model):
    tab = recurrence_table(model, 512, 520)
    val = _pi_chain(tab, 512, 0.5)[512]
    assert math.isfinite(val.log_mag)
    # the raw magnitude is far outside comfortable double range
    assert val.log_mag < -400.0


def test_h0_routes_agree(model, table_cache):
    tab = table_cache(8)
    q = 0.2 + 0.4j
    assert h0_closed(tab, q) == pytest.approx(h0_quadrature(model, 8, q), rel=1e-8)


def test_h_conjugation_antisymmetry(model, table_cache):
    # h_n(conj q) = -conj(h_n(q)): the 1/(2 pi i) prefactor flips under
    # conjugation (checked against quadrature in test_h0_routes for n = 0)
    tab = table_cache(8)
    q = 0.3 + 0.6j
    up = _h_chain(tab, 5, q)
    lo = _h_chain(tab, 5, np.conj(q))
    for n in (0, 1, 5):
        assert lo[n].value() == pytest.approx(-np.conj(up[n].value()), rel=1e-10)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(1, 64), x=st.floats(-2.0, 2.0),
       y=st.floats(1e-2, 2.0), n=st.integers(0, 80))
def test_h_conjugation_antisymmetry_property(model, N, x, y, n):
    # both the forward and the backward (Miller) route of the chain; the
    # chain extends a table shorter than n itself
    tab = recurrence_table(model, N, N + 8)
    q = complex(x, y)
    up = _h_chain(tab, n, q)[n]
    lo = _h_chain(tab, n, q.conjugate())[n]
    assert lo.log_mag == pytest.approx(up.log_mag, rel=1e-12, abs=1e-12)
    assert lo.phase == pytest.approx(-up.phase.conjugate(), abs=1e-10)


def test_h0_large_q_decay(table_cache):
    tab = table_cache(8)
    q = 1e3j
    target = -(tab.gamma0 ** -2) / (2j * math.pi * q)
    assert h0_closed(tab, q) == pytest.approx(target, rel=1e-4)


def test_h_recurrence_vs_quadrature(model, table_cache):
    N = 8
    tab = table_cache(8)
    q = 0.2 + 0.8j

    def h_quad(n):
        def integrand_re(x):
            pin = _pi_chain(tab, n, x)[n].value().real
            return (pin * math.exp(-N * model.V(x)) / (x - q)).real

        def integrand_im(x):
            pin = _pi_chain(tab, n, x)[n].value().real
            return (pin * math.exp(-N * model.V(x)) / (x - q)).imag

        re, _ = integrate.quad(integrand_re, -4, 4, limit=400, epsabs=1e-14)
        im, _ = integrate.quad(integrand_im, -4, 4, limit=400, epsabs=1e-14)
        return (re + 1j * im) / (2j * math.pi)

    hs = _h_chain(tab, 3, q)
    for n in (2, 3):
        rec = hs[n].value()
        assert rec == pytest.approx(h_quad(n), rel=1e-6)


def test_h_casoratian_identity(model):
    # pi_n h_{n-1} - h_n pi_{n-1} = -1/(2 pi i gamma_{n-1}^2) exactly;
    # pins the normalization of the whole h chain at every index
    for N, q in ((4, 0.3 + 0.5j), (16, 0.2 + 0.4j), (64, -0.4 + 0.3j)):
        tab = recurrence_table(model, N, N + 8)
        pis = _pi_chain(tab, N, q)
        hs = _h_chain(tab, N, q)
        for n in (2, N // 2, N):
            w = (pis[n] * hs[n - 1] - hs[n] * pis[n - 1]).value()
            target = -1.0 / (2j * math.pi * math.exp(tab.log_gamma_sq[n - 1]))
            assert w == pytest.approx(target, rel=1e-10)


def test_h_real_axis_rejected(table_cache):
    with pytest.raises(ValueError):
        _h_chain(table_cache(8), 3, 0.5)


def test_y_matrix_det(table_cache):
    Y = y_matrix(table_cache(8), 0.3 + 0.5j)
    assert Y.det == pytest.approx(1.0, abs=1e-9)
    assert Y.kind == "Y"


def test_y_matrix_jump(model):
    N = 4
    tab = recurrence_table(model, N, N + 8)
    x = 0.3
    eps = 1e-6
    Yp = y_matrix(tab, x + 1j * eps)
    Ym = y_matrix(tab, x - 1j * eps)
    up = Yp.entries * math.exp(Yp.log_scale)
    dn = Ym.entries * math.exp(Ym.log_scale)
    jump = np.array([[1.0, math.exp(-N * model.V(x))], [0.0, 1.0]])
    assert np.allclose(up, dn @ jump, rtol=1e-4, atol=1e-12)


def test_y_matrix_asymptotics(model):
    N = 4
    tab = recurrence_table(model, N, N + 8)
    q = 50.0 + 0.05j
    Y = y_matrix(tab, q)
    full = Y.entries * np.exp(Y.log_scale)
    assert math.log(abs(full[0, 0])) == pytest.approx(N * math.log(abs(q)), rel=1e-3)
    assert math.log(abs(full[1, 1])) == pytest.approx(-N * math.log(abs(q)), rel=1e-3)


def test_m_matrix_det_and_boundedness(model):
    tab = recurrence_table(model, 64, 80)
    M = m_matrix(tab, model, 0.1 + 0.2j)
    assert M.det == pytest.approx(1.0, abs=1e-9)
    consts = []
    for N in (16, 32):
        tabN = recurrence_table(model, N, N + 16)
        worst = 0.0
        for x in (-0.5, 0.0, 0.4):
            for im in (0.05, 0.3, 1.0):
                q = x + 1j * im
                Mq = m_matrix(tabN, model, q)
                norm = np.abs(Mq.entries).max() * math.exp(Mq.log_scale)
                worst = max(worst, norm / (r_weight(model, q) + 1.0))
        consts.append(worst)
    assert consts[1] <= 2.0 * consts[0] + 0.5
    assert max(consts) < 10.0


def test_m_matrix_converges_to_parametrix(model):
    x, delta = 0.2, 0.2
    Minf = global_parametrix_onecut(x + 1e-13j).entries
    diffs = []
    for N in (64, 128):
        tab = recurrence_table(model, N, N + 8)
        q = x + 2j * N ** (-1.0 + delta)
        M = m_matrix(tab, model, q)
        diffs.append(np.abs(M.entries * math.exp(M.log_scale) - Minf).max())
    assert diffs[1] < diffs[0]


def test_global_parametrix():
    Minf = global_parametrix_onecut(0.3 + 0.4j)
    assert Minf.det == pytest.approx(1.0, abs=1e-12)
    assert global_parametrix_onecut(1e6 + 0j).entries[0, 0] == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        global_parametrix_onecut(0.3)


def test_global_parametrix_jump():
    # gamma_+ = -i gamma_-, and H_+ = H_- sigma across the cut
    from charpolylab.orthopoly import _gamma_onecut
    x = 0.3
    gp = _gamma_onecut(x + 1e-8j)
    gm = _gamma_onecut(x - 1e-8j)
    assert gp / gm == pytest.approx(-1j, rel=1e-6)
    Hp = global_parametrix_onecut(x + 1e-8j).entries
    Hm = global_parametrix_onecut(x - 1e-8j).entries
    sigma = np.array([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(Hp, Hm @ sigma, atol=1e-6)


def test_r_weight(model):
    assert r_weight(model, 0.0) == pytest.approx(1.0, abs=1e-15)
    q = 0.4 + 0.7j
    assert r_weight(model, np.conj(q)) == pytest.approx(r_weight(model, q), rel=1e-14)
    h = 1e-4
    ratio = r_weight(model, 1.0 + h) / r_weight(model, 1.0 + 16 * h)
    assert ratio == pytest.approx(2.0, rel=1e-3)  # |q-1|^{-1/4} scaling
    with pytest.raises(ZeroDivisionError):
        r_weight(model, 1.0)


def test_det_error_raises(model, table_cache, monkeypatch):
    tab = table_cache(8)
    Y = y_matrix(tab, 0.4 + 0.3j)
    with pytest.raises(DeterminantError):
        Y.det = 1.5
        Y.check_det(1e-6)


def test_ensure_rejects_general_model(model):
    # only the quadratic weight has a table, and it extends itself in place
    generic = make_model("quadratic", model.V, model.rho, model.support)
    with pytest.raises(ValueError):
        recurrence_table(generic, 4, 8)
    tab = recurrence_table(model, 4, 8)
    tab.ensure(50)
    assert tab.n_max == 50 and tab.a2[50] == 50 / 16.0
