import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.linalg import eigh_tridiagonal

from charpolylab import _lapack, ensemble
from charpolylab._rng import substream
from charpolylab.cli import main
from charpolylab.ensemble import (ELL_V, SUPPORT, g, g_tilde, rho,
                                  sample_spectrum_gue, stieltjes)

from oracles import ell_v_profile, quad_g, quad_g_tilde, quad_stieltjes


def test_density_values():
    assert rho(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    total, _ = integrate.quad(rho, -1, 1)
    assert total == pytest.approx(1.0, abs=1e-10)
    second, _ = integrate.quad(lambda u: u * u * rho(u), -1, 1)
    assert second == pytest.approx(0.25, abs=1e-10)


def test_ell_v_constant():
    xs, vals = ell_v_profile(g_tilde)
    assert vals.std() < 1e-8
    assert vals.mean() == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-8)
    assert ELL_V == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-12)


def test_g_tilde_closed_vs_quadrature():
    for x in (-0.7, 0.0, 0.4, 0.95, 1.3):
        quad = quad_g_tilde(rho, SUPPORT, x)
        assert g_tilde(x) == pytest.approx(quad, abs=1e-9)


def test_stieltjes_values(monkeypatch):
    q = 1e6
    assert stieltjes(q) == pytest.approx(1.0 / q, rel=1e-5)
    assert stieltjes(2.0) == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), rel=1e-12)
    # on the real axis the imaginary part is exactly 0 and is not integrated
    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad",
                        lambda *args, **kw: calls.append(1) or quad(*args, **kw))
    val = quad_stieltjes(rho, SUPPORT, 2.0)
    assert len(calls) == 1 and val.imag == 0.0
    assert stieltjes(2.0) == pytest.approx(val, rel=1e-8)
    quad_stieltjes(rho, SUPPORT, 2.0 + 0.5j)
    assert len(calls) == 3


def test_g_derivative_matches_stieltjes():
    q = 0.3 + 0.7j
    h = 1e-6
    fd = (g(q + h) - g(q - h)) / (2.0 * h)
    assert abs(fd - stieltjes(q)) / abs(stieltjes(q)) < 1e-6


def test_g_values():
    assert abs(g(1e6).real - math.log(1e6)) < 1e-5
    x = 0.4
    target = x * x - 0.5 - math.log(2.0)
    # the +i eps limit carries a 2 sqrt(1-x^2) eps boundary slope
    assert g(x + 1e-12j).real == pytest.approx(target, abs=1e-11)
    assert g(x + 1e-12j).real == pytest.approx(-g_tilde(x), abs=1e-11)
    q = -0.3 + 0.8j
    assert g(np.conj(q)) == pytest.approx(np.conj(g(q)), abs=1e-14)


def test_g_quadrature_oracle():
    q = 0.3 + 0.7j
    assert g(q) == pytest.approx(quad_g(rho, SUPPORT, q), abs=1e-9)


def test_make_model_quadrature_path():
    # a density given only as a function reaches ell_V, g and g' by
    # quadrature alone; each agrees with its closed form
    xs, vals = ell_v_profile(lambda x: quad_g_tilde(rho, SUPPORT, x))
    assert vals.mean() == pytest.approx(ELL_V, abs=1e-8)
    q = 0.2 + 0.5j
    assert quad_g(rho, SUPPORT, q) == pytest.approx(g(q), abs=1e-9)
    assert quad_stieltjes(rho, SUPPORT, q) == pytest.approx(stieltjes(q), abs=1e-9)


def test_ell_v_profile_flags_a_wrong_density():
    # criterion 9's quadrature profile tells densities apart: the uniform
    # density on [-1, 1] is not V's equilibrium density, and its profile
    # is far from flat
    def uniform(u):
        return 0.5 if abs(u) < 1 else 0.0

    xs, vals = ell_v_profile(lambda x: quad_g_tilde(uniform, SUPPORT, x))
    assert vals.std() > 1e-8


_EDGE = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-1e-9, 1e-9)).map(sum)
_RE = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e6, 1e6), _EDGE,
                st.sampled_from([-1.0, 0.0, 1.0]))
_IM = st.one_of(st.just(0.0), st.floats(-1e-12, 1e-12), st.floats(-10.0, 10.0))


@settings(max_examples=150, deadline=None)
@given(points=st.lists(st.tuples(_RE, _IM), min_size=1, max_size=9))
def test_closed_forms_agree_on_scalars_and_arrays(points):
    # one closed form each for g, g' and g_tilde: an array gives the
    # elementwise scalar values bit for bit, a scalar gives a scalar, and no
    # point (on the cut, at the edges, at 0) raises a warning
    qs = np.array([complex(x, y) for x, y in points])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args in ((g, qs), (stieltjes, qs), (g_tilde, qs.real.copy())):
            scalars = [f(v) for v in args.tolist()]
            assert all(np.ndim(v) == 0 for v in scalars)
            assert np.array(scalars).tobytes() == f(args).tobytes()


def test_sampler_n1_is_gaussian():
    draws = np.array([sample_spectrum_gue(1, s).eigenvalues[0] for s in range(3000)])
    # lambda ~ Normal(0, 1/4)
    stat, _ = stats.kstest(draws, "norm", args=(0.0, 0.5))
    assert stat < 1.63 / math.sqrt(len(draws))  # 1% critical value


def test_sampler_second_moment():
    vals = []
    for s in range(100):
        spec = sample_spectrum_gue(1024, s)
        vals.append((spec.eigenvalues ** 2).mean())
    vals = np.array(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 0.25) < 3.0 * se


def test_sampler_semicircle_cdf():
    spec = sample_spectrum_gue(4096, 12)
    lam = spec.eigenvalues
    ecdf = np.arange(1, len(lam) + 1) / len(lam)
    x = np.clip(lam, -1, 1)
    cdf = 0.5 + (x * np.sqrt(1 - x * x) + np.arcsin(x)) / math.pi
    assert np.abs(ecdf - cdf).max() < 0.02


def test_sampler_determinism():
    a = sample_spectrum_gue(64, 7)
    b = sample_spectrum_gue(64, 7)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    c = sample_spectrum_gue(64, 8)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)


def test_spectrum_roundtrip(tmp_path):
    # gen-spectrum's CSV carries the sampled eigenvalues bit for bit
    spec = sample_spectrum_gue(16, 9)
    path = tmp_path / "spec.csv"
    assert main(["gen-spectrum", "--N", "16", "--seed", "9", "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue"]
    back = np.array([float(r[1]) for r in rows[1:]])
    assert np.array_equal(back, spec.eigenvalues)
    meta = json.loads((tmp_path / "spec.csv.json").read_text())
    assert meta["sampler"] == "tridiagonal" and meta["model"] == "gue"


def test_sterf_matches_eigh_tridiagonal():
    # the eigenvalue route (gen-spectrum and the oracles): dsterf on the
    # drawn (d, e), bit for bit as eigh_tridiagonal, and the draw untouched;
    # at N = 1, with no off-diagonal, the eigenvalue is d itself
    for N in (1, 2, 3, 17, 128, 1000):
        for seed in range(3):
            spec = sample_spectrum_gue(N, seed)
            d0, e0 = spec.d.copy(), spec.e.copy()
            ref = eigh_tridiagonal(spec.d, spec.e, eigvals_only=True,
                                   lapack_driver="sterf")
            assert np.array_equal(spec.eigenvalues, np.sort(ref) / (2.0 * math.sqrt(N)))
            assert np.array_equal(spec.d, d0) and np.array_equal(spec.e, e0)


@pytest.mark.parametrize("d,e", [(np.ones(3), np.ones(1)), (np.ones(3), np.ones(3)),
                                 (np.ones((2, 3)), np.ones((2, 2)))],
                         ids=["short_e", "long_e", "block_of_draws"])
def test_dsterf_rejects_mismatched_shapes(d, e):
    # LAPACK would read n - 1 off-diagonal entries from a buffer of any size
    with pytest.raises(ValueError, match="n - 1 entries"):
        _lapack.dsterf(d, e)


def test_tridiagonal_draw_stream_use(rng):
    # one draw and a batch take d, then e, from the stream: sample i of the
    # max experiment and the Monte Carlo blocks keep their draws
    for N in (1, 2, 9):
        seed = int(rng.integers(2**32))
        for size in ((), (3,)):
            d, e = ensemble.tridiagonal_draw(N, substream(seed, 0), size=size)
            ref = substream(seed, 0)
            assert np.array_equal(d, ref.standard_normal(size + (N,)))
            assert e.shape == size + (N - 1,)
            if N > 1:
                dof = 2.0 * np.arange(N - 1, 0, -1)
                chi = ref.chisquare(dof, size=size + (N - 1,))
                assert np.array_equal(e, np.sqrt(chi / 2.0))
