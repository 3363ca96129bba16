import csv
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.linalg import cython_lapack, eigh_tridiagonal

from charpolylab import ensemble
from charpolylab.cli import main
from charpolylab.ensemble import make_model, sample_spectrum_gue


def test_density_values(model):
    assert model.rho(0.0) == pytest.approx(2.0 / math.pi, abs=1e-15)
    total, _ = integrate.quad(model.rho, -1, 1)
    assert total == pytest.approx(1.0, abs=1e-10)
    second, _ = integrate.quad(lambda u: u * u * model.rho(u), -1, 1)
    assert second == pytest.approx(0.25, abs=1e-10)


def test_ell_v_constant(model):
    xs, vals = model.ell_v_profile()
    assert vals.std() < 1e-8
    assert vals.mean() == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-8)
    assert model.ell_v == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-12)


def test_g_tilde_closed_vs_quadrature(model):
    for x in (-0.7, 0.0, 0.4, 0.95, 1.3):
        quad = ensemble._quad_tilde_g(model.rho, model.support, x)
        assert model.g_tilde(x) == pytest.approx(quad, abs=1e-9)


def test_stieltjes_values(model):
    q = 1e6
    assert model.stieltjes(q) == pytest.approx(1.0 / q, rel=1e-5)
    assert model.stieltjes(2.0) == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), rel=1e-12)
    quad = ensemble._quad_stieltjes(model.rho, model.support, 2.0)
    assert model.stieltjes(2.0) == pytest.approx(quad, rel=1e-8)


def test_g_derivative_matches_stieltjes(model):
    q = 0.3 + 0.7j
    h = 1e-6
    fd = (model.g(q + h) - model.g(q - h)) / (2.0 * h)
    assert abs(fd - model.stieltjes(q)) / abs(model.stieltjes(q)) < 1e-6


def test_g_values(model):
    assert abs(model.g(1e6).real - math.log(1e6)) < 1e-5
    x = 0.4
    target = x * x - 0.5 - math.log(2.0)
    # the +i eps limit carries a 2 sqrt(1-x^2) eps boundary slope
    assert model.g(x + 1e-12j).real == pytest.approx(target, abs=1e-11)
    assert model.g(x + 1e-12j).real == pytest.approx(-model.g_tilde(x), abs=1e-11)
    q = -0.3 + 0.8j
    assert model.g(np.conj(q)) == pytest.approx(np.conj(model.g(q)), abs=1e-14)


def test_g_quadrature_oracle(model):
    q = 0.3 + 0.7j
    assert model.g(q) == pytest.approx(
        ensemble._quad_g(model.rho, model.support, q), abs=1e-9)


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


def test_sampler_semicircle_cdf(model):
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


def test_make_model_rejects_wrong_density():
    with pytest.raises(ValueError):
        make_model("bad", lambda x: 2.0 * x * x,
                   lambda u: 0.5 if abs(u) < 1 else 0.0, [(-1.0, 1.0)])


def test_make_model_quadrature_path(model):
    generic = make_model("quadratic", model.V, model.rho, model.support)
    assert generic.ell_v == pytest.approx(model.ell_v, abs=1e-8)
    q = 0.2 + 0.5j
    assert generic.g(q) == pytest.approx(model.g(q), abs=1e-9)


def _tridiagonal_draw(N, seed):
    # the (d, e) law of the beta = 2 model, as _sample_gue_eigs draws it
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(N)
    e = np.sqrt(rng.chisquare(2.0 * np.arange(N - 1, 0, -1)) / 2.0)
    return d, e


def _sterf_oracle(d, e):
    return eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")


def test_sterf_matches_eigh_tridiagonal():
    # the ctypes route is the one that releases the GIL on this scipy
    assert ensemble._DSTERF is not None
    for N in (2, 3, 17, 128, 1000):
        for seed in range(3):
            d, e = _tridiagonal_draw(N, seed)
            d0, e0 = d.copy(), e.copy()
            assert np.array_equal(ensemble._sterf(d, e), _sterf_oracle(d, e))
            # dsterf works in place: the caller's arrays stay untouched
            assert np.array_equal(d, d0) and np.array_equal(e, e0)


def test_sterf_rejects_bad_input():
    d, e = _tridiagonal_draw(8, 0)
    for bad in (np.nan, np.inf):
        d_bad = d.copy()
        d_bad[3] = bad
        with pytest.raises(ValueError):
            ensemble._sterf(d_bad, e)
        e_bad = e.copy()
        e_bad[5] = bad
        with pytest.raises(ValueError):
            ensemble._sterf(d, e_bad)
    with pytest.raises(ValueError):
        ensemble._sterf(d, e[:-1])


def test_sterf_signature_mismatch_falls_back(monkeypatch):
    # ssterf's capsule is single precision: it must not be bound as dsterf
    assert ensemble._dsterf_from_capsule(cython_lapack.__pyx_capi__["ssterf"]) is None
    d, e = _tridiagonal_draw(300, 4)
    fast = ensemble._sterf(d, e)
    monkeypatch.setattr(ensemble, "_DSTERF", None)
    assert np.array_equal(ensemble._sterf(d, e), fast)
    assert np.array_equal(fast, _sterf_oracle(d, e))


def test_sterf_on_thread_pool_matches_serial():
    draws = [_tridiagonal_draw(1024, seed) for seed in range(4)]
    serial = [ensemble._sterf(d, e) for d, e in draws]
    with ThreadPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(lambda de: ensemble._sterf(*de), draws))
    for a, b in zip(serial, pooled):
        assert np.array_equal(a, b)
