import csv
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats
from scipy.linalg import eigh_tridiagonal

from charpolylab import ensemble
from charpolylab._rng import substream
from charpolylab.cli import main
from charpolylab.ensemble import make_model, sample_spectrum_gue

from oracles import quad_g, quad_stieltjes


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


def test_stieltjes_values(model, monkeypatch):
    q = 1e6
    assert model.stieltjes(q) == pytest.approx(1.0 / q, rel=1e-5)
    assert model.stieltjes(2.0) == pytest.approx(2.0 * (2.0 - math.sqrt(3.0)), rel=1e-12)
    # on the real axis the imaginary part is exactly 0 and is not integrated
    calls = []
    quad = integrate.quad
    monkeypatch.setattr(integrate, "quad",
                        lambda *args, **kw: calls.append(1) or quad(*args, **kw))
    val = quad_stieltjes(model.rho, model.support, 2.0)
    assert len(calls) == 1 and val.imag == 0.0
    assert model.stieltjes(2.0) == pytest.approx(val, rel=1e-8)
    quad_stieltjes(model.rho, model.support, 2.0 + 0.5j)
    assert len(calls) == 3


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
        quad_g(model.rho, model.support, q), abs=1e-9)


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
    model = ensemble.gue_model()
    qs = np.array([complex(x, y) for x, y in points])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, args in ((model.g, qs), (model.stieltjes, qs),
                        (model.g_tilde, qs.real.copy())):
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
    # a supplied density carries g_tilde by quadrature and no g or g'; the
    # quadrature oracles for those agree with the closed forms at this point
    generic = make_model("quadratic", model.V, model.rho, model.support)
    assert generic.ell_v == pytest.approx(model.ell_v, abs=1e-8)
    assert generic.g is None and generic.stieltjes is None
    q = 0.2 + 0.5j
    assert quad_g(generic.rho, generic.support, q) == pytest.approx(model.g(q), abs=1e-9)
    assert quad_stieltjes(generic.rho, generic.support, q) == pytest.approx(
        model.stieltjes(q), abs=1e-9)


def test_make_model_profile_is_computed_once(model):
    generic = make_model("quadratic", model.V, model.rho, model.support)
    xs, vals = generic.ell_v_profile()
    assert len(xs) == len(vals) == 101
    assert generic.ell_v == float(vals.mean())
    assert generic.rho_max == max(model.rho(x) for x in xs)
    generic.g_tilde = None  # a second quadrature pass would fail here
    again = generic.ell_v_profile()
    assert again[0] is xs and again[1] is vals
    with pytest.raises(ValueError):
        vals[0] = 0.0


def test_sterf_matches_eigh_tridiagonal():
    # the eigenvalue route (gen-spectrum and the oracles): dsterf on the
    # drawn (d, e), bit for bit as eigh_tridiagonal, and the draw untouched
    for N in (2, 3, 17, 128, 1000):
        for seed in range(3):
            spec = sample_spectrum_gue(N, seed)
            d0, e0 = spec.d.copy(), spec.e.copy()
            ref = eigh_tridiagonal(spec.d, spec.e, eigvals_only=True,
                                   lapack_driver="sterf")
            assert np.array_equal(spec.eigenvalues, np.sort(ref) / (2.0 * math.sqrt(N)))
            assert np.array_equal(spec.d, d0) and np.array_equal(spec.e, e0)


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 64), n=st.integers(1, 3000),
       kind=st.sampled_from(["one", "non_divisor", "over"]), data=st.data(),
       seed=st.integers(0, 2**32 - 1))
def test_tridiagonal_blocks_are_one_draw(N, n, kind, data, seed):
    # blocks of rows draws give tridiagonal_draw's values and leave the
    # stream where it does: the next value drawn is the same
    if kind == "one":
        rows = 1
    elif kind == "over":
        rows = n + data.draw(st.integers(1, 50))
    else:
        rows = next(r for r in range(data.draw(st.integers(2, n + 1)), n + 2) if n % r)
    ref = substream(seed, 0)
    d, e = ensemble.tridiagonal_draw(N, ref, size=(n,))
    rng = substream(seed, 0)
    got = [(bd.copy(), be.copy()) for bd, be in ensemble.tridiagonal_blocks(N, rng, n, rows)]
    assert [len(bd) for bd, _ in got] == [min(rows, n - lo) for lo in range(0, n, rows)]
    assert np.array_equal(np.concatenate([bd for bd, _ in got]), d)
    assert np.array_equal(np.concatenate([be for _, be in got]), e)
    assert rng.random() == ref.random()


def test_tridiagonal_draw_stream_use(rng):
    # one draw and a batch take d, then e, from the stream: sample i of the
    # max experiment and the Monte Carlo chunks keep their draws
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
