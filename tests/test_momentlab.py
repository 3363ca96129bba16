import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charpolylab import _lapack, momentlab
from charpolylab._rng import substream
from charpolylab.gaussfield import BiasSpec, cov_g, kernel_g, sample_gauss
from charpolylab.hyperbolic import hyp_dist, pseudo_dist, ray_point
from charpolylab.momentlab import (LowerBoundParams, PairConfiguration,
                                   branch_depth, in_tube, lower_bound_mc,
                                   matching_subset_sup, mem_ratio, omega_grid,
                                   pair_config_validate,
                                   random_pair_configuration)
from oracles import branch_depth_pairs, depth_bins_pairs, matching_ratio


def test_lower_bound_params():
    p = LowerBoundParams(n=10, delta=0.2, eta=3)
    assert p.n0 == 8
    assert p.b == (0, 2, 4, 6)
    assert p.r == 3 and p.barrier_vacuous
    # b_r tracks 2 delta n to within one barrier step
    step = p.n0 // p.eta
    assert abs(p.b[p.r] - 2 * p.delta * p.n) <= step
    p4 = LowerBoundParams(n=10, delta=0.2, eta=4)
    assert p4.r == 3 and not p4.barrier_vacuous
    with pytest.raises(ValueError):
        LowerBoundParams(n=20, delta=0.2, eta=3)
    with pytest.raises(ValueError):
        LowerBoundParams(n=10, delta=0.6, eta=3)


def test_omega_grid():
    p = LowerBoundParams(n=10, delta=0.2, eta=3)
    om = omega_grid(p)
    assert om[len(om) // 2] == pytest.approx(1j, abs=1e-15)
    expected = 2 * math.ceil(p.n_eff ** -p.delta * math.exp(p.n0)) - 1
    assert abs(len(om) - expected) <= 1
    spacing = np.angle(om[1] / om[0])
    assert spacing == pytest.approx(math.exp(-p.n0), rel=1e-12)


def test_mem_ratio_empty(table_cache):
    assert mem_ratio(table_cache(8), BiasSpec()) == 1.0


def test_mem_ratio_uniform_over_rotations():
    # the comparison quality should not depend on which omega-translate of
    # the bias pair is used
    from charpolylab.orthopoly import OPTable
    N = 256
    table = OPTable(N)
    rr = 1.0 - N ** -0.5
    gap = 0.4 * N ** -0.5
    errs = []
    for phi in np.linspace(-0.8 * N ** -0.2, 0.8 * N ** -0.2, 16):
        w0 = 1j * np.exp(1j * phi)
        bias = BiasSpec(plus_points=(w0 * rr,),
                        minus_points=(w0 * rr * np.exp(1j * gap),))
        errs.append(abs(mem_ratio(table, bias) - 1.0))
    center = errs[len(errs) // 2]
    assert max(errs) <= 2.0 * max(center, 1e-4)


def test_matching_ratio_full_subsets(rng):
    config = random_pair_configuration(2, 1, 0.3, substream(5, 0))
    Z, W = config.Z, config.W
    val = matching_ratio(Z, W, Z, W)
    prod = 1.0
    for z in Z:
        for w in W:
            prod *= pseudo_dist(z, w)
    assert val == pytest.approx(prod, rel=1e-12)
    assert val <= 1.0


def test_matching_ratio_singletons():
    # the four subset choices: full/empty give d(z,w), mixed give empty
    # products throughout, hence 1
    z, w = 0.2, 0.5j
    d = pseudo_dist(z, w)
    assert matching_ratio([z], [w], [z], [w]) == pytest.approx(d, rel=1e-14)
    assert matching_ratio([z], [w], [], []) == pytest.approx(d, rel=1e-14)
    assert matching_ratio([z], [w], [z], []) == pytest.approx(1.0, rel=1e-14)
    assert matching_ratio([z], [w], [], [w]) == pytest.approx(1.0, rel=1e-14)


def test_matching_subset_sup_agrees_with_direct(rng):
    config = random_pair_configuration(1, 2, 0.3, substream(6, 0))
    Z, W = config.Z, config.W
    n = len(Z)
    best = 0.0
    for tmask in range(2 ** n):
        T = [Z[i] for i in range(n) if tmask >> i & 1]
        for smask in range(2 ** n):
            S = [W[i] for i in range(n) if smask >> i & 1]
            best = max(best, matching_ratio(Z, W, T, S))
    assert matching_subset_sup(config) == pytest.approx(best, rel=1e-10)


def _bitmask_subset_sup(config):
    """The subset sup as a loop over (T, S) bitmask pairs: the oracle for the
    mask-matrix form."""
    Z, W = config.Z, config.W
    n = len(Z)
    lzw = [[math.log(pseudo_dist(z, w)) for w in W] for z in Z]
    lzz = [[math.log(pseudo_dist(a, b)) if a != b else 0.0 for b in Z] for a in Z]
    lww = [[math.log(pseudo_dist(a, b)) if a != b else 0.0 for b in W] for a in W]
    best = -math.inf
    for tmask in range(2 ** n):
        tin = [i for i in range(n) if tmask >> i & 1]
        tout = [i for i in range(n) if not tmask >> i & 1]
        den_t = sum(lzz[i][j] for i in tin for j in tout)
        for smask in range(2 ** n):
            sin = [i for i in range(n) if smask >> i & 1]
            sout = [i for i in range(n) if not smask >> i & 1]
            num = sum(lzw[i][j] for i in tin for j in sin)
            num += sum(lzw[i][j] for i in tout for j in sout)
            den = den_t + sum(lww[i][j] for i in sin for j in sout)
            best = max(best, num - den)
    return math.exp(best)


@pytest.mark.parametrize("k,ell", [(k, n - k) for n in range(1, 6)
                                   for k in range(n + 1)])
def test_matching_subset_sup_matches_bitmask_loop(k, ell):
    for seed in range(4):
        config = random_pair_configuration(k, ell, 0.3, substream(60 + seed, k, ell))
        assert len(config.Z) == k + ell
        assert matching_subset_sup(config) == pytest.approx(
            _bitmask_subset_sup(config), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 2), ell=st.integers(0, 5), seed=st.integers(0, 2**31 - 1),
       epsilon=st.floats(0.1, 0.3))
def test_matching_subset_sup_property(k, ell, seed, epsilon):
    ell = min(ell, 5 - k)
    if k + ell == 0:
        k = 1
    config = random_pair_configuration(k, ell, epsilon, substream(seed, 0))
    sup = matching_subset_sup(config)
    assert sup == pytest.approx(_bitmask_subset_sup(config), rel=1e-12)
    # T = Z, S = W gives prod d(z, w) <= 1, so the sup is at least that
    assert sup >= matching_ratio(config.Z, config.W, config.Z, config.W) * (1 - 1e-12)


def test_pair_config_validate():
    # k = 0 with nested tight pairs: only the pairing condition matters
    cfg = PairConfiguration(pairs=[(0.1, 0.1 + 1e-4), (0.5j, 0.5j + 1e-4)],
                            ell_paired=2, epsilon=0.3)
    assert pair_config_validate(cfg)
    # epsilon-violating tail pair
    bad = PairConfiguration(pairs=[(0.1, 0.1 + 1e-3)], ell_paired=0, epsilon=0.3)
    assert not pair_config_validate(bad)
    # a tight pair's partner is its nearest point on both sides (a w, then a
    # z, closer than it), and separated pairs keep epsilon between their z's
    for pairs, ell in [([(0.1, 0.1 + 1e-3), (0.5j, 0.1 + 1e-4)], 1),
                       ([(0.1, 0.1 + 1e-3), (0.1 + 1e-4, 0.5j)], 1),
                       ([(0.5, -0.5), (0.51, 0.5j)], 0)]:
        cfg = PairConfiguration(pairs=pairs, ell_paired=ell, epsilon=0.3)
        assert not pair_config_validate(cfg), pairs


def test_coincident_tight_pair_rejected():
    # at epsilon = 1e-15 a tight pair's offset 0.05 epsilon (1 - |c|^2) rounds
    # away, so z == w, and the subset sup would take log d(z, w) = log 0
    same = PairConfiguration(pairs=[(0.6 + 0.2j, 0.6 + 0.2j)], ell_paired=1,
                             epsilon=1e-15)
    assert not pair_config_validate(same)
    with pytest.raises(RuntimeError, match=r"invalid configuration at epsilon=1e-15$"):
        random_pair_configuration(0, 1, 1e-15, substream(0, 0))


def test_pair_config_generator_roundtrip():
    gen = substream(9, 0)
    for _ in range(10):
        config = random_pair_configuration(2, 3, 0.3, gen)
        assert pair_config_validate(config)
        assert len(config.pairs) == 5


def test_branch_depth():
    n0 = 8
    depth = branch_depth([0.0, 1.0, math.exp(-3.0), math.exp(-20.0)], n0)
    assert depth.tolist() == [n0, 0, 3, n0]  # equal rays branch at the leaf
    # over the ray lattice the per-pair depth depends on the lag alone
    for n in range(8, 13):
        params = LowerBoundParams(n=n, delta=0.2, eta=3)
        omegas = omega_grid(params)
        m = len(omegas)
        by_lag = branch_depth(np.arange(m) * math.exp(-params.n0), params.n0)
        lags = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
        assert np.array_equal(by_lag[lags], branch_depth_pairs(omegas, params.n0)), n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 12), leaf_a=st.booleans(), leaf_b=st.booleans(),
       data=st.data())
def test_ray_cov_matches_cov_g_on_lattice(n, leaf_a, leaf_b, data):
    # the closed form by lag against cov_g at the lattice points, from one
    # ray i to every ray j.  cov_g rounds z conj(w) near 1: over every pair
    # the two differ by at most 3.9e-13 (n = 12, both at the leaf), and the
    # closed form is the one within 3.2e-16 of a 40-digit evaluation
    params = LowerBoundParams(n=n, delta=0.2, eta=3)
    omegas = omega_grid(params)
    m = len(omegas)
    ha, hb = (params.n0 if leaf else params.b[params.r] for leaf in (leaf_a, leaf_b))
    i = data.draw(st.integers(0, m - 1))
    lags = np.abs(np.arange(m) - i)
    closed = momentlab._ray_cov(ha, hb, lags * math.exp(-params.n0))
    direct = cov_g(omegas[i] * ray_point(ha), omegas * ray_point(hb))
    np.testing.assert_allclose(closed, direct, rtol=0, atol=1e-12)


def test_barrier_indicator_linear_profile():
    params = LowerBoundParams(n=10, delta=0.2, eta=4)
    omega = np.exp(1j * (math.pi / 2 + 0.01))
    ks = range(params.r + 1, params.eta + 1)
    # hyp_dist(0, .) is an exact linear profile along every ray
    barrier = np.array([hyp_dist(0.0, omega * ray_point(params.b[k])) for k in ks])
    ray_ref = np.array(hyp_dist(0.0, omega * ray_point(params.b[params.r])))
    center_ref = np.array(hyp_dist(0.0, 1j * ray_point(params.b[params.r])))
    assert in_tube(barrier, ray_ref, params)
    assert in_tube(barrier, center_ref, params)

    broken = barrier.copy()
    broken[-1] += 2.0 * params.tube_halfwidth()  # raised at b_eta
    assert not in_tube(broken, ray_ref, params)
    # rows are independent: only the broken one fails
    ok = in_tube(np.stack([barrier, broken]), np.stack([ray_ref, ray_ref]), params)
    assert ok.tolist() == [True, False]


def test_barrier_pass_rate_grows_with_eta():
    # under the biased law (mean shifted by mu = E[W(.) B_omega(W)]) the
    # tube constraint holds with probability -> 1 as eta grows
    kern = kernel_g()
    rates = []
    for eta in (4, 8):
        params = LowerBoundParams(n=12, delta=0.2, eta=eta)
        omega = np.exp(1j * (math.pi / 2 + 1e-3))
        pts = [omega * ray_point(params.n0), omega * ray_point(params.b[params.r])]
        barrier = [omega * ray_point(params.b[k])
                   for k in range(params.r + 1, params.eta + 1)]
        barrier = [p for p in barrier if all(abs(p - q) > 1e-15 for q in pts)]
        pts += barrier
        sample = sample_gauss(pts, kern, 4000, seed=13)
        mu = np.array([2.0 * (kern.cov(p, pts[0]) - kern.cov(p, pts[1]))
                       for p in pts])
        shifted = sample.values + mu
        ok = np.ones(len(shifted), dtype=bool)
        half = params.tube_halfwidth()
        for i in range(len(barrier)):
            k = params.r + 1 + i
            dev = shifted[:, 2 + i] - shifted[:, 1] - (params.b[k] - params.b[params.r])
            ok &= np.abs(dev) <= half
        rates.append(ok.mean())
    assert rates[-1] >= 0.9
    assert rates[-1] >= rates[0] - 0.05


def test_lower_bound_mc_small():
    params = LowerBoundParams(n=8, delta=0.2, eta=3)
    res, _ = lower_bound_mc(params, 120, seed=3)
    err = 2.0 * math.hypot(res.p_z_se, res.cs_ratio_se)
    assert res.p_z_positive >= res.cs_ratio - err
    assert res.cs_ratio <= 1.0 + 1e-12
    assert res.n_omega == len(omega_grid(params))
    doc = asdict(res)
    assert set(doc) >= {"n", "delta", "eta", "p_z_positive", "cs_ratio",
                        "per_m_bins"}


def test_lower_bound_mc_deterministic():
    params = LowerBoundParams(n=8, delta=0.2, eta=3)
    a = lower_bound_mc(params, 60, seed=5)
    b = lower_bound_mc(params, 60, seed=5)
    assert (asdict(a[0]), a[1]) == (asdict(b[0]), b[1])


def test_lower_bound_mc_runs_on_one_blas_thread(monkeypatch):
    # the sampling and the two-point table see a BLAS pool of 1, and the
    # caller's pool (here 2) is back afterwards, also after a failure
    get = _lapack._bind("scipy_openblas_get_num_threads64_")
    set_pool = _lapack._bind("scipy_openblas_set_num_threads64_")
    seen = []

    def spy(name, fail=False):
        real = getattr(momentlab, name)

        def call(*args):
            seen.append((name, get()))
            if fail:
                raise np.linalg.LinAlgError(name)
            return real(*args)
        return call
    params = LowerBoundParams(n=4, delta=0.2, eta=1)
    caller = get()
    set_pool(2)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(momentlab, "sample_gauss", spy("sample_gauss"))
            patch.setattr(momentlab, "_depth_bins", spy("_depth_bins"))
            lower_bound_mc(params, 5, 1)
            assert seen == [("sample_gauss", 1), ("_depth_bins", 1)] and get() == 2
            patch.setattr(momentlab, "sample_gauss", spy("sample_gauss", fail=True))
            with pytest.raises(np.linalg.LinAlgError):
                lower_bound_mc(params, 5, 1)
            assert get() == 2
    finally:
        set_pool(caller)


def test_depth_bins_match_triangle_loop(monkeypatch):
    # the table by lag against the m x m tables and triangle loop it
    # replaced, fed the same Y: the other fields are the same bits, the bins
    # the same depths and pair counts, and the ratios move only by rounding
    # (at most 2.3e-13 relative over seeds 1-6 at n = 8, 9, 10 and 500
    # samples, in lemma_bound_constant through the per-pair kernel's error)
    for n, seed in ((8, 5), (9, 2)):
        params = LowerBoundParams(n=n, delta=0.2, eta=3)
        doc = asdict(lower_bound_mc(params, 60, seed)[0])
        with monkeypatch.context() as patch:
            patch.setattr(momentlab, "_depth_bins",
                          lambda Y, ey, *_: depth_bins_pairs(Y, ey, params))
            ref = asdict(lower_bound_mc(params, 60, seed)[0])
        bins, ref_bins = doc.pop("per_m_bins"), ref.pop("per_m_bins")
        assert doc == ref
        assert len(bins) > 2
        assert [(b["m"], b["n_pairs"]) for b in bins] == \
            [(b["m"], b["n_pairs"]) for b in ref_bins]
        for b, r in zip(bins, ref_bins):
            for key in ("factorization_ratio", "exact_pair_over_product",
                        "lemma_bound_constant"):
                assert b[key] == pytest.approx(r[key], rel=1e-11, abs=0), key
