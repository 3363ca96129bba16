"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion is pinned at its stated tolerance.  Heavy artifacts (the
law-of-large-numbers sweep) are shared across criteria through module-scope
fixtures.  Master seeds are fixed, so every number here is reproducible.
"""

import math
import os
import time

import numpy as np
import pytest

from charpolylab._rng import substream, task_seed
from charpolylab import cli
from charpolylab.charpoly import (exp_pm2_moment, fs_balanced, laplace_split,
                                  mc_char_ratio, vandermonde_det)
from charpolylab.ensemble import SUPPORT, g, rho, stieltjes
from charpolylab.extremes import cheb_grid, factor14_check, max_experiment
from charpolylab.gaussfield import (BiasSpec, bias_variance, exp_moment_g,
                                    kernel_g, sample_gauss)
from charpolylab.hyperbolic import branch_profile_grid, pseudo_dist
from charpolylab.momentlab import (LowerBoundParams, lower_bound_mc,
                                   matching_subset_sup, mem_ratio,
                                   random_pair_configuration)
from charpolylab.orthopoly import (OPTable, global_parametrix_onecut, m_matrix,
                                   r_weight, y_matrix)

from bytediff import SMALL_RUNS, run_outputs
from oracles import ell_v_profile, quad_g_tilde

SEED = 20260808


def _report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def lln_runs():
    runs = {}
    for N in (256, 1024, 4096):
        t0 = time.time()
        columns, summary = max_experiment(N, 200, None, seed=SEED, threads=2)
        runs[N] = (columns, summary, time.time() - t0)
    return runs


def test_criterion_1_lln_trend(lln_runs):
    medians = {N: lln_runs[N][1]["ratio_quartiles"][1] for N in lln_runs}
    second = lln_runs[4096][1]["second_order_quartiles"][1]
    elapsed = sum(v[2] for v in lln_runs.values())
    in_band = all(0.55 <= m <= 1.1 for m in medians.values())
    nondecr = medians[256] <= medians[1024] <= medians[4096]
    centered = -3.0 <= second <= 4.0
    ok = in_band and nondecr and centered
    _report(1, "LLN trend", ok,
            f"medians {medians[256]:.4f} <= {medians[1024]:.4f} <= "
            f"{medians[4096]:.4f} in [0.55, 1.1]; 2nd-order median {second:.3f} "
            f"in [-3, 4]; elapsed {elapsed:.0f}s")
    assert ok


def test_criterion_2_upper_bound(lln_runs):
    m_star = lln_runs[1024][0]["m_star"]
    thresh = math.log(1024) + 3.0 * math.log(math.log(1024))
    frac = np.mean(m_star > thresh)
    ok = frac < 0.05
    _report(2, "upper-bound tail", ok,
            f"fraction above log N + 3 log log N = {frac:.3f} < 0.05 "
            f"(threshold {thresh:.2f}, 200 samples at N=1024)")
    assert ok


def test_criterion_3_fs_oracle():
    t0 = time.time()
    cases = [(4, (0.3 + 0.4j,), (-0.2 + 0.5j,)),
             (4, (-0.35 + 0.45j,), (0.25 + 0.6j,)),
             (6, (0.3 + 0.4j,), (-0.2 + 0.5j,)),
             (6, (-0.35 + 0.45j,), (0.25 + 0.6j,))]
    zs = []
    for i, (N, p, q) in enumerate(cases):
        table = OPTable(N)
        f = fs_balanced(table, p, q)
        mc, se = mc_char_ratio(N, p, q, 1_000_000, task_seed(SEED, 100 + i))
        zs.append(abs(mc - f) / se)
    elapsed = time.time() - t0
    ok = all(z <= 3.0 for z in zs)
    _report(3, "Fyodorov-Strahov oracle", ok,
            f"|z| scores {['%.2f' % z for z in zs]} all <= 3 at 1e6 samples; "
            f"elapsed {elapsed:.0f}s (< 2 min expected)")
    assert ok


def test_criterion_4_determinant_suite():
    rng = substream(SEED, 4)
    worst_det = 0.0
    for _ in range(100):
        N = int(rng.integers(2, 65))
        q = complex(rng.uniform(-1.5, 1.5),
                    rng.choice([-1, 1]) * rng.uniform(0.05, 1.0))
        table = OPTable(N)
        worst_det = max(worst_det,
                        abs(y_matrix(table, q).det - 1.0),
                        abs(m_matrix(table, q).det - 1.0),
                        abs(global_parametrix_onecut(q).det - 1.0))
    worst_split = 0.0
    for _ in range(100):
        ell = int(rng.integers(1, 4))
        A, B, C, D = (rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
                      for _ in range(4))
        p = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        q2 = rng.standard_normal(ell) + 1j * rng.standard_normal(ell)
        split = laplace_split(A, B, C, D, p, q2)
        V = lambda pts: np.vander(np.asarray(pts), ell, increasing=True)
        top = np.hstack([np.diag(A) @ V(q2), np.diag(B) @ V(q2)])
        bot = np.hstack([np.diag(C) @ V(p), np.diag(D) @ V(p)])
        direct = np.linalg.det(np.vstack([top, bot]))
        denom = max(abs(direct), 1e-30)
        worst_split = max(worst_split, abs(split - direct) / denom)
    table8 = OPTable(8)
    pts = [0.3 + 0.5j, -0.2 + 0.6j, 0.1 - 0.7j]
    worst_unity = max(abs(fs_balanced(table8, pts[:l], pts[:l]) - 1.0)
                      for l in (1, 2, 3))
    ok = worst_det < 1e-9 and worst_split < 1e-10 and worst_unity < 1e-9
    _report(4, "determinant identities", ok,
            f"max |det-1| = {worst_det:.2e} (< 1e-9, 100 instances N<=64); "
            f"max split residual = {worst_split:.2e} (< 1e-10); "
            f"max |fs(p=q)-1| = {worst_unity:.2e} (< 1e-9)")
    assert ok


def test_criterion_5_gaussian_moments():
    rng = substream(SEED, 5)
    worst = 0.0
    done = 0
    while done < 100:
        npts = int(rng.integers(2, 9))
        nplus = int(rng.integers(1, npts))
        r = 0.9 * np.sqrt(rng.random(npts))
        pts = r * np.exp(2j * math.pi * rng.random(npts))
        if any(pseudo_dist(a, b) < 0.05
               for i, a in enumerate(pts) for b in pts[i + 1:]):
            continue
        bias = BiasSpec(plus_points=tuple(pts[:nplus]),
                        minus_points=tuple(pts[nplus:]))
        lhs = exp_moment_g(bias)
        rhs = math.exp(0.5 * bias_variance(bias, kernel_g()))
        worst = max(worst, abs(lhs - rhs) / rhs)
        done += 1
    r = 0.85 * np.sqrt(rng.random(20))
    pts20 = r * np.exp(2j * math.pi * rng.random(20))
    n = 200_000
    sample = sample_gauss(pts20, kernel_g(), n, seed=task_seed(SEED, 5))
    emp = np.cov(sample.values.T, bias=True)
    kern = kernel_g().matrix(pts20)
    se = np.sqrt((np.outer(np.diag(kern), np.diag(kern)) + kern ** 2) / n)
    max_dev = float((np.abs(emp - kern) / se).max())
    ok = worst < 1e-10 and max_dev <= 4.0
    _report(5, "Gaussian moment engine", ok,
            f"product vs exp(Var/2): max rel dev {worst:.2e} (< 1e-10, 100 "
            f"biases); sampled covariance max |z| = {max_dev:.2f} (<= 4, "
            f"20 points, 2e5 samples)")
    assert ok


def test_criterion_6_mem_ratio():
    t0 = time.time()
    errs = []
    for N in (64, 128, 256, 512):
        rr = 1.0 - N ** -0.5
        bias = BiasSpec(plus_points=(1j * rr,),
                        minus_points=(1j * rr * np.exp(1j * 0.4 * N ** -0.5),))
        table = OPTable(N)
        errs.append(abs(mem_ratio(table, bias) - 1.0))
    elapsed = time.time() - t0
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] < 0.25
    _report(6, "MEM ratio trend", ok,
            f"|ratio-1| = {['%.2e' % e for e in errs]} strictly decreasing, "
            f"final < 0.25; elapsed {elapsed:.0f}s (< 5 min expected)")
    assert ok


def test_criterion_7_branch_geometry():
    thetas = np.linspace(-math.pi, math.pi, 10001)[1:-1]
    max_abs = 0.0
    max_c = 0.0
    for h in range(26):
        for j in range(26):
            errors, refined = branch_profile_grid(h, j, thetas)
            max_abs = max(max_abs, float(np.abs(errors).max()))
            max_c = max(max_c, float(refined.max()))
    ok = max_abs <= 1.0 and max_c <= 10.0
    _report(7, "branching geometry", ok,
            f"max |error| = {max_abs:.4f} (calibrated bound 1.0); refined "
            f"constant C = {max_c:.3f} <= 10 over h,j <= 25, 1e4 theta grid")
    assert ok


def test_criterion_8_chebyshev_factor():
    rng = substream(SEED, 8)
    worst = 0.0
    count = 0
    for _ in range(400):
        deg = int(rng.integers(1, 257))
        roots = rng.uniform(-1, 1, deg)
        worst = max(worst, factor14_check(deg, roots=roots)["max_ratio"])
        count += 1
    for _ in range(300):
        deg = 2 * int(rng.integers(1, 129))
        half = (rng.uniform(-1.05, 1.05, deg // 2)
                + 1j * rng.uniform(0.0, 0.2, deg // 2))
        roots = np.concatenate([half, np.conj(half)])
        worst = max(worst, factor14_check(deg, roots=roots)["max_ratio"])
        count += 1
    for _ in range(300):
        deg = int(rng.integers(1, 257))
        coeffs = rng.standard_normal(deg + 1)
        coeffs[-1] = coeffs[-1] if coeffs[-1] != 0 else 1.0
        worst = max(worst, factor14_check(deg, cheb_coeffs=coeffs)["max_ratio"])
        count += 1
    for deg in (16, 64, 256):  # pure Chebyshev oscillation
        coeffs = np.zeros(deg + 1)
        coeffs[-1] = 1.0
        worst = max(worst, factor14_check(deg, cheb_coeffs=coeffs)["max_ratio"])
        count += 1
    ok = worst <= 14.0
    _report(8, "Chebyshev grid factor", ok,
            f"max sup ratio = {worst:.4f} <= 14 over {count} polynomials "
            f"(degrees <= 256), zero violations")
    assert ok


def test_criterion_9_equilibrium():
    xs, vals = ell_v_profile(lambda x: quad_g_tilde(rho, SUPPORT, x))
    std = vals.std()
    err = abs(vals.mean() - (-1.0 - 2.0 * math.log(2.0)))
    rng = substream(SEED, 9)
    worst_fd = 0.0
    for _ in range(20):
        q = complex(rng.uniform(-1.5, 1.5), rng.choice([-1, 1]) * rng.uniform(0.3, 1.2))
        h = 1e-6
        fd = (g(q + h) - g(q - h)) / (2.0 * h)
        worst_fd = max(worst_fd, abs(fd - stieltjes(q)) / abs(stieltjes(q)))
    ok = std < 1e-8 and err < 1e-8 and worst_fd < 1e-6
    _report(9, "equilibrium self-consistency", ok,
            f"ell_V std (quadrature) = {std:.2e} < 1e-8, value error {err:.2e} "
            f"< 1e-8; max g'-vs-Stieltjes rel dev {worst_fd:.2e} < 1e-6 at 20 q")
    assert ok


def test_criterion_10_matching_lemma():
    gen = substream(SEED, 10)
    sups = []
    for _ in range(1000):
        k = int(gen.integers(0, 3))
        ell = int(gen.integers(0, 6 - k))
        if k + ell == 0:
            k = 1
        config = random_pair_configuration(k, ell, 0.3, gen)
        sups.append(matching_subset_sup(config))
    sups = np.array(sups)
    first = sups[:500].max()
    full = sups.max()
    ok = bool(np.isfinite(full)) and full <= 2.0 * first
    _report(10, "matching lemma", ok,
            f"subset sup over 1000 configs: first-half {first:.3f}, "
            f"full {full:.3f} (finite, full <= 2 x first-half)")
    assert ok


def test_criterion_11_laplace_bound():
    table = OPTable(64)
    c_emp = 0.0
    for x in (-0.8, -0.4, 0.0, 0.3, 0.6, 0.9):
        for im in (1.0 / 64, 0.05, 0.2, 0.5, 1.0):
            q = x + 1j * im
            for sign in (+1, -1):
                v = exp_pm2_moment(table, q, sign)
                c_emp = max(c_emp, v * im / ((1.0 + im) * r_weight(q) ** 2))
    ok = c_emp <= 100.0
    _report(11, "Laplace-transform bound", ok,
            f"sup of E e^(+-2Q) |Im q| / ((1+|Im q|) R^2) = {c_emp:.3f} <= 100 "
            f"over the N=64 grid")
    assert ok


def test_criterion_12_lower_bound_simulator():
    params = LowerBoundParams(n=10, delta=0.2, eta=3)
    res, _ = lower_bound_mc(params, 500, seed=SEED)
    err = 2.0 * math.hypot(res.p_z_se, res.cs_ratio_se)
    cs_ok = res.p_z_positive >= res.cs_ratio - err
    max_ok = res.bias_max_exceed_frac >= 0.5
    br = params.b[params.r]
    small = [b for b in res.per_m_bins if b["m"] <= 0.75 * br]
    fact_ok = bool(small) and all(abs(b["factorization_ratio"] - 1.0) <= 0.3
                                  for b in small)
    ok = cs_ok and max_ok and fact_ok
    _report(12, "lower-bound simulator", ok,
            f"P[Z>0] = {res.p_z_positive:.3f} >= cs {res.cs_ratio:.3f} - 2SE; "
            f"doubled-bias max exceed frac {res.bias_max_exceed_frac:.3f} >= 0.5 "
            f"(plain field-increment reading: {res.field_max_exceed_frac:.3f}, "
            f"reported in the result record); small-m factorization devs "
            f"{['%.3f' % abs(b['factorization_ratio'] - 1) for b in small]} <= 0.3")
    assert ok


def _out_ext(cmd):
    return ".json" if cmd in ("lowerbound-sim", "upperbound-verify",
                              "brw-verify") else ".csv"


def test_criterion_13_reproducibility(tmp_path):
    pairs = []
    for cmd, args in SMALL_RUNS.items():
        ext = _out_ext(cmd)
        p1 = tmp_path / f"{cmd}-1{ext}"
        p2 = tmp_path / f"{cmd}-2{ext}"
        threads1 = ["--threads", "1"]
        threads2 = ["--threads", "2"] if cmd in ("max-experiment",
                                                 "upperbound-verify") else threads1
        assert cli.main([cmd] + args + threads1 + ["--out", str(p1)]) == 0
        assert cli.main([cmd] + args + threads2 + ["--out", str(p2)]) == 0
        same = p1.read_bytes() == p2.read_bytes()
        for side in (".json", ".summary.json"):
            s1, s2 = (str(p1) + side), (str(p2) + side)
            if os.path.exists(s1):
                same = same and open(s1, "rb").read() == open(s2, "rb").read()
        pairs.append((cmd, same))
    ok = all(flag for _, flag in pairs)
    _report(13, "reproducibility", ok,
            "; ".join(f"{name}: {'identical' if flag else 'DIFFER'}"
                      for name, flag in pairs))
    assert ok


def test_blas_pool_size_moves_no_output():
    # every command's files, stdout, stderr and exit code are the same for a
    # BLAS pool of 1 and of 2: lowerbound-sim, whose covariance factor and
    # the products that apply it run in BLAS, sets the pool to 1 around them
    argvs = [[cmd] + args + ["--out", "out"] for cmd, args in SMALL_RUNS.items()]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = [run_outputs(src, argvs, {"OPENBLAS_NUM_THREADS": pool}) for pool in ("1", "2")]
    assert [r["code"] for r in outputs[0]] == [0] * len(argvs)
    # gen-spectrum and max-experiment each write a second file
    assert sum(len(r["files"]) for r in outputs[0]) == len(argvs) + 2
    assert outputs[0] == outputs[1]
