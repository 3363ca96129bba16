"""Reference implementations, scalar or Monte Carlo, that the tests compare
the package's vectorized or closed-form routes against.  Nothing under src/
calls them."""

import cmath
import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.linalg import lapack

from charpolylab._rng import substream
from charpolylab.charpoly import _batched_mean
from charpolylab.ensemble import (SUPPORT, V, char_poly, g, g_tilde,
                                  recurrence_coeffs, tridiagonal_draw)
from charpolylab.extremes import _golden_max_vec, cheb_grid
from charpolylab.gaussfield import cov_g
from charpolylab.hyperbolic import joukowsky, pseudo_dist, ray_point
from charpolylab.momentlab import omega_grid
from charpolylab.orthopoly import (_FORWARD_GAP_MAX, _a2, _dominance_gaps,
                                   _forward, _ldexp, _rescale, _start_index,
                                   h0_closed)


def _quad(rho, support, f, sing=math.nan):
    """integral of f(u) rho(u) du over the support by adaptive quadrature,
    for a real f, with a breakpoint at sing (if given) where f is not smooth."""
    cos, sin = math.cos, math.sin
    total = 0.0
    for a, b in support:
        # u = mid + hw*cos(phi) absorbs the square-root edge factor
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)

        def integrand(phi):
            u = mid + hw * cos(phi)
            return f(u) * rho(u) * hw * sin(phi)

        points = ([math.acos(min(1.0, max(-1.0, (sing - mid) / hw)))]
                  if a < sing < b else None)
        val, _ = integrate.quad(integrand, 0.0, math.pi, points=points,
                                limit=200, epsabs=1e-13, epsrel=1e-13)
        total += val
    return total


def quad_g_tilde(rho, support, x):
    """-integral of log|x-u| rho(u) du by quadrature (a node at u = x adds 0),
    the oracle for ensemble.g_tilde."""
    return -_quad(rho, support, lambda u: math.log(abs(x - u) or 1.0), sing=x)


def ell_v_profile(log_potential):
    """ell_V(x) = -2 log_potential(x) - V(x) on 101 points of each interval
    of ensemble.SUPPORT, 2% in from its ends, one scalar call per point:
    flat, at the Euler-Lagrange constant, when log_potential is the g_tilde
    of V's equilibrium density."""
    xs = []
    for a, b in SUPPORT:
        pad = 0.02 * (b - a)
        xs.append(np.linspace(a + pad, b - pad, 101))
    xs = np.concatenate(xs)
    return xs, np.array([-2.0 * log_potential(x) - V(x) for x in xs])


def h0_quadrature(N, q):
    """h_0(q) = (2 pi i)^{-1} integral of e^{-N V(x)}/(x-q) dx by quadrature,
    the oracle for orthopoly.h0_closed.

    The window [-L, L] holds all of e^{-N V} above e^{-750} for V = 2x^2.
    """
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Cauchy transform undefined on the real axis")
    L = math.sqrt(375.0 / N) + 1.0
    pts = [q.real] if -L < q.real < L else None

    def f(x):
        return math.exp(-N * V(x)) / (x - q)

    re, _ = integrate.quad(lambda x: f(x).real, -L, L, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    im, _ = integrate.quad(lambda x: f(x).imag, -L, L, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    return (re + 1j * im) / (2j * math.pi)


def quad_g(rho, support, q):
    """integral of log(q-u) rho(u) du (principal branch) by quadrature."""
    return (_quad(rho, support, lambda u: math.log(abs(q - u)))
            + 1j * _quad(rho, support, lambda u: cmath.phase(q - u)))


def quad_stieltjes(rho, support, q):
    """integral of rho(u) du / (q-u) by quadrature, with
    1/(q-u) = (x-u - iy) / ((x-u)^2 + y^2) for q = x + iy; the imaginary
    part is integrated only off the real axis."""
    x, y = q.real, q.imag
    y2 = y * y

    def re(u):
        d = x - u
        return d / (d * d + y2)

    val = complex(_quad(rho, support, re))
    if y != 0.0:
        val -= 1j * y * _quad(rho, support, lambda u: 1.0 / ((x - u) ** 2 + y2))
    return val


def field_q(spectrum, q):
    """Q(q) = sum log|q - lambda_i| - N * Re g(q) by the eigenvalue route.

    On the real axis the centering uses the log-potential -g_tilde (valid on
    and off the support); off the axis it uses Re g.  An eigenvalue hit
    yields -inf.
    """
    q = complex(q)
    with np.errstate(divide="ignore"):
        logsum = float(np.log(np.abs(q - spectrum.eigenvalues)).sum())
    center = -g_tilde(q.real) if q.imag == 0.0 else g(q).real
    return logsum - spectrum.N * center


def factor14_unpruned(N, roots=None, cheb_coeffs=None):
    """Dense-to-Chebyshev-grid sup ratio of |P| with every interior grid peak
    polished, the grid evaluated on its own and roots taken as complex: the
    oracle for extremes.factor14_check.  Returns max_ratio only, unchecked
    against 14.
    """
    if roots is not None:
        roots = np.asarray(roots, dtype=complex)

        def log_abs(x):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(x[:, None] - roots[None, :])).sum(axis=1)
    else:
        def log_abs(x):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(np.polynomial.chebyshev.chebval(x, cheb_coeffs)))

    grid_max = log_abs(cheb_grid(N)).max()
    dense = np.cos(np.pi * np.arange(8 * N + 1) / (8 * N))[::-1]
    vals = log_abs(dense)
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    dense_max = vals.max()
    if len(interior):
        peak_max = _golden_max_vec(log_abs, dense[interior - 1], dense[interior + 1])
        dense_max = max(dense_max, peak_max.max())
    return math.exp(dense_max - grid_max)


def mobius_to_zero(y, z):
    """Disk automorphism sending y to 0, evaluated at z: (z-y)/(1-z*conj(y))."""
    for p in (y, z):
        if abs(p) >= 1.0:
            raise ValueError(f"point {p} not in the open unit disk")
    return (z - y) / (1.0 - z * np.conj(y))


def branch_profile(h, j, theta):
    """Exact vs branching approximation of d(zeta_h, e^{i theta} zeta_j), one
    theta at a time: the oracle for hyperbolic.branch_profile_grid.

    exact  -- hyperbolic law of cosines with side lengths h and j and angle
              theta between them
    approx -- h + j - 2*min(-log|sin(theta/2)|, h, j)
    error  -- exact - approx
    """
    if h < 0 or j < 0:
        raise ValueError("ray indices must be nonnegative")
    h = float(h)
    j = float(j)
    cos_t = math.cos(theta)
    cosh_a = 0.5 * math.cosh(h + j) * (1.0 - cos_t) + 0.5 * math.cosh(h - j) * (1.0 + cos_t)
    # rounding can push cosh_a a hair below 1 for tiny h, j
    exact = math.acosh(max(cosh_a, 1.0))
    s = abs(math.sin(theta / 2.0))
    log_term = math.inf if s == 0.0 else -math.log(s)
    approx = h + j - 2.0 * min(log_term, h, j)
    return {"exact": exact, "approx": approx, "error": exact - approx}


def branch_profile_row(h, j, thetas):
    """hyperbolic.branch_profile_grid for one (h, j) pair, with every term
    computed in that pair's own scalar and array operations: the bitwise
    reference for the broadcast row blocks."""
    thetas = np.asarray(thetas, dtype=float)
    h = float(h)
    j = float(j)
    cos_t = np.cos(thetas)
    cosh_a = 0.5 * math.cosh(h + j) * (1.0 - cos_t) + 0.5 * math.cosh(h - j) * (1.0 + cos_t)
    exact = np.arccosh(np.maximum(cosh_a, 1.0))
    s = np.abs(np.sin(thetas / 2.0))
    with np.errstate(divide="ignore"):
        log_term = np.where(s > 0.0, -np.log(np.maximum(s, 1e-300)), np.inf)
    approx = h + j - 2.0 * np.minimum(log_term, min(h, j))
    errors = exact - approx
    k = min(h, j)
    in_regime = (s > 0.0) & (k > log_term)
    refined = np.where(in_regime, np.abs(errors) * math.exp(k) * np.abs(thetas), 0.0)
    return errors, refined


def brw_check_pairs(grid, kernel):
    """gaussfield.brw_check as a double loop over ordered pairs, with each
    distance a scalar 2 atanh(pseudo_dist): the reference for its pair
    tables."""
    pts = np.asarray(grid, dtype=complex)
    n = len(pts)
    cov = kernel.matrix(pts)
    h = np.array([2.0 * math.atanh(pseudo_dist(0.0, z)) for z in pts])
    theta = np.angle(pts)

    c_b = 0.0
    c_c = 0.0
    offsets = []
    for i in range(n):
        for k in range(n):
            if i == k:
                continue  # 0/0 pair excluded
            d = 2.0 * math.atanh(pseudo_dist(pts[i], pts[k]))
            if 0.0 < d <= 1.0:
                var = cov[i, i] + cov[k, k] - 2.0 * cov[i, k]
                c_b = max(c_b, var / d**2)
                cross = np.abs(cov[:, i] - cov[:, k]).max()
                c_c = max(c_c, cross / d)
            s = abs(math.sin((theta[i] - theta[k]) / 2.0))
            log_term = math.inf if s == 0.0 else -math.log(s)
            main = 0.5 * min(log_term, h[i], h[k])
            offsets.append(cov[i, k] - main)
    offsets = np.array(offsets)
    return {
        "c_b": float(c_b),
        "c_c": float(c_c),
        "k_offset_range": (float(offsets.min()), float(offsets.max())),
    }


def _pseudo_product(A, B):
    out = 1.0
    for a in A:
        for b in B:
            d = pseudo_dist(a, b)
            if d == 0.0:
                raise ValueError("coincident points in a matching product")
            out *= d
    return out


def matching_ratio(Z, W, T, S):
    """L(T, S) = d(T,S) d(T*,S*) / (d(T,T*) d(S,S*)) in pseudo distances, the
    functional whose subset sup momentlab.matching_subset_sup computes.

    T* and S* are the complements within Z and W; empty products are 1.
    """
    Z = [complex(z) for z in Z]
    W = [complex(w) for w in W]
    T = [complex(t) for t in T]
    S = [complex(s) for s in S]
    Tc = [z for z in Z if z not in T]
    Sc = [w for w in W if w not in S]
    num = _pseudo_product(T, S) * _pseudo_product(Tc, Sc)
    den = _pseudo_product(T, Tc) * _pseudo_product(S, Sc)
    return num / den


def _mp_forward(y0, y1, x, N, n):
    """y_0 .. y_n of y_{k+1} = x y_k - (k/4N) y_{k-1} at mpmath's precision."""
    ys = [y0, y1]
    for k in range(1, n):
        ys.append(x * ys[k] - mpmath.mpf(k) / (4 * N) * ys[k - 1])
    return ys[:n + 1]


def _mp_dps(N, n, q):
    """40 digits plus the digits the forward h recurrence loses to its summed
    dominance gap log|r_+ / r_-| over steps 1 .. n-1."""
    with mpmath.workdps(30):
        q = mpmath.mpc(q)
        gap = 0
        for k in range(1, n):
            a = mpmath.mpf(k) / (4 * N)
            s = mpmath.sqrt(q * q - 4 * a)
            gap += 2 * mpmath.log(max(abs(q + s), abs(q - s)) / 2) - mpmath.log(a)
    return 40 + int(gap / 2.3) + 1


def mp_faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz) for Im z > 0 at mpmath's working precision.

    From Im z >= 4 on, by Laplace's continued fraction
    w(z) = (i/sqrt(pi)) / (z - a_1/(z - a_2/(z - ...))), a_k = k/2, run
    backward from a fixed depth; far from the axis that is much faster than
    erfc at thousands of digits.  The depth is where the increments of the
    convergents, prod_{k<=n} a_k / (B_n B_{n+1}) with B the convergents'
    denominators (B_0 = 1, B_1 = z, B_{k+1} = z B_k - a_k B_{k-1}), fall
    below the working precision relative to w ~ 1/z, plus a margin; the
    B_n run at 30 digits, since only their magnitudes count.  Nearer the
    axis, erfc.
    """
    z = mpmath.mpc(z)
    if z.imag < 4:
        return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)
    log_tol = (8 - mpmath.mp.prec) * mpmath.log(2)
    with mpmath.workdps(30):
        zl = mpmath.mpc(z)
        b_prev, b, log_a, n = mpmath.mpc(1), zl, mpmath.mpf(0), 0
        while log_a - mpmath.log(abs(b_prev * b / zl)) > log_tol:
            n += 1
            b_prev, b = b, zl * b - mpmath.mpf(n) / 2 * b_prev
            log_a += mpmath.log(mpmath.mpf(n) / 2)
    t = mpmath.mpc(0)
    for k in range(n + n // 8 + 8, 0, -1):
        t = mpmath.mpf(k) / 2 / (z - t)
    return 1j / mpmath.sqrt(mpmath.pi) / (z - t)


def mp_chains(N, n, x, q):
    """pi_0 .. pi_n at x, h_0 .. h_n at q (Im q > 0) and gamma_{n-1}^2 by the
    forward recurrences in mpmath, with h_0 = w(sqrt(2N) q)/2: the
    oracle for orthopoly's chains and for the determinants built from them.
    h runs with _mp_dps digits; pi, the dominant solution, with 40."""
    if complex(q).imag <= 0.0:
        raise ValueError("oracle written for the upper half-plane")
    with mpmath.workdps(40):
        x = mpmath.mpc(x)
        pis = _mp_forward(mpmath.mpf(1), x, x, N, n)
        gamma_sq = mpmath.sqrt(2 * N / mpmath.pi) \
            * mpmath.fprod(mpmath.mpf(4 * N) / k for k in range(1, n))
    with mpmath.workdps(_mp_dps(N, n, q)):
        q = mpmath.mpc(q)
        z = mpmath.sqrt(2 * N) * q
        h0 = mp_faddeeva(z) / 2
        h1 = q * h0 + 1 / (mpmath.sqrt(2 * N / mpmath.pi) * 2j * mpmath.pi)
        hs = _mp_forward(h0, h1, q, N, n)
    return pis, hs, gamma_sq


def h_chain_per_step(table, n, q):
    """orthopoly._h_chain with its backward run rescaled at every step, as it
    was before it rescaled every _RESCALE steps; the oracle for its (m, e)."""
    q = complex(q)
    h0 = complex(h0_closed(table, q))
    N = table.N
    if _dominance_gaps(N, np.arange(1, n), q).sum() <= _FORWARD_GAP_MAX:
        return _forward(h0, q * h0 + table.gamma0 ** -2 / (2j * math.pi), q, N, n)
    ms, es = [], []
    nxt, cur, e = 0j, 1.0 + 0j, 0
    for k in range(_start_index(N, n, q), 0, -1):
        nxt, cur, s = _rescale(cur, (q * cur - nxt) / _a2(N, k))
        e += s
        if k <= n + 1:
            ms.append(cur)
            es.append(e)
    m, e = np.array(ms[::-1]), np.array(es[::-1], dtype=np.int64)
    return h0 / m[0] * m, e - e[0]


def mp_fs_balanced(N, p, q):
    """fs_balanced for l = 1: -2 pi i gamma_{N-1}^2 (h_{N-1}(q) pi_N(p)
    - h_N(q) pi_{N-1}(p)), as a Python complex."""
    pis, hs, gamma_sq = mp_chains(N, N, p, q)
    with mpmath.workdps(40):
        t = -2j * mpmath.pi * gamma_sq
        return complex(t * (hs[N - 1] * pis[N] - hs[N] * pis[N - 1]))


def mc_char_ratio_oneshot(N, p_pts, q_pts, n_samples, seed, rows):
    """charpoly.mc_char_ratio in blocks of `rows` draws, block j drawn whole
    from substream(seed, j) and each side's determinants multiplied by
    np.prod: the oracle for its block loop."""
    ps = np.array(p_pts, dtype=complex)
    one_case = ps.ndim == 1
    ps = np.atleast_2d(ps)
    n = ps.shape[1]
    xs = np.concatenate([ps, np.atleast_2d(np.array(q_pts, dtype=complex))],
                        axis=1)[..., None]
    vals = np.empty((len(xs), n_samples), dtype=complex)
    for j, lo in enumerate(range(0, n_samples, rows)):
        d, e = tridiagonal_draw(N, substream(seed, j),
                                size=(min(rows, n_samples - lo),))
        dets, exps = char_poly(*recurrence_coeffs(d, e), xs)
        vals[:, lo:lo + len(d)] = _ldexp(
            np.prod(dets[:, :n], axis=1) / np.prod(dets[:, n:], axis=1),
            exps[:, :n].sum(axis=1) - exps[:, n:].sum(axis=1))
    out = [_batched_mean(v) for v in vals]
    return out[0] if one_case else out


def _mc_dets(N, xs, n_samples, seed, chunk):
    """det(x - A) at xs over n_samples tridiagonal draws, in chunks of at
    most `chunk` draws, chunk j drawn whole from substream(seed, j), as
    mc_char_ratio draws its blocks.  Yields the chunk's first sample index
    and char_poly's (mantissas, exponents), points x samples."""
    xs = np.array(xs, dtype=complex)[:, None]
    for task, lo in enumerate(range(0, n_samples, chunk)):
        d, e = tridiagonal_draw(N, substream(seed, task),
                                size=(min(chunk, n_samples - lo),))
        yield lo, *char_poly(*recurrence_coeffs(d, e), xs)


def mc_abs2_moment(N, q, sign, n_samples, seed, chunk=200_000):
    """Monte Carlo E exp(+-2 Q_N(q)) = E |det(q-A)|^{+-2} e^{-+2N Re g(q)},
    the oracle for charpoly.exp_pm2_moment."""
    q = complex(q)
    # the centering e^{-+2N Re g(q)} as 2**(k + f), folded into each value's
    # exponent so that neither it nor |det|^{+-2} over- or underflows alone
    k, f = divmod(-sign * 2.0 * N * g(q).real / math.log(2.0), 1.0)
    vals = np.empty(n_samples)
    for lo, dets, exps in _mc_dets(N, [q], n_samples, seed, chunk):
        vals[lo:lo + dets.shape[1]] = np.ldexp(np.abs(dets[0]) ** (2 * sign) * 2.0 ** f,
                                               2 * sign * exps[0] + int(k))
    return _batched_mean(vals)


def mc_field_bias_moment(N, bias, n_samples, seed, chunk=100_000):
    """Monte Carlo E exp(B(Z)) for the matrix field, the oracle for
    charpoly.exp_moment_field."""
    p_pts = [joukowsky(z) for z in bias.plus_points]
    q_pts = [joukowsky(w) for w in bias.minus_points]
    log_center = sum(2.0 * g(x).real for x in p_pts) \
        - sum(2.0 * g(x).real for x in q_pts)
    vals = np.empty(n_samples)
    for lo, dets, exps in _mc_dets(N, p_pts + q_pts, n_samples, seed, chunk):
        logs = 2.0 * (np.log(np.abs(dets)) + exps * math.log(2.0))
        w = logs[:len(p_pts)].sum(axis=0) - logs[len(p_pts):].sum(axis=0)
        vals[lo:lo + dets.shape[1]] = np.exp(w - N * log_center)
    return _batched_mean(vals)


def branch_depth_pairs(omegas, n0):
    """Branching heights of every pair of rays, entry by entry:
    -log|omega_i - omega_j| rounded and clipped to [0, n0], with n0 on the
    diagonal; the oracle for momentlab.branch_depth's form by lag."""
    omegas = np.asarray(omegas, dtype=complex)
    gaps = np.abs(omegas[:, None] - omegas[None, :])
    np.fill_diagonal(gaps, 1.0)
    depth = np.clip(np.round(-np.log(gaps)), 0, n0).astype(int)
    np.fill_diagonal(depth, n0)
    return depth


def depth_bins_pairs(Y, ey, params):
    """lower_bound_mc's two-point table from m x m tables over the ray pairs:
    E[Y_i Y_j] as Y^T Y / n, E Y_i E Y_j as an outer product, the exact pair
    moment from cov_g at every pair of leaf and reference points, and the
    per-pair depth, all fed to depth_bins_loop; the oracle for the table
    built by lag (momentlab._depth_bins)."""
    omegas = omega_grid(params)
    zeta_leaf, zeta_ref = ray_point(params.n0), ray_point(params.b[params.r])
    leaf = omegas * zeta_leaf
    ref = leaf / zeta_leaf * zeta_ref
    c_lr = cov_g(leaf[:, None], ref[None, :])
    cov_bb = (cov_g(leaf[:, None], leaf[None, :]) - c_lr - c_lr.T
              + cov_g(ref[:, None], ref[None, :]))
    var_b = 4.0 * (cov_g(zeta_leaf, zeta_leaf) + cov_g(zeta_ref, zeta_ref)
                   - 2.0 * cov_g(zeta_leaf, zeta_ref))
    exact2 = np.exp(4.0 * cov_bb + var_b)
    slack = params.n / params.eta + params.eta * math.sqrt(params.n)
    return depth_bins_loop(branch_depth_pairs(omegas, params.n0),
                           Y.T @ Y / len(Y), np.outer(ey, ey), exact2,
                           params.b[params.r], slack)


def depth_bins_loop(depth, emp2, prod1, exact2, b_ref, slack):
    """The per-depth two-point table by boolean masks over whole copies of
    the upper triangle of each m x m table, four per bin."""
    bins = []
    iu = np.triu_indices(len(depth), k=1)
    dvals = depth[iu]
    for mval in sorted(set(dvals.tolist())):
        sel = dvals == mval
        e_emp = emp2[iu][sel].mean()
        e_ind = prod1[iu][sel].mean()
        e_exact = exact2[iu][sel].mean()
        lemma_bound = exact2[iu][sel] / (prod1[iu][sel] * math.exp(mval - b_ref + slack))
        bins.append({
            "m": int(mval),
            "n_pairs": int(sel.sum()),
            "factorization_ratio": float(e_emp / e_ind),
            "exact_pair_over_product": float(e_exact / e_ind),
            "lemma_bound_constant": float(lemma_bound.max()),
        })
    return bins


def factor_covariance_tril(cov):
    """gaussfield._factor_covariance as it was before it worked in place:
    scipy's dpstrf on a Fortran copy of cov, F from an np.tril copy of its
    output, and the residual from a fresh F F^T - cov; the oracle for F, the
    rank and the route string.  cov is left as it was."""
    n = cov.shape[0]
    c, piv, rank, _ = lapack.dpstrf(np.array(cov, order="F"), lower=1)
    F = np.empty((n, rank))
    F[piv - 1] = np.tril(c[:, :rank])
    resid = np.linalg.norm(F @ F.T - cov)
    bound = 1e-8 * np.trace(cov) / n
    route = f"pivoted Cholesky, rank {rank} of {n} points"
    if not resid <= bound:
        raise np.linalg.LinAlgError(
            f"{route}: residual {resid:.1e} above bound {bound:.1e}")
    return F, (f"{route}, residual {resid:.1e} <= {bound:.1e}, "
               "by numpy's bundled OpenBLAS dpstrf")
