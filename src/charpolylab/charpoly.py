"""Expected products and ratios of characteristic polynomials.

The balanced-ratio determinant, the scaled-determinant exponential moment
of field biases, the diagonal-block Laplace expansion, and the one-point
Laplace transform of the field.  Monte Carlo estimators over the exact
tridiagonal ensemble serve as independent oracles throughout.

Sign conventions: every determinant identity here is assembled from explicit
Laplace/permutation parities and then locked against the direct-determinant
or Monte Carlo oracle.  The load-bearing convention is the conjugation
antisymmetry h_n(conj q) = -conj(h_n(q)) of the Cauchy transforms: with it,
the ratio formulas hold as printed for arguments in either half-plane
(verified against quadrature at N = 1, 2 and Monte Carlo at N = 4).
"""

import itertools
import math
from functools import reduce

import numpy as np

from ._emit import emit
from ._rng import substream
from .ensemble import char_poly, g, recurrence_coeffs, tridiagonal_draw
from .hyperbolic import joukowsky
from .orthopoly import (m_matrix, _exp2, _h_chain, _ldexp, _pi_chain,
                        _scaled_det, _tilde_factor)

__all__ = [
    "vandermonde_det",
    "fs_balanced",
    "exp_moment_field",
    "laplace_split",
    "exp_pm2_moment",
    "mc_char_ratio",
    "write_verification_report",
]


def vandermonde_det(points):
    """prod_{i<j} (p_j - p_i); empty and singleton products are 1."""
    pts = list(points)
    out = 1.0 + 0.0j
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            out *= pts[j] - pts[i]
    return out


def _check_distinct(*groups):
    pts = [complex(p) for g in groups for p in g]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError(f"coincident points {pts[i]}; no confluent limits taken")


def _vandermonde_row(m, e, x, ell):
    """(m, e) of the row [a x^j for j < l] + [b x^j for j < l], where a and b
    are m[0] * 2**e[0] and m[1] * 2**e[1]."""
    return np.kron(m, [x ** j for j in range(ell)]), np.repeat(e, ell)


def _det_over_vandermonde(rows, q, p):
    """det of the (m, e) rows divided by Delta(q) Delta(p), as a complex."""
    m, e = _scaled_det(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    return complex(_ldexp(m / (vandermonde_det(q) * vandermonde_det(p)), e))


def fs_balanced(table, p, q):
    """E[prod det(p_i - A) / prod det(q_j - A)] for balanced tuples (len l each).

    Assembled as the 2l x 2l determinant with q-rows (h-tilde, h) and p-rows
    (pi-tilde, pi) against Vandermonde columns, divided by Delta(q) Delta(p).
    """
    p = [complex(v) for v in p]
    q = [complex(v) for v in q]
    ell = len(p)
    if table.N < ell:
        raise ValueError("need N >= l")
    _check_distinct(p)
    _check_distinct(q)
    N = table.N
    tm, te = _tilde_factor(table)
    rows = []
    for chain, x in [(_h_chain, v) for v in q] + [(_pi_chain, v) for v in p]:
        m, e = chain(table, N, x)
        rows.append(_vandermonde_row(m[N - 1:] * [tm, 1], e[N - 1:] + [te, 0], x, ell))
    return _det_over_vandermonde(rows, q, p)


def laplace_split(A, B, C, D, p, q):
    """Subset expansion of det [[A V(q), B V(q)], [C V(p), D V(p)]].

    A..D are the diagonals of l x l diagonal matrices.  Signs come from the
    generalized Laplace expansion over the first l columns: the block row
    set X = S union (l + T) contributes parity (-1)^(sum(X) - l(l+1)/2).
    """
    A, B, C, D = (list(map(complex, v)) for v in (A, B, C, D))
    p = [complex(v) for v in p]
    q = [complex(v) for v in q]
    ell = len(p)
    total = 0.0 + 0.0j
    base = ell * (ell + 1) // 2
    idx = list(range(ell))
    for s_size in range(ell + 1):
        t_size = ell - s_size
        for S in itertools.combinations(idx, s_size):
            Sc = [i for i in idx if i not in S]
            for T in itertools.combinations(idx, t_size):
                Tc = [i for i in idx if i not in T]
                X_sum = sum(i + 1 for i in S) + sum(ell + i + 1 for i in T)
                parity = -1.0 if (X_sum - base) % 2 else 1.0
                term = vandermonde_det([q[i] for i in S] + [p[i] for i in T])
                term *= vandermonde_det([q[i] for i in Sc] + [p[i] for i in Tc])
                for i in S:
                    term *= A[i]
                for i in Sc:
                    term *= B[i]
                for i in T:
                    term *= C[i]
                for i in Tc:
                    term *= D[i]
                total += parity * term
    return total


def exp_moment_field(table, bias):
    """E exp(B(Z)) for the matrix field Z = Q_N o J, by the scaled determinant.

    The bias points are pulled to the plane via p = J(conj(Z) u Z),
    q = J(conj(W) u W); the determinant uses the normalized matrix's (m, e)
    cells so no raw e^{+-N g} appears.  The result must be real positive; a
    relative imaginary residue above 1e-8 raises.
    """
    Z = bias.plus_points
    W = bias.minus_points
    if len(Z) != len(W):
        raise ValueError("field moments need balanced biases (|Z| = |W|)")
    if not Z:
        return 1.0
    p_pts = [joukowsky(np.conj(z)) for z in Z] + [joukowsky(z) for z in Z]
    q_pts = [joukowsky(np.conj(w)) for w in W] + [joukowsky(w) for w in W]
    _check_distinct(p_pts, q_pts)
    ell = len(p_pts)
    m_cache = {}

    def cells(v):
        # M is evaluated in the upper half-plane, once per point there;
        # conjugation carries M11, M22 to their conjugates and flips the
        # sign of M12, M21 (the Cauchy transforms are conjugate-antisymmetric)
        at = v if v.imag >= 0 else np.conj(v)
        if at not in m_cache:
            M = m_matrix(table, at)
            m_cache[at] = M.m, M.e
        m, e = m_cache[at]
        return (m if v.imag >= 0 else np.conj(m) * [[1, -1], [-1, 1]]), e

    # q-rows (M22, M12), p-rows (M21, M11)
    rows = []
    for x, col in [(v, 1) for v in q_pts] + [(v, 0) for v in p_pts]:
        m, e = cells(complex(x))
        rows.append(_vandermonde_row(m[::-1, col], e[::-1, col], x, ell))
    val = _det_over_vandermonde(rows, q_pts, p_pts)
    if abs(val.imag) > 1e-8 * max(abs(val), 1e-300):
        raise ArithmeticError(f"imaginary residue {val.imag:.2e} on a real moment")
    if val.real <= 0.0:
        raise ArithmeticError(f"nonpositive exponential moment {val}")
    return float(val.real)


def exp_pm2_moment(table, q, sign):
    """One-point Laplace transform E exp(+-2 Q_N(q)), from 2x2 determinants.

    Plus sign: the pi_N/pi_{N+1} determinant with e^{-N(g(q)+g(conj q))}.
    Minus sign: the h_{N-2}/h_{N-1} determinant with the gamma prefactor and
    e^{+N(...)}; both oracle-locked against quadrature at N = 1, 2 and Monte
    Carlo at N = 8.
    """
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Laplace transform evaluated off the real axis only")
    N = table.N
    g2 = g(q) + g(np.conj(q))
    if sign == +1:
        m, e = _pi_chain(table, N + 1, q)
        a, b, ab = m[N], m[N + 1], e[N] + e[N + 1]
        # pi_n(conj q) = conj(pi_n(q))
        det = a * np.conj(b) - b * np.conj(a)
        w = -N * g2
    else:
        if N < 2:
            raise ValueError("negative moment needs N >= 2")
        m, e = _h_chain(table, N - 1, q)
        a, b, ab = m[N - 2], m[N - 1], e[N - 2] + e[N - 1]
        # h_n(conj q) = -conj(h_n(q)), so the second row carries a sign flip
        det = -(a * np.conj(b) - b * np.conj(a))
        # prod_{j=1,2}(-2 pi i gamma_{N-j}^2) / (-1)^C(2,2)
        gm, ge = table.gamma_sq
        det *= 4.0 * math.pi ** 2 * gm[N - 1] * gm[N - 2]
        ab += ge[N - 1] + ge[N - 2]
        w = N * g2
    sm, se = _exp2(w)
    out = complex(_ldexp(det * sm / (np.conj(q) - q), ab + se))
    if abs(out.imag) > 1e-8 * max(abs(out), 1e-300) or out.real <= 0.0:
        raise ArithmeticError(f"Laplace transform came out non-positive: {out}")
    return float(out.real)


# ---------------------------------------------------------------------------
# Monte Carlo oracles over the exact tridiagonal ensemble
# ---------------------------------------------------------------------------

def _batched_mean(values):
    """Mean and batch-means standard error of a 1-d array, over 50 batches.

    For complex values the error is that of the complex mean: numpy's std
    of a complex array is the hypot of its real and imaginary parts' std."""
    values = np.asarray(values)
    nb = min(50, len(values))
    means = np.array([c.mean() for c in np.array_split(values, nb)])
    return values.mean(), means.std(ddof=1) / math.sqrt(nb) if nb > 1 else 0.0


# draws per block of mc_char_ratio: 4 MiB of d (and about as much of e),
# but at least 1024 draws, as the recurrence's per-step numpy calls
# outweigh its arithmetic on short blocks (N = 1024, 2,000 draws: 0.34 s in
# blocks of 128, 0.21 in 1,024)
_BLOCK_BYTES = 4 << 20
_BLOCK_MIN_ROWS = 1024


def mc_char_ratio(N, p_pts, q_pts, n_samples, seed):
    """Monte Carlo E[prod det(p - A) / prod det(q - A)] with batch-means SE.

    p_pts and q_pts hold one case's points, or, with a leading case axis,
    one row of points per case; every case then reads the same draws and
    the result is one (mean, SE) per case.  Draws come in blocks of
    max(_BLOCK_MIN_ROWS, _BLOCK_BYTES / 8N), block j drawn whole from
    substream(seed, j) and released before the next is drawn, so beside
    the cases x n_samples values the memory does not grow with n_samples."""
    ps = np.array(p_pts, dtype=complex)
    one_case = ps.ndim == 1
    ps = np.atleast_2d(ps)
    n = ps.shape[1]
    # cases x points x samples: the sample axis is the long one
    xs = np.concatenate([ps, np.atleast_2d(np.array(q_pts, dtype=complex))],
                        axis=1)[..., None]
    rows = max(_BLOCK_MIN_ROWS, _BLOCK_BYTES // (8 * N))
    vals = np.empty((len(xs), n_samples), dtype=complex)
    for j, lo in enumerate(range(0, n_samples, rows)):
        d, e = tridiagonal_draw(N, substream(seed, j), size=(min(rows, n_samples - lo),))
        dets, exps = char_poly(*recurrence_coeffs(d, e), xs)
        del d, e  # freed before the next block is drawn, not after
        # one elementwise multiply per point: np.prod would reduce a
        # one-draw block in numpy's reduction loop, whose complex product
        # rounds differently (no fused multiply-add)
        pts = np.moveaxis(dets, 1, 0)
        vals[:, lo:lo + dets.shape[-1]] = _ldexp(
            reduce(np.multiply, pts[:n]) / reduce(np.multiply, pts[n:]),
            exps[:, :n].sum(axis=1) - exps[:, n:].sum(axis=1))
    out = [_batched_mean(v) for v in vals]
    return out[0] if one_case else out


def write_verification_report(rows, path):
    """CSV report, one row per case: case_id, N, formula_value, mc_value,
    mc_stderr, z_score."""
    emit(rows, path, "csv",
         header=["case_id", "N", "formula_value", "mc_value", "mc_stderr", "z_score"])
