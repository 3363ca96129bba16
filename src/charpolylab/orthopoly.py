"""Monic orthogonal polynomials for the quadratic weight e^{-2N x^2}, their
Cauchy transforms, the 2x2 Riemann-Hilbert matrices, the one-cut global
parametrix, and the edge weight function.

The weight is e^{-N V} for ensemble's quadratic V, the one weight the
tridiagonal model samples exactly, so the recurrence is its closed form
pi_{n+1} = x pi_n - (n/4N) pi_{n-1}; M_N and the edge weight read V's g,
ELL_V and SUPPORT from ensemble.

Polynomial and transform values are carried as a complex mantissa m and an
integer exponent e, with value m * 2**e (the form charpoly's Monte Carlo
kernel returns too), so that e^{+-N g} factors and the gamma normalizing
constants never materialize as raw floats.  The recurrences divide by an
exact power of two every step: wherever the unscaled recurrence stays in
double range, m * 2**e is its value bit for bit.  The Cauchy transform is the
recessive solution of the three-term recurrence off the real axis, so it is
evaluated forward only while the accumulated dominance gap stays small and
otherwise by a normalized backward (Miller) recurrence anchored at the
closed-form h_0 (Gautschi, SIAM Rev. 9, 1967).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .ensemble import ELL_V, SUPPORT, g

__all__ = [
    "OPTable",
    "RHMatrix",
    "DeterminantError",
    "h0_closed",
    "y_matrix",
    "m_matrix",
    "global_parametrix_onecut",
    "r_weight",
]

_LN2 = math.log(2.0)

# forward evaluation of h is allowed while the dominance gap stays below this;
# it loses about e^gap ulp (at gaps near 11, h was off by 1e-10)
_FORWARD_GAP_MAX = 6.0
# backward (Miller) runs start far enough above n that the gap exceeds this
_BACKWARD_GAP_BUFFER = 36.0
# the start index may reach max(_BACKWARD_HARD_CAP, _BACKWARD_CAP_PER_N * N);
# every q with Im q >= 1/N and |Re q| <= 1.5 needs at most 100 N + 5
# (measured for N = 8 .. 4096)
_BACKWARD_HARD_CAP = 200_000
_BACKWARD_CAP_PER_N = 128
# the backward run rescales (_rescale) only every _RESCALE steps and at the
# values it keeps; scales by 2^s are exact (for Re q 0 or above 2^-600 in size),
# so (m, e) are those of rescaling every step.  W_k = Im(y_k conj y_{k+1})
# obeys a_k^2 W_{k-1} = Im(q) |y_k|^2 + W_k, W_M = 0, so |y_{k-1}| >= |Im q|
# |y_k| / a_k^2: for |Im q| >= 1/N a step shrinks |y| by at most 4/M and grows
# it by at most (|q| + a_{k+1}^2/|Im q|) / a_k^2 <= N (4|q| + 2); 16 steps stay
# in 2^-400 .. 2^832 for M within the start-index bound, N <= 2^20, |q| <= 2^30
_RESCALE = 16


class DeterminantError(ArithmeticError):
    """Riemann-Hilbert matrix determinant strayed from 1."""


def _a2(N, k):
    """The recurrence coefficient a_k^2 = k/(4N) of e^{-2N x^2}."""
    return k / (4.0 * N)


def _ldexp(m, e):
    """m * 2**e elementwise for complex m and integer e; exact unless the
    result leaves double range."""
    m = np.asarray(m, dtype=complex)
    out = np.empty(np.broadcast(m, e).shape, dtype=complex)
    out.real = np.ldexp(m.real, e)
    out.imag = np.ldexp(m.imag, e)
    return out


def _exp2(w):
    """e^w as (m, e) with m * 2**e = e^w, elementwise for complex w."""
    w = np.asarray(w, dtype=complex)
    e = np.floor(w.real / _LN2).astype(np.int64)
    return np.exp(w - e * _LN2), e


def _scaled_det(m, e):
    """Determinant of the square matrix m * 2**e, as (mantissa, exponent).

    Each row, then each column, is divided by the exact power of two of its
    largest exponent, and LU with partial pivoting (slogdet) runs on the O(1)
    remainder, so widely scaled rows never meet in a raw subtraction.
    """
    e = np.asarray(e)
    rows = e.max(axis=1)
    cols = (e - rows[:, None]).max(axis=0)
    sign, logabs = np.linalg.slogdet(_ldexp(m, e - rows[:, None] - cols[None, :]))
    return complex(sign) * math.exp(logabs), int(rows.sum() + cols.sum())


@dataclass
class OPTable:
    """Normalizing constants for the quadratic weight e^{-2N x^2}.

    gamma0 = (2N/pi)^{1/4}, the inverse square root of the weight's mass, and
    gamma_sq = (m, e) arrays with gamma_n^2 = m[n] * 2**e[n] for the
    orthonormal family: the product gamma_0^2 / (a_1^2 ... a_n^2) with
    a_k^2 = k/(4N), renormalized by an exact power of two every step, so its
    relative error grows like sqrt(n) ulp; degrees 0..N (n_max = N).  The
    chains take a_k^2 in closed form, so they run past N and never grow it.
    """

    N: int

    def __post_init__(self):
        self.n_max = self.N
        self.gamma0 = (2.0 * self.N / math.pi) ** 0.25
        m = np.empty(self.N + 1)
        e = np.empty(self.N + 1, dtype=np.int64)
        cur, ex = math.frexp(self.gamma0 ** 2)
        for n in range(self.N + 1):
            if n:
                cur, s = math.frexp(cur / _a2(self.N, n))
                ex += s
            m[n], e[n] = cur, ex
        self.gamma_sq = (m, e)


def _rescale(prev, cur):
    """Both values divided by the binary exponent s of |cur|, which is exact,
    and s."""
    s = math.frexp(abs(cur))[1]
    t = math.ldexp(1.0, -s)
    return prev * t, cur * t, s


def _forward(y0, y1, x, N, n):
    """(m, e) arrays of y_0 .. y_n for y_{k+1} = x y_k - a_k^2 y_{k-1}.

    Both running values are rescaled every step (_rescale), so no |x|
    overflows the run.
    """
    ms, es = [complex(y0)], [0]
    prev, cur, e = complex(y0), complex(y1), 0
    for k in range(1, n + 1):
        prev, cur, s = _rescale(prev, cur)
        e += s
        ms.append(cur)
        es.append(e)
        prev, cur = cur, x * cur - _a2(N, k) * prev
    return np.array(ms), np.array(es, dtype=np.int64)


def _pi_chain(table, n, x):
    """(m, e) arrays of pi_0 .. pi_n at x by the forward recurrence."""
    x = complex(x)
    return _forward(1.0, x, x, table.N, n)


# Weideman's rational series for the Faddeeva function (SIAM J. Numer.
# Anal. 31, 1994), 40 terms: w(z) = 2 p(Z) / (L - iz)^2 + 1 / (sqrt(pi)
# (L - iz)) with Z = (L + iz) / (L - iz) and p the polynomial whose
# coefficients are the Fourier coefficients of (L^2 + t^2) e^{-t^2} at
# t = L tan(theta / 2), taken by one FFT.
_W_TERMS = 40
_W_L = math.sqrt(_W_TERMS / math.sqrt(2.0))
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _weideman_coeffs():
    M = 2 * _W_TERMS
    t = _W_L * np.tan(np.arange(1 - M, M) * math.pi / (2 * M))
    f = np.concatenate(([0.0], np.exp(-t * t) * (_W_L ** 2 + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * M)
    return a[_W_TERMS:0:-1].tolist()  # highest degree first, for Horner


_W_COEFFS = _weideman_coeffs()


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0 by
    Weideman's series, to about 1e-15 relative over the chains' domain
    (tested against mpmath)."""
    lz = _W_L - 1j * z
    Z = (_W_L + 1j * z) / lz
    p = 0j
    for c in _W_COEFFS:
        p = p * Z + c
    return 2.0 * p / (lz * lz) + _RSQRT_PI / lz


def h0_closed(table, q):
    """h_0 for the quadratic weight via the Faddeeva function.

    The 1/(2 pi i) prefactor makes all h_n conjugate-antisymmetric:
    h_n(conj q) = -conj(h_n(q)).
    """
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Cauchy transform undefined on the real axis")
    s = math.sqrt(2.0 * table.N)
    if q.imag > 0:
        return 0.5 * _faddeeva(s * q)
    return -(0.5 * _faddeeva(s * q.conjugate())).conjugate()


def _dominance_gaps(N, ks, q):
    """log ratio of the recurrence's characteristic roots at each step in ks."""
    a = _a2(N, ks)
    s = np.sqrt(q * q - 4.0 * a)
    return 2.0 * np.log(np.maximum(np.abs(q + s), np.abs(q - s)) / 2.0) - np.log(a)


def _start_index(N, n, q):
    """The smallest M > n whose gap sum over n+1 .. M reaches the buffer.

    The sum is searched in chunks that double in size, so a start index near
    n costs little; past the bound on the start index it raises.
    """
    bound = max(_BACKWARD_HARD_CAP, _BACKWARD_CAP_PER_N * N)
    lo, size, total = n + 1, max(n, 1024), 0.0
    while lo <= bound:
        cum = total + np.cumsum(_dominance_gaps(N, np.arange(lo, lo + size), q))
        hit = cum >= _BACKWARD_GAP_BUFFER
        if hit.any():
            M = lo + int(hit.argmax())
            if M > bound:
                break
            return M
        lo, size, total = lo + size, 2 * size, cum[-1]
    else:
        M = f"above {lo - 1}"
    raise RuntimeError(f"backward h-chain at N={N}, q={q}: start index {M} "
                       f"needed, bound {bound}")


def _h_chain(table, n, q):
    """(m, e) arrays of h_0 .. h_n at q, for any n.

    Forward recurrence is used while the summed dominance gap stays below
    _FORWARD_GAP_MAX; beyond that the chain comes from a backward run
    started where the gap buffer exceeds _BACKWARD_GAP_BUFFER, normalized
    by the closed-form h_0.
    """
    q = complex(q)
    h0 = complex(h0_closed(table, q))
    N = table.N
    if _dominance_gaps(N, np.arange(1, n), q).sum() <= _FORWARD_GAP_MAX:
        return _forward(h0, q * h0 + table.gamma0 ** -2 / (2j * math.pi), q, N, n)

    # y_{k-1} = (q y_k - y_{k+1}) / a_k^2 from y_{M+1} = 0, y_M = 1, rescaled
    # every _RESCALE steps and at y_n .. y_0, which are kept
    ms, es = [], []
    nxt, cur, e = 0j, 1.0 + 0j, 0
    for k in range(_start_index(N, n, q), 0, -1):
        nxt, cur = cur, (q * cur - nxt) / _a2(N, k)
        if k <= n + 1 or k % _RESCALE == 0:
            nxt, cur, s = _rescale(nxt, cur)
            e += s
            if k <= n + 1:
                ms.append(cur)
                es.append(e)
    m, e = np.array(ms[::-1]), np.array(es[::-1], dtype=np.int64)
    return h0 / m[0] * m, e - e[0]


@dataclass
class RHMatrix:
    """A 2x2 Riemann-Hilbert matrix as (m, e) cells with value m * 2**e, and
    its determinant, formed from the cells and checked to sit at 1."""

    m: np.ndarray
    e: np.ndarray
    det: complex


def _rh_matrix(m, e, kind, q, tol):
    """The RHMatrix of the cells m * 2**e; a determinant off 1 beyond tol
    raises here, so a breakdown surfaces before it corrupts a moment."""
    det = complex(_ldexp(*_scaled_det(m, e)))
    if abs(det - 1.0) > tol:
        raise DeterminantError(
            f"det {kind} = {det} at q={complex(q)} deviates from 1 beyond {tol:g}"
        )
    return RHMatrix(m=m, e=e, det=det)


def _tilde_factor(table):
    """-2 pi i gamma_{N-1}^2 as (m, e)."""
    m, e = table.gamma_sq
    return -2j * math.pi * m[table.N - 1], e[table.N - 1]


def _y_cells(table, q):
    """(m, e) of [[pi_N, h_N], [t pi_{N-1}, t h_{N-1}]], t = -2 pi i gamma_{N-1}^2."""
    N = table.N
    pm, pe = _pi_chain(table, N, q)
    hm, he = _h_chain(table, N, q)
    tm, te = _tilde_factor(table)
    return (np.array([[pm[N], hm[N]], [tm * pm[N - 1], tm * hm[N - 1]]]),
            np.array([[pe[N], he[N]], [te + pe[N - 1], te + he[N - 1]]]))


def y_matrix(table, q):
    """The matrix [[pi_N, h_N], [t pi_{N-1}, t h_{N-1}]], t = -2 pi i gamma_{N-1}^2."""
    return _rh_matrix(*_y_cells(table, q), "Y", q, 1e-6)


def m_matrix(table, q):
    """The normalized matrix M_N at q; its values are O(1) in the bulk.

    M is Y_N conjugated by e^{-N ell_V sigma3/2} ... e^{-N(g-ell_V/2) sigma3};
    the e^{+-N g} factors are applied as (m, e) pairs so they never appear as
    raw exponentials.
    """
    N = table.N
    gq = g(q)
    m, e = _y_cells(table, q)
    # e^{-N g}, e^{+N(g-ell)}; e^{-N(g-ell)}, e^{+N g}
    fm, fe = _exp2([[-N * gq, N * (gq - ELL_V)], [-N * (gq - ELL_V), N * gq]])
    return _rh_matrix(m * fm, e + fe, "M", q, 1e-6)


def _gamma_onecut(q):
    """((q+1)/(q-1))^{1/4}, principal branch: cut on [-1,1], -> 1 at infinity."""
    q = complex(q)
    return cmath.exp(0.25 * cmath.log((q + 1.0) / (q - 1.0)))


def global_parametrix_onecut(q):
    """Limiting profile of M_N off [-1, 1] for one-cut models on [-1, 1].

    H = [[(g+1/g)/2, (g-1/g)/(-2i)], [(g-1/g)/(2i), (g+1/g)/2]] with g the
    quarter-root above, evaluated with its principal branch in either
    half-plane.  The entries inherit the same conjugation behavior as M_N
    (diagonal symmetric, off-diagonal antisymmetric).  Real q inside (-1, 1)
    is a cut point; real q outside is fine.
    """
    q = complex(q)
    if q.imag == 0.0 and abs(q.real) <= 1.0:
        raise ValueError("global parametrix undefined on the cut [-1, 1]")
    gam = _gamma_onecut(q)
    gi = 1.0 / gam
    h11 = 0.5 * (gam + gi)
    h12 = (gam - gi) / (-2j)
    h21 = (gam - gi) / (2j)
    return _rh_matrix(np.array([[h11, h12], [h21, h11]]),
                      np.zeros((2, 2), dtype=np.int64), "M_infinity", q, 1e-12)


def r_weight(q):
    """Edge weight prod over support endpoints of |q - e|^{-1/4}."""
    q = complex(q)
    out = 1.0
    for a, b in SUPPORT:
        for e in (a, b):
            d = abs(q - e)
            if d == 0.0:
                raise ZeroDivisionError("r_weight is infinite at a support edge")
            out *= d ** -0.25
    return out
