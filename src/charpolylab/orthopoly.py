"""Monic orthogonal polynomials for the quadratic weight e^{-2N x^2}, their
Cauchy transforms, the 2x2 Riemann-Hilbert matrices, the one-cut global
parametrix, and the edge weight function.

Only the quadratic weight is sampled exactly (by the tridiagonal model), so
its closed-form recurrence pi_{n+1} = x pi_n - (n/4N) pi_{n-1} is the only
one built here.

All polynomial and transform values are carried in log-magnitude / unit-phase
form so that e^{+-N g} factors and the gamma normalizing constants never
materialize as raw floats.  The Cauchy transform is the recessive solution of
the three-term recurrence off the real axis, so it is evaluated forward only
while the accumulated dominance gap stays small and otherwise by a normalized
backward recurrence anchored at the closed-form h_0.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import wofz

__all__ = [
    "LogComplex",
    "OPTable",
    "RHMatrix",
    "DeterminantError",
    "recurrence_table",
    "h0_closed",
    "y_matrix",
    "m_cells",
    "m_matrix",
    "global_parametrix_onecut",
    "r_weight",
]

_NEG_INF = float("-inf")

# forward evaluation of h is allowed while the dominance gap stays below this
_FORWARD_GAP_MAX = 12.0
# backward (Miller) runs start far enough above n that the gap exceeds this
_BACKWARD_GAP_BUFFER = 36.0
_BACKWARD_HARD_CAP = 200_000


class DeterminantError(ArithmeticError):
    """Riemann-Hilbert matrix determinant strayed from 1."""


class LogComplex:
    """A complex number stored as (log magnitude, unit phase)."""

    __slots__ = ("log_mag", "phase")

    def __init__(self, log_mag, phase):
        self.log_mag = float(log_mag)
        self.phase = complex(phase)

    @classmethod
    def from_complex(cls, z):
        z = complex(z)
        a = abs(z)
        if a == 0.0:
            return cls(_NEG_INF, 1.0)
        return cls(math.log(a), z / a)

    @classmethod
    def zero(cls):
        return cls(_NEG_INF, 1.0)

    @classmethod
    def one(cls):
        return cls(0.0, 1.0)

    def is_zero(self):
        return self.log_mag == _NEG_INF

    def value(self):
        """The plain complex value; overflows to inf beyond double range."""
        if self.is_zero():
            return 0.0 + 0.0j
        if self.log_mag > 709.0:
            return complex(math.inf * self.phase.real, math.inf * self.phase.imag)
        return math.exp(self.log_mag) * self.phase

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return LogComplex.zero()
        ph = self.phase * other.phase
        return LogComplex(self.log_mag + other.log_mag, ph / abs(ph))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("LogComplex division by zero")
        if self.is_zero():
            return LogComplex.zero()
        ph = self.phase / other.phase
        return LogComplex(self.log_mag - other.log_mag, ph / abs(ph))

    def __neg__(self):
        return LogComplex(self.log_mag, -self.phase)

    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        m = max(self.log_mag, other.log_mag)
        s = self.phase * math.exp(self.log_mag - m) + other.phase * math.exp(other.log_mag - m)
        a = abs(s)
        if a == 0.0:
            return LogComplex.zero()
        return LogComplex(m + math.log(a), s / a)

    def __sub__(self, other):
        return self + (-other)

    def conj(self):
        return LogComplex(self.log_mag, self.phase.conjugate())

    def scaled(self, dlog, dphase=1.0):
        """Multiply by e^{dlog} * dphase with dphase on the unit circle."""
        if self.is_zero():
            return LogComplex.zero()
        ph = self.phase * dphase
        return LogComplex(self.log_mag + dlog, ph / abs(ph))

    def __repr__(self):
        return f"LogComplex(log_mag={self.log_mag!r}, phase={self.phase!r})"


def lc_exp(w):
    """e^w as a LogComplex for complex w."""
    w = complex(w)
    return LogComplex(w.real, cmath.exp(1j * w.imag))


@dataclass
class OPTable:
    """Three-term recurrence data for the quadratic weight e^{-2N x^2}.

    a2[n] = n/(4N) drives pi_{n+1} = x pi_n - a2[n] pi_{n-1} (the weight is
    even, so there is no diagonal term); a2[0] is unused.
    log_gamma_sq[n] = log(gamma_n^2) for the normalizing constants of the
    orthonormal family.
    """

    N: int
    n_max: int
    a2: np.ndarray
    gamma0: float

    def __post_init__(self):
        self.a2 = np.asarray(self.a2, dtype=float)
        if np.any(self.a2[1:self.n_max + 1] <= 0.0):
            raise ValueError("a2[n] must be positive for n >= 1")
        self._rebuild_gamma()

    def _rebuild_gamma(self):
        logs = np.zeros(self.n_max + 1)
        logs[1:] = np.cumsum(np.log(self.a2[1:self.n_max + 1]))
        self.log_gamma_sq = 2.0 * math.log(self.gamma0) - logs

    def ensure(self, n):
        """Extend the table through index n."""
        if n <= self.n_max:
            return
        ns = np.arange(self.n_max + 1, n + 1)
        self.a2 = np.concatenate([self.a2, ns / (4.0 * self.N)])
        self.n_max = int(n)
        self._rebuild_gamma()


def recurrence_table(model, N, n_max):
    """Recurrence coefficients for e^{-2N x^2} up to degree n_max:
    a2[n] = n/(4N) exactly and gamma_0 = (2N/pi)^{1/4}.

    Any model other than the quadratic one is rejected.
    """
    if model.name != "gue":
        raise ValueError(f"model {model.name!r} has no closed-form recurrence")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    ns = np.arange(n_max + 1)
    return OPTable(N=N, n_max=n_max, a2=ns / (4.0 * N),
                   gamma0=(2.0 * N / math.pi) ** 0.25)


def _pi_chain(table, n, x):
    """LogComplex values pi_0 .. pi_n at x by the forward recurrence."""
    table.ensure(n)
    x = complex(x)
    chain = [LogComplex.one()]
    if n == 0:
        return chain
    lx = LogComplex.from_complex(x)
    prev = LogComplex.zero()
    cur = chain[0]
    for k in range(n):
        nxt = cur * lx - prev.scaled(math.log(table.a2[k]) if k >= 1 else _NEG_INF)
        chain.append(nxt)
        prev, cur = cur, nxt
    return chain


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
        return 0.5 * wofz(s * q)
    return -np.conj(0.5 * wofz(s * np.conj(q)))


def _dominance_gap(table, k, q):
    """log ratio of the recurrence's characteristic roots at step k."""
    s = cmath.sqrt(q * q - 4.0 * table.a2[k])
    hi = max(abs(q + s), abs(q - s)) / 2.0
    return 2.0 * math.log(hi) - math.log(table.a2[k])


def _h_chain(table, n, q):
    """LogComplex values h_0 .. h_n at q, stable for any table size.

    Forward recurrence is used while the summed dominance gap stays below
    _FORWARD_GAP_MAX; beyond that the chain comes from a backward run
    started where the gap buffer exceeds _BACKWARD_GAP_BUFFER, normalized
    by the closed-form h_0.
    """
    table.ensure(n)
    q = complex(q)
    h0 = LogComplex.from_complex(h0_closed(table, q))
    if n == 0:
        return [h0]
    lq = LogComplex.from_complex(q)
    corr = LogComplex.from_complex(table.gamma0 ** -2 / (2j * math.pi))
    gap = 0.0
    for k in range(1, n):
        gap += _dominance_gap(table, k, q)
    if gap <= _FORWARD_GAP_MAX:
        chain = [h0, h0 * lq + corr]
        for k in range(1, n):
            nxt = chain[k] * lq - chain[k - 1].scaled(math.log(table.a2[k]))
            chain.append(nxt)
        return chain

    # normalized backward recurrence
    M = n
    buf = 0.0
    while buf < _BACKWARD_GAP_BUFFER:
        M += 1
        if M > _BACKWARD_HARD_CAP:
            raise RuntimeError("backward recurrence start index exceeds hard cap")
        if M + 1 > table.n_max:
            table.ensure(max(M + 1, int(1.5 * table.n_max) + 64))
        buf += _dominance_gap(table, M, q)
    y = [None] * (M + 2)
    y[M + 1] = LogComplex.zero()
    y[M] = LogComplex.one()
    for k in range(M, 0, -1):
        y[k - 1] = (y[k] * lq - y[k + 1]).scaled(-math.log(table.a2[k]))
    alpha = h0 / y[0]
    return [alpha * y[k] for k in range(n + 1)]


@dataclass
class RHMatrix:
    """A 2x2 Riemann-Hilbert matrix; true matrix = entries * exp(log_scale).

    det holds the determinant of the unscaled matrix, computed in log space
    before any exponentiation, and must sit at 1.
    """

    entries: np.ndarray
    kind: str
    q: complex
    log_scale: float
    det: complex

    def check_det(self, tol):
        if abs(self.det - 1.0) > tol:
            raise DeterminantError(
                f"det {self.kind} = {self.det} deviates from 1 beyond {tol:g}"
            )


def _unit_det(cells, kind, q, det_tol=1e-6):
    """Determinant of 2x2 LogComplex cells, which must sit at 1; formed before
    any exponentiation so a breakdown surfaces before it corrupts a moment."""
    det = (cells[0][0] * cells[1][1] - cells[0][1] * cells[1][0]).value()
    if abs(det - 1.0) > det_tol:
        raise DeterminantError(
            f"det {kind} = {det} at q={complex(q)} deviates from 1 beyond {det_tol:g}"
        )
    return det


def _pack_rh(cells, det, kind, q):
    scale = max(c.log_mag for row in cells for c in row)
    if scale == _NEG_INF:
        scale = 0.0
    entries = np.array([[c.scaled(-scale).value() for c in row] for row in cells])
    return RHMatrix(entries=entries, kind=kind, q=complex(q), log_scale=scale, det=det)


def _tilde_factor(table):
    """-2 pi i gamma_{N-1}^2 as a LogComplex."""
    return LogComplex(math.log(2.0 * math.pi) + table.log_gamma_sq[table.N - 1], -1j)


def y_matrix(table, q):
    """The matrix [[pi_N, h_N], [t pi_{N-1}, t h_{N-1}]], t = -2 pi i gamma_{N-1}^2."""
    N = table.N
    pis = _pi_chain(table, N, q)
    hs = _h_chain(table, N, q)
    t = _tilde_factor(table)
    cells = [[pis[N], hs[N]], [t * pis[N - 1], t * hs[N - 1]]]
    return _pack_rh(cells, _unit_det(cells, "Y", q), "Y", q)


def m_cells(table, model, q):
    """LogComplex cells [[M11, M12], [M21, M22]] of M_N at q and their
    determinant, checked to sit at 1 within 1e-6.

    M is Y_N conjugated by e^{-N ell_V sigma3/2} ... e^{-N(g-ell_V/2) sigma3};
    the e^{+-N g} factors are applied in log space so they never appear as
    raw exponentials.
    """
    N = table.N
    g = model.g(q)
    ell = model.ell_v
    pis = _pi_chain(table, N, q)
    hs = _h_chain(table, N, q)
    t = _tilde_factor(table)
    e_mg = lc_exp(-N * g)                    # e^{-N g}
    e_gl = lc_exp(N * (g - ell))             # e^{+N(g-ell)}
    e_lg = lc_exp(-N * (g - ell))            # e^{-N(g-ell)}
    e_g = lc_exp(N * g)                      # e^{+N g}
    cells = [[pis[N] * e_mg, hs[N] * e_gl],
             [t * pis[N - 1] * e_lg, t * hs[N - 1] * e_g]]
    return cells, _unit_det(cells, "M", q)


def m_matrix(table, model, q):
    """The normalized matrix M_N at q; entries are O(1) in the bulk."""
    return _pack_rh(*m_cells(table, model, q), "M", q)


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
    ent = np.array([[h11, h12], [h21, h11]])
    det = complex(ent[0, 0] * ent[1, 1] - ent[0, 1] * ent[1, 0])
    mat = RHMatrix(entries=ent, kind="M_infinity", q=q, log_scale=0.0, det=det)
    mat.check_det(1e-12)
    return mat


def r_weight(model, q):
    """Edge weight prod over support endpoints of |q - e|^{-1/4}."""
    q = complex(q)
    out = 1.0
    for a, b in model.support:
        for e in (a, b):
            d = abs(q - e)
            if d == 0.0:
                raise ZeroDivisionError("r_weight is infinite at a support edge")
            out *= d ** -0.25
    return out
