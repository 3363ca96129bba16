"""Monic orthogonal polynomials for e^{-N V}, their Cauchy transforms, the
2x2 Riemann-Hilbert matrices, the one-cut global parametrix, and the edge
weight function.

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
from scipy import integrate
from scipy.special import wofz

__all__ = [
    "LogComplex",
    "OPTable",
    "RHMatrix",
    "DeterminantError",
    "OrthogonalityError",
    "recurrence_table",
    "gamma0",
    "eval_pi",
    "eval_h",
    "h0_closed",
    "h0_quadrature",
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


class OrthogonalityError(RuntimeError):
    """Discretized inner products lost orthogonality."""


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
    """Three-term recurrence data for the weight e^{-N V}.

    beta[n] and a2[n] drive pi_{n+1} = (x - beta[n]) pi_n - a2[n] pi_{n-1};
    a2[0] is unused.  log_gamma_sq[n] = log(gamma_n^2) for the normalizing
    constants of the orthonormal family.
    """

    N: int
    n_max: int
    beta: np.ndarray
    a2: np.ndarray
    gamma0: float
    model: str

    def __post_init__(self):
        self.beta = np.asarray(self.beta, dtype=float)
        self.a2 = np.asarray(self.a2, dtype=float)
        if np.any(self.a2[1:self.n_max + 1] <= 0.0):
            raise ValueError("a2[n] must be positive for n >= 1")
        self._rebuild_gamma()

    def _rebuild_gamma(self):
        logs = np.zeros(self.n_max + 1)
        logs[1:] = np.cumsum(np.log(self.a2[1:self.n_max + 1]))
        self.log_gamma_sq = 2.0 * math.log(self.gamma0) - logs

    def ensure(self, n):
        """Extend the table through index n (closed-form models only)."""
        if n <= self.n_max:
            return
        if self.model != "gue":
            raise ValueError(
                f"table holds coefficients through n_max={self.n_max}; "
                f"{n} requested and model {self.model!r} has no closed form"
            )
        ns = np.arange(self.n_max + 1, n + 1)
        self.beta = np.concatenate([self.beta, np.zeros(len(ns))])
        self.a2 = np.concatenate([self.a2, ns / (4.0 * self.N)])
        self.n_max = int(n)
        self._rebuild_gamma()


def gamma0(model, N):
    """gamma_0 = (integral of e^{-N V})^{-1/2}; closed form for the quadratic model."""
    if model.name == "gue":
        return (2.0 * N / math.pi) ** 0.25
    lo, hi = _weight_window(model, N)
    val, _ = integrate.quad(lambda x: math.exp(-N * model.V(x)), lo, hi,
                            limit=200, epsabs=1e-14, epsrel=1e-14)
    return val ** -0.5


def _weight_window(model, N):
    """Interval outside which e^{-N V} is below double-precision floor."""
    a = min(s[0] for s in model.support)
    b = max(s[1] for s in model.support)
    vmin = min(model.V(x) for x in np.linspace(a, b, 201))
    lo, hi = a - 1.0, b + 1.0
    while N * (model.V(lo) - vmin) < 750 and lo > a - 60:
        lo -= 0.5
    while N * (model.V(hi) - vmin) < 750 and hi < b + 60:
        hi += 0.5
    return lo, hi


def recurrence_table(model, N, n_max):
    """Recurrence coefficients for e^{-N V} up to degree n_max.

    The quadratic model has beta_n = 0 and a2[n] = n/(4N) exactly.  Other
    models are handled by the discretized Stieltjes procedure on a cosine
    quadrature grid, gated by an orthogonality-residual check.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if model.name == "gue":
        ns = np.arange(n_max + 1)
        return OPTable(N=N, n_max=n_max, beta=np.zeros(n_max + 1),
                       a2=ns / (4.0 * N), gamma0=(2.0 * N / math.pi) ** 0.25,
                       model="gue")
    return _stieltjes_table(model, N, n_max)


def _stieltjes_table(model, N, n_max, residual_tol=1e-8):
    # window sized so the weight times the largest polynomial factor is
    # negligible at the ends, then plain Gauss-Legendre (the integrands are
    # entire, so convergence is geometric)
    a = min(s[0] for s in model.support)
    b = max(s[1] for s in model.support)
    vmin = min(model.V(x) for x in np.linspace(a, b, 201))
    budget = 60.0 + 2.0 * n_max
    lo, hi = a - 0.25, b + 0.25
    while N * (model.V(lo) - vmin) < budget + 2.0 * n_max * math.log(max(abs(lo), 1.0)):
        lo -= 0.25
    while N * (model.V(hi) - vmin) < budget + 2.0 * n_max * math.log(max(abs(hi), 1.0)):
        hi += 0.25
    npts = max(8 * n_max, 64)
    nodes, wts = np.polynomial.legendre.leggauss(npts)
    mid, hw = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mid + hw * nodes
    w = wts * hw * np.exp(-N * model.V(x))

    h0 = w.sum()
    beta = np.zeros(n_max + 1)
    a2 = np.zeros(n_max + 1)
    p_prev = np.zeros_like(x)
    p_cur = np.full_like(x, h0 ** -0.5)
    basis = [p_cur.copy()]
    for n in range(n_max):
        beta[n] = (w * x * p_cur * p_cur).sum()
        t = (x - beta[n]) * p_cur - (math.sqrt(a2[n]) if n >= 1 else 0.0) * p_prev
        norm = math.sqrt((w * t * t).sum())
        if norm == 0.0:
            raise OrthogonalityError(f"breakdown at degree {n + 1}: zero norm")
        a2[n + 1] = norm * norm
        p_prev, p_cur = p_cur, t / norm
        basis.append(p_cur.copy())
    # orthogonality gate on a spread of pairs
    checks = {(0, n_max), (1, 2), (n_max - 1, n_max)}
    if n_max >= 4:
        checks.add((n_max // 2, n_max // 2 + 1))
    for m, n in checks:
        if m == n:
            continue
        res = abs((w * basis[m] * basis[n]).sum())
        if res > residual_tol:
            raise OrthogonalityError(
                f"orthogonality residual {res:.2e} for degrees ({m},{n}); "
                "n_max too large for the grid resolution"
            )
    return OPTable(N=N, n_max=n_max, beta=beta, a2=a2, gamma0=h0 ** -0.5,
                   model=model.name)


def _pi_chain(table, n, x):
    """LogComplex values pi_0 .. pi_n at x by the forward recurrence."""
    x = complex(x)
    chain = [LogComplex.one()]
    if n == 0:
        return chain
    prev = LogComplex.zero()
    cur = chain[0]
    for k in range(n):
        nxt = cur * LogComplex.from_complex(x - table.beta[k]) - \
            prev.scaled(math.log(table.a2[k]) if k >= 1 else _NEG_INF)
        chain.append(nxt)
        prev, cur = cur, nxt
    return chain


def eval_pi(table, n, x):
    """Monic orthogonal polynomial pi_n(x) as a LogComplex."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    table.ensure(n)
    return _pi_chain(table, n, x)[n]


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


def h0_quadrature(model, N, q):
    """h_0(q) = (2 pi i)^{-1} integral of e^{-N V(x)}/(x-q) dx, by quadrature."""
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Cauchy transform undefined on the real axis")
    lo, hi = _weight_window(model, N)
    pts = [q.real] if lo < q.real < hi else None

    def re_part(x):
        return (math.exp(-N * model.V(x)) / (x - q)).real

    def im_part(x):
        return (math.exp(-N * model.V(x)) / (x - q)).imag

    re, _ = integrate.quad(re_part, lo, hi, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    im, _ = integrate.quad(im_part, lo, hi, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    return (re + 1j * im) / (2j * math.pi)


def _h0_lc(table, model, q):
    if table.model == "gue":
        return LogComplex.from_complex(h0_closed(table, q))
    if model is None:
        raise ValueError("general-weight h evaluation needs the model for h_0")
    return LogComplex.from_complex(h0_quadrature(model, table.N, q))


def _dominance_gap(table, k, q):
    """log ratio of the recurrence's characteristic roots at step k."""
    z = q - table.beta[k]
    s = cmath.sqrt(z * z - 4.0 * table.a2[k])
    hi = max(abs(z + s), abs(z - s)) / 2.0
    return 2.0 * math.log(hi) - math.log(table.a2[k])


def _h_chain(table, n, q, model=None):
    """LogComplex values h_0 .. h_n at q, stable for any table size.

    Forward recurrence is used while the summed dominance gap stays below
    _FORWARD_GAP_MAX; beyond that the chain comes from a backward run
    started where the gap buffer exceeds _BACKWARD_GAP_BUFFER, normalized
    by the closed-form h_0.
    """
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Cauchy transform undefined on the real axis")
    h0 = _h0_lc(table, model, q)
    if n == 0:
        return [h0]
    corr = LogComplex.from_complex(table.gamma0 ** -2 / (2j * math.pi))
    gap = 0.0
    for k in range(1, n):
        gap += _dominance_gap(table, k, q)
    if gap <= _FORWARD_GAP_MAX:
        chain = [h0, h0 * LogComplex.from_complex(q - table.beta[0]) + corr]
        for k in range(1, n):
            nxt = chain[k] * LogComplex.from_complex(q - table.beta[k]) - \
                chain[k - 1].scaled(math.log(table.a2[k]))
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
        y[k - 1] = (y[k] * LogComplex.from_complex(q - table.beta[k]) - y[k + 1]) \
            .scaled(-math.log(table.a2[k]))
    alpha = h0 / y[0]
    return [alpha * y[k] for k in range(n + 1)]


def eval_h(table, n, q, model=None):
    """Cauchy transform h_n(q) as a LogComplex (Im q != 0 required)."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    table.ensure(max(n, 1))
    return _h_chain(table, n, q, model=model)[n]


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


def y_matrix(table, q, model=None):
    """The matrix [[pi_N, h_N], [t pi_{N-1}, t h_{N-1}]], t = -2 pi i gamma_{N-1}^2."""
    N = table.N
    table.ensure(N)
    pis = _pi_chain(table, N, q)
    hs = _h_chain(table, N, q, model=model)
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
    table.ensure(N)
    g = model.g(q)
    ell = model.ell_v
    pis = _pi_chain(table, N, q)
    hs = _h_chain(table, N, q, model=model)
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
