"""Idealized Gaussian log-correlated fields on the disk.

Two kernels are provided: the rotation-invariant field with covariance
-(1/2) log|1 - z conj(w)| and its symmetrized companion with the extra
-(1/2) log|1 - z w| term (the pullback of the real-axis field through the
Joukowsky chart).  On top of the kernels: exact exponential moments of
signed point biases, reproducible sampling at finite point sets, and
branching-covariance diagnostics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from ._rng import substream
from .hyperbolic import hyp_dist

__all__ = [
    "BiasSpec",
    "GaussKernel",
    "FieldSample",
    "kernel_g",
    "kernel_t",
    "cov_g",
    "cov_t",
    "exp_moment_g",
    "bias_variance",
    "sample_gauss",
    "brw_check",
]

# covariance offset of the branching form for the G kernel: -log(2)/2
K_OFFSET_G = -0.5 * math.log(2.0)


def cov_g(z, w):
    """Covariance -(1/2) log|1 - z*conj(w)| of the conformally invariant field.

    z and w may be scalars or arrays; arrays broadcast against each other.
    """
    return -0.5 * np.log(np.abs(1.0 - z * np.conj(w)))


def cov_t(z, w):
    """Covariance -(1/2) log|1-z*w| - (1/2) log|1-z*conj(w)| (symmetrized field).

    z and w may be scalars or arrays; arrays broadcast against each other.
    """
    return -0.5 * np.log(np.abs(1.0 - z * w)) - 0.5 * np.log(np.abs(1.0 - z * np.conj(w)))


# columns per block of the covariance build, rows per block of its factor and
# residual: a block's temporaries hold _COV_ROWS x len(points) entries
_COV_ROWS = 64


@dataclass(frozen=True)
class GaussKernel:
    """A covariance kernel on the open disk."""

    cov: object  # broadcasting callable (z, w) -> covariance

    def matrix(self, points):
        """cov(points[:, None], points[None, :]) as one symmetric Fortran-ordered
        float64 array: its lower triangle, filled _COV_ROWS columns at a time,
        has the one-shot broadcast's bits (the same ops in the same argument
        order), and the strict upper triangle mirrors it."""
        pts = np.asarray(points, dtype=complex)
        n = len(pts)
        out = np.empty((n, n), order="F")
        for lo in range(0, n, _COV_ROWS):
            hi = min(lo + _COV_ROWS, n)
            out.T[lo:hi, lo:] = self.cov(pts[None, lo:], pts[lo:hi, None])
            np.copyto(out[lo:hi, lo:], out[lo:, lo:hi].T,
                      where=np.arange(lo, n) > np.arange(lo, hi)[:, None])
        return out


def kernel_g():
    return GaussKernel(cov_g)


def kernel_t():
    return GaussKernel(cov_t)


@dataclass(frozen=True)
class BiasSpec:
    """Signed point set defining B(F) = sum 2 F(z) - sum 2 F(w).

    plus_points carry weight +2, minus_points weight -2.  Points must lie in
    the open disk; the two lists must be disjoint, and repeats within a list
    are rejected (the moment formulas degenerate there).
    """

    plus_points: tuple = field(default_factory=tuple)
    minus_points: tuple = field(default_factory=tuple)

    def __post_init__(self):
        plus = tuple(complex(z) for z in self.plus_points)
        minus = tuple(complex(w) for w in self.minus_points)
        object.__setattr__(self, "plus_points", plus)
        object.__setattr__(self, "minus_points", minus)
        for z in plus + minus:
            if abs(z) >= 1.0:
                raise ValueError(f"bias point {z} not in the open disk")
        if len(set(plus)) != len(plus) or len(set(minus)) != len(minus):
            raise ValueError("repeated point within a bias list")
        if set(plus) & set(minus):
            raise ValueError("plus and minus point sets must be disjoint")


def bias_variance(bias, kernel):
    """Variance of B(W) under the kernel, from the covariance quadratic form."""
    Z, W = bias.plus_points, bias.minus_points
    w = np.repeat([2.0, -2.0], [len(Z), len(W)])
    return float(w @ kernel.matrix(Z + W) @ w)


def exp_moment_g(bias):
    """E exp(B(G)) by the closed product formula for the G kernel.

    Evaluates prod_{Z x W} |1-z conj(w)|^2 over the product of the diagonal
    factors of Z and W, in log domain.  Equals exp(Var(B(G))/2).
    """
    Z, W = bias.plus_points, bias.minus_points
    log_val = 0.0
    for A, B, weight in ((Z, W, 2.0), (Z, Z, -1.0), (W, W, -1.0)):
        for a in A:
            for b in B:
                g = abs(1.0 - a * np.conj(b))
                if g < 1e-15:
                    raise ValueError("degenerate bias: near-coincident conjugate pair")
                log_val += weight * math.log(g)
    return math.exp(log_val)


@dataclass
class FieldSample:
    """Realizations of a Gaussian field at a fixed point set.

    values has shape (n_samples, n_points); factorization names the
    covariance factor's route, its rank, its residual and the LAPACK that
    computed it.
    """

    values: np.ndarray
    factorization: str


def _factor_covariance(cov):
    """F (n x rank), rows in cov's order, with F F^T = cov: Cholesky with
    complete pivoting (LAPACK dpstrf at its default tolerance), which stops
    at the numerical rank.  F F^T is positive semidefinite, so the check
    ||F F^T - cov||_F <= 1e-8 * mean variance also bounds cov's eigenvalues
    below by minus that; LinAlgError if it fails.  cov must be symmetric;
    built by GaussKernel.matrix, it is factored in place and overwritten,
    and F is a view of its first rank columns: the path holds n^2 + rank^2/2
    doubles, cov and the packed entries of cov's upper triangle that F
    overwrites, and no n x rank copy.
    """
    n = cov.shape[0]
    diag = np.diagonal(cov).copy()
    c, piv, rank = _lapack.dpstrf(cov)
    # L's row i is c[i, :i + 1], and cov's upper triangle lies above it:
    # cov[j, :j] is c[:j, j].  F takes the columns j < rank, so there those
    # entries are packed, then zeroed, then L's rows move to piv - 1
    inv = np.argsort(piv)
    upper = np.empty(rank * (rank - 1) // 2)
    for lo in range(0, rank, _COV_ROWS):
        hi = min(lo + _COV_ROWS, rank)
        above = c[:hi, lo:hi].T
        mask = np.arange(hi) < np.arange(lo, hi)[:, None]  # c[:j, j], j by j
        upper[lo * (lo - 1) // 2:hi * (hi - 1) // 2] = above[mask]
        above[mask] = 0.0
        c[:, lo:hi] = c[inv, lo:hi]
    F = c[:, :rank]
    # symmetric F F^T - cov by lower row blocks: cov[i, :i] is packed in
    # upper for i < rank, and is c[:i, i] after
    resid = 0.0
    for lo in range(0, n, _COV_ROWS):
        hi = min(lo + _COV_ROWS, n)
        blk = F[lo:hi] @ F[:hi].T
        d = np.diagonal(blk, lo) - diag[lo:hi]
        low = c[:hi, lo:hi].T
        if lo < rank:
            top = min(hi, rank)
            low = low.copy()
            low[:top - lo][np.arange(hi) < np.arange(lo, top)[:, None]] = (
                upper[lo * (lo - 1) // 2:top * (top - 1) // 2])
        blk = np.tril(blk - low, lo - 1)
        resid += 2.0 * np.vdot(blk, blk) + np.vdot(d, d)
    resid = math.sqrt(resid)
    bound = 1e-8 * diag.sum() / n
    route = f"pivoted Cholesky, rank {rank} of {n} points"
    if not resid <= bound:
        raise np.linalg.LinAlgError(
            f"{route}: residual {resid:.1e} above bound {bound:.1e}")
    return F, (f"{route}, residual {resid:.1e} <= {bound:.1e}, "
               "by numpy's bundled OpenBLAS dpstrf")


# rows per matrix product in sample_gauss
_ROW_BLOCK = 64


def sample_gauss(points, kernel, n_samples, seed):
    """Draw i.i.d. centered Gaussian vectors with the kernel covariance.

    Row i's standard normals, one per column of the covariance factor, are
    drawn from the Philox substream keyed by (seed, i).  The factor is
    applied in blocks of _ROW_BLOCK rows, one matrix product per block;
    blocks start at multiples of _ROW_BLOCK and the last one is zero-padded
    to full size, so every row goes through the same product shape at the
    same position and row i's values depend only on (seed, i): a shorter run
    is a bit-exact prefix of a longer one.
    """
    pts = np.asarray(points, dtype=complex)
    if len(set(pts.tolist())) != len(pts):
        raise ValueError("sample points must be pairwise distinct")
    F, fact = _factor_covariance(kernel.matrix(pts))
    npts, rank = F.shape
    n_blocks = -(-n_samples // _ROW_BLOCK)
    values = np.empty((n_blocks * _ROW_BLOCK, npts))
    x = np.empty((_ROW_BLOCK, rank))
    for lo in range(0, n_samples, _ROW_BLOCK):
        rows = min(_ROW_BLOCK, n_samples - lo)
        for r in range(rows):
            x[r] = substream(seed, lo + r).standard_normal(rank)
        x[rows:] = 0.0
        np.matmul(x, F.T, out=values[lo:lo + _ROW_BLOCK])
    return FieldSample(values=values[:n_samples], factorization=fact)


def brw_check(grid, kernel):
    """Empirical branching-covariance constants over a point grid.

    Returns c_b (sup of Var(W(z)-W(w))/d_H^2 over pairs with d_H <= 1), c_c
    (sup of |E[W(y)(W(z)-W(w))]|/d_H over the same pairs and all y), and
    k_offset_range, the range of E W(z1)W(z2) minus the branching main term
    (1/2) min{-log|sin((theta1-theta2)/2)|, h1, h2} with h = d_H(0, z), over
    all pairs of distinct grid indices.  The pair tables are arrays with the
    scalar formulas' bits: sin and log stay math calls, one per pair.
    """
    pts = np.asarray(grid, dtype=complex)
    cov = kernel.matrix(pts)
    d = hyp_dist(pts[:, None], pts[None, :])
    h = hyp_dist(0.0, pts)
    i, k = np.nonzero((d > 0.0) & (d <= 1.0))
    diag = np.diagonal(cov)
    var = diag[i] + diag[k] - 2.0 * cov[i, k]
    cross = np.abs(cov[:, i] - cov[:, k]).max(axis=0)
    theta = np.angle(pts)
    s = [abs(math.sin(x)) for x in ((theta[:, None] - theta[None, :]) / 2.0).ravel().tolist()]
    log_term = np.array([-math.log(x) if x else math.inf for x in s]).reshape(d.shape)
    main = 0.5 * np.minimum(np.minimum(log_term, h[:, None]), h[None, :])
    offsets = (cov - main)[~np.eye(len(pts), dtype=bool)]
    return {
        "c_b": float(np.max(var / d[i, k] ** 2, initial=0.0)),
        "c_c": float(np.max(cross / d[i, k], initial=0.0)),
        "k_offset_range": (float(offsets.min()), float(offsets.max())),
    }
