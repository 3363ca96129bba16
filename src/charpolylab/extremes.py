"""The centered log-determinant field on and near [-1, 1], its maximum over
the Chebyshev grid, off-axis regularization, and the law-of-large-numbers
experiment.

The per-sample hot loop is the evaluation of sum_i log|x_k - lambda_i| on
the 2N+1 grid, done in place in one cache-sized (block x N) buffer, so the
(grid x eigenvalue) difference matrix never materializes whole.  The numpy
steps of that loop and the tridiagonal eigen-solve behind each spectrum
both release the GIL, so the samples of max_experiment run in parallel on
its thread pool.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import task_seed
from .ensemble import sample_spectrum_gue

__all__ = [
    "MaxRecord",
    "field_q",
    "cheb_grid",
    "factor14_check",
    "Factor14Violation",
    "regularized_max",
    "max_experiment",
    "CV_MARGIN",
    "ordering_constant",
    "EXPERIMENT_CSV_FIELDS",
]

EXPERIMENT_CSV_FIELDS = ["N", "seed_index", "m_star", "m_star_over_logN",
                         "m_star_centered_2nd_order"]

# slack over the exact shift bound pi*max(rho)*y, absorbing grid rounding
CV_MARGIN = 1e-9


class Factor14Violation(AssertionError):
    """A polynomial beat the factor-14 grid bound (theoretically impossible)."""


# (block x N) float64 scratch per _log_abs_sum call: 2 MB stays resident in a
# per-core L2 cache of 2 MiB or more, where a whole-block temporary would not
_LOGSUM_BUFFER_BYTES = 2 << 20


def _block_rows(n_eigs):
    """Grid points per block of _log_abs_sum for n_eigs eigenvalues."""
    return max(1, _LOGSUM_BUFFER_BYTES // (8 * max(n_eigs, 1)))


def _log_abs_sum(eigs, pts, shift=0.0):
    """sum_i log|p - i*shift - lambda_i| for each p in pts, blocked.

    Every step writes into one reused (block x N) buffer sized to stay in
    cache.  The op sequence is fixed -- subtract, abs, log, row sum on the
    real axis; subtract, square, add shift^2, log, row sum, halve off it --
    so the result is bit-identical to evaluating it unblocked.
    """
    eigs = np.asarray(eigs, dtype=float)
    pts = np.asarray(pts, dtype=float)
    out = np.empty(len(pts))
    block = max(1, min(len(pts), _block_rows(len(eigs))))
    buf = np.empty((block, len(eigs)))
    s2 = shift * shift
    with np.errstate(divide="ignore"):
        for lo in range(0, len(pts), block):
            chunk = pts[lo:lo + block]
            diff = buf[:len(chunk)]
            np.subtract(chunk[:, None], eigs[None, :], out=diff)
            if shift == 0.0:
                np.abs(diff, out=diff)
            else:
                np.multiply(diff, diff, out=diff)
                np.add(diff, s2, out=diff)
            np.log(diff, out=diff)
            diff.sum(axis=1, out=out[lo:lo + block])
    if shift != 0.0:
        out *= 0.5
    return out


def field_q(spectrum, model, q):
    """Q(q) = sum log|q - lambda_i| - N * Re g(q).

    On the real axis the centering uses the log-potential -g_tilde (valid on
    and off the support); off the axis it uses Re g.  An eigenvalue hit
    yields -inf.
    """
    q = complex(q)
    eigs = spectrum.eigenvalues
    if q.imag == 0.0:
        logsum = _log_abs_sum(eigs, [q.real])[0]
        center = -model.g_tilde(q.real)
    else:
        with np.errstate(divide="ignore"):
            logsum = float(np.log(np.abs(q - eigs)).sum())
        center = model.g(q).real
    return logsum - spectrum.N * center


def cheb_grid(N):
    """x_k = cos(pi (k-1) / 2N) for k = 1..2N+1, descending from 1 to -1."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return np.cos(np.pi * np.arange(2 * N + 1) / (2 * N))


def _golden_max_vec(f, lo, hi, iters=40):
    """Vectorized golden-section maximization of f on brackets [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        go_right = fc < fd
        a = np.where(go_right, c, a)
        b = np.where(go_right, b, d)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
    mid = 0.5 * (a + b)
    return np.maximum(f(mid), np.maximum(fc, fd))


def factor14_check(N, roots=None, cheb_coeffs=None):
    """Ratio of the dense-grid sup of |P| on [-1,1] to its Chebyshev-grid max.

    P has degree exactly N, given either by its roots or by coefficients in
    the Chebyshev basis.  The dense proxy is the 8N+1 extrema grid plus one
    golden-section polish per interior grid peak.  Raises Factor14Violation
    beyond 14 (which no degree-N polynomial can reach).
    """
    if (roots is None) == (cheb_coeffs is None):
        raise ValueError("supply exactly one of roots or cheb_coeffs")
    if N == 0:
        c = 1.0 if roots is not None else float(np.asarray(cheb_coeffs).ravel()[0])
        lc = math.log(abs(c)) if c != 0.0 else -math.inf
        return {"max_ratio": 1.0, "grid_max": lc, "dense_max": lc}
    if roots is not None:
        roots = np.asarray(roots, dtype=complex)
        if len(roots) != N:
            raise ValueError("degree (root count) must equal N")

        def log_abs(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(divide="ignore"):
                return np.log(np.abs(x[:, None] - roots[None, :])).sum(axis=1)
    else:
        cheb_coeffs = np.asarray(cheb_coeffs, dtype=float)
        if len(cheb_coeffs) != N + 1 or cheb_coeffs[-1] == 0.0:
            raise ValueError("coefficient length must be N+1 with nonzero lead")

        def log_abs(x):
            with np.errstate(divide="ignore"):
                return np.log(np.abs(np.polynomial.chebyshev.chebval(x, cheb_coeffs)))

    grid_max = log_abs(cheb_grid(N)).max()
    dense = np.cos(np.pi * np.arange(8 * N + 1) / (8 * N))[::-1]  # ascending
    vals = log_abs(dense)
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    dense_max = vals.max()
    if len(interior):
        peak_max = _golden_max_vec(log_abs, dense[interior - 1], dense[interior + 1])
        dense_max = max(dense_max, peak_max.max())
    ratio = math.exp(dense_max - grid_max)
    if ratio > 14.0:
        raise Factor14Violation(f"sup ratio {ratio} exceeds 14")
    return {"max_ratio": ratio, "grid_max": grid_max, "dense_max": dense_max}


@dataclass
class MaxRecord:
    """Grid maximum of the centered field for one sampled spectrum."""

    N: int
    seed: int
    m_star: float
    m_star_reg: float
    y: float


def ordering_constant(model):
    """Shift constant for the off-axis ordering: pi * sup rho (exact bound)."""
    return math.pi * model.rho_max


def _grid_maxima(spectrum, model, y):
    grid = cheb_grid(spectrum.N)
    logs = _log_abs_sum(spectrum.eigenvalues, grid)
    center = -model.g_tilde_grid(grid)
    m_star = float((logs - spectrum.N * center).max())
    m_star_reg = math.nan
    if y is not None:
        shift = y / spectrum.N
        logs_s = _log_abs_sum(spectrum.eigenvalues, grid, shift=shift)
        center_s = model.g_grid(grid - 1j * shift).real
        m_star_reg = float((logs_s - spectrum.N * center_s).max())
    return m_star, m_star_reg


def regularized_max(spectrum, model, y):
    """Grid max of Q on the real grid and on the grid shifted by -iy/N.

    Checks the ordering m_star <= m_star_reg + C_V y with
    C_V = pi * sup rho (the exact equilibrium shift bound).
    """
    if y < 1.0:
        raise ValueError("shift parameter y must be >= 1")
    m_star, m_star_reg = _grid_maxima(spectrum, model, y)
    c_v = ordering_constant(model)
    if m_star > m_star_reg + c_v * y + CV_MARGIN:
        raise AssertionError(
            f"ordering violated: {m_star} > {m_star_reg} + {c_v}*{y}"
        )
    return MaxRecord(N=spectrum.N, seed=spectrum.seed, m_star=m_star,
                     m_star_reg=m_star_reg, y=y)


def max_experiment(model, N, n_samples, y, seed, threads=1):
    """Per-sample grid maxima of the centered field, plus a quartile summary.

    Deterministic in (model, N, n_samples, y, seed): sample i always draws
    from the substream derived for index i, whatever the thread count.
    """
    if model.name != "gue":
        raise ValueError("the exact sampler covers the quadratic model only")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")

    def one(i):
        spec = sample_spectrum_gue(N, task_seed(seed, i))
        if y is not None:
            return regularized_max(spec, model, y)
        m_star, _ = _grid_maxima(spec, model, None)
        return MaxRecord(N=N, seed=spec.seed, m_star=m_star, m_star_reg=math.nan,
                         y=math.nan)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, range(n_samples)))
    else:
        records = [one(i) for i in range(n_samples)]

    logN = math.log(N)
    ratio = np.array([r.m_star for r in records]) / logN
    second = np.array([r.m_star for r in records]) - (logN - 0.75 * math.log(logN))
    summary = {
        "N": N,
        "n_samples": n_samples,
        "y": y,
        "seed": seed,
        "ratio_quartiles": [float(v) for v in np.percentile(ratio, [25, 50, 75])],
        "second_order_quartiles": [float(v) for v in np.percentile(second, [25, 50, 75])],
    }
    return records, summary


def experiment_rows(records):
    """Rows for the experiment CSV (see EXPERIMENT_CSV_FIELDS)."""
    rows = []
    for i, r in enumerate(records):
        logN = math.log(r.N)
        rows.append([r.N, i, r.m_star, r.m_star / logN,
                     r.m_star - (logN - 0.75 * math.log(logN))])
    return rows

