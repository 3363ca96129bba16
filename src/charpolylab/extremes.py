"""The centered log-determinant field on and near [-1, 1], its maximum over
the Chebyshev grid, off-axis regularization, and the law-of-large-numbers
experiment.

The max experiment never solves for eigenvalues.  Q_N on the 2N+1 grid
(and on the grid shifted by -iy/N) is log|det(x - A)| from the tridiagonal
model's determinant recurrence (ensemble.char_poly).  The grid and the
shifted grid are two passes, the grid in real arithmetic and only the
shifted grid in complex, and each pass runs on blocks of samples sized so
that each (block x points) working array stays in a 2 MiB L2 cache.  Each
(pass, block) task draws its own block and forms its recurrence
coefficients once.  With more than one thread the tasks run on forked
worker processes, the costlier shifted pass first, each pass in at least
as many blocks as workers.  A block's values are elementwise in its
samples, so outputs are the same for any thread count and blocking.
"""

import math
from functools import partial

import numpy as np

from ._rng import task_seed
from .ensemble import (RHO_MAX, Spectrum, char_poly, g, g_tilde,
                       recurrence_coeffs, sample_spectrum_gue)

__all__ = [
    "cheb_grid",
    "factor14_check",
    "Factor14Violation",
    "OrderingViolation",
    "max_experiment",
    "CV_MARGIN",
    "C_V",
]

# shift constant of the off-axis ordering: pi * sup rho, the exact bound
C_V = math.pi * RHO_MAX
# slack over the exact shift bound C_V y, absorbing grid rounding
CV_MARGIN = 1e-9


class Factor14Violation(ArithmeticError):
    """A polynomial beat the factor-14 grid bound (theoretically impossible)."""


class OrderingViolation(ArithmeticError):
    """A grid maximum beat its off-axis bound m_star_reg + C_V y (impossible)."""


# bytes of one (block x points) working array of a grid pass: its three
# arrays stay resident in a per-core L2 cache of 2 MiB
_BLOCK_BYTES = 1 << 19


def cheb_grid(N):
    """x_k = cos(pi (k-1) / 2N) for k = 1..2N+1, descending from 1 to -1."""
    return np.cos(np.pi * np.arange(2 * N + 1) / (2 * N))


def _golden_max_vec(f, lo, hi):
    """Vectorized golden-section maximization of f on brackets [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        go_right = fc < fd
        a = np.where(go_right, c, a)
        b = np.where(go_right, b, d)
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = f(c), f(d)
    mid = 0.5 * (a + b)
    return np.maximum(f(mid), np.maximum(fc, fd))


# points per block of _root_log_sums: a (256 x degree) complex block is
# 1 MiB at degree 256, against 8 MiB for the whole 8N+1 dense grid
_LOGSUM_ROWS = 256


def _root_log_sums(x, roots):
    """sum_r log|x_i - r| for each x_i, _LOGSUM_ROWS points at a time; each
    row sums on its own, so the bits are those of one (len(x) x len(roots))
    broadcast."""
    out = np.empty(len(x))
    with np.errstate(divide="ignore"):
        for lo in range(0, len(x), _LOGSUM_ROWS):
            mag = np.abs(x[lo:lo + _LOGSUM_ROWS, None] - roots)
            out[lo:lo + len(mag)] = np.log(mag, out=mag).sum(axis=1)
    return out


def factor14_check(N, roots=None, cheb_coeffs=None):
    """Ratio of the dense-grid sup of |P| on [-1,1] to its Chebyshev-grid max.

    P has degree exactly N >= 1, given either by its roots or by coefficients
    in the Chebyshev basis.  The dense proxy is the 8N+1 extrema grid
    cos(pi j / 8N) plus a golden-section polish of each interior grid peak
    that can win.  Raises Factor14Violation beyond 14 (which no degree-N
    polynomial can reach).  Node j = 4k is bitwise the Chebyshev node
    cos(pi k / 2N), as pi*4k/8N rounds exactly like pi*k/2N, so the grid max
    is read off the dense values.  Real roots stay real: |x - r| is the
    complex hypot(x - r, 0) bit for bit.  From Chebyshev coefficients the
    dense values are one DCT-I of the zero-padded coefficients, and a polish
    point is sum_k c_k cos(k arccos x) as an elementwise product and sum, so
    no BLAS pool enters its bits.

    Only peaks within log(1/0.78) of the dense max are polished, and none of
    the others could raise the max.  Let M = sup |P|, reached at angle t0
    where P has phase phi.  Re(e^{-i phi} P(cos t)) is a real trigonometric
    polynomial of degree N with maximum M, so by the Bernstein-Szego
    inequality it stays at or above M cos(N d) at distance d <= pi/N from t0;
    a dense node lies within pi/(16N), so the dense max is at least
    cos(pi/16) M > 0.98 M.  Each point of a peak's bracket lies within
    pi/(16N) of one of its three nodes, none above the peak node, and
    Bernstein's |dP/dt| <= N M bounds the rise over that distance by
    pi M / 16: a peak below 0.78 times the dense max keeps its whole bracket
    below (0.78 + pi/16) M < 0.977 M.  Brackets are polished elementwise, so
    the kept peaks get the bits they get with every peak polished.
    """
    if (roots is None) == (cheb_coeffs is None):
        raise ValueError("supply exactly one of roots or cheb_coeffs")
    if N < 1:
        raise ValueError("N must be >= 1")
    dense = np.cos(np.pi * np.arange(8 * N + 1) / (8 * N))[::-1]  # ascending
    if roots is not None:
        roots = np.asarray(roots, dtype=complex)
        if len(roots) != N:
            raise ValueError("degree (root count) must equal N")
        if not roots.imag.any():
            roots = roots.real
        log_abs = partial(_root_log_sums, roots=roots)
        vals = log_abs(dense)
    else:
        cheb_coeffs = np.asarray(cheb_coeffs, dtype=float)
        if len(cheb_coeffs) != N + 1 or cheb_coeffs[-1] == 0.0:
            raise ValueError("coefficient length must be N+1 with nonzero lead")
        k = np.arange(N + 1)

        def log_abs(x):
            terms = np.cos(np.arccos(x)[:, None] * k) * cheb_coeffs
            with np.errstate(divide="ignore"):
                return np.log(np.abs(terms.sum(axis=1)))

        # even extension of length 16N: its FFT at j = 0..8N is
        # c_0 + sum_k c_k cos(pi j k / 8N), descending in x
        ext = np.zeros(16 * N)
        ext[0] = cheb_coeffs[0]
        ext[1:N + 1] = ext[:-N - 1:-1] = cheb_coeffs[1:] / 2.0
        with np.errstate(divide="ignore"):
            vals = np.log(np.abs(np.fft.rfft(ext).real))[::-1]

    grid_max = vals[::4].max()
    dense_max = vals.max()
    interior = np.flatnonzero((vals[1:-1] >= vals[:-2]) & (vals[1:-1] >= vals[2:])) + 1
    interior = interior[vals[interior] > dense_max - math.log(1.0 / 0.78)]
    if len(interior):
        peak_max = _golden_max_vec(log_abs, dense[interior - 1], dense[interior + 1])
        dense_max = max(dense_max, peak_max.max())
    ratio = math.exp(dense_max - grid_max)
    if ratio > 14.0:
        raise Factor14Violation(f"sup ratio {ratio} exceeds 14")
    return {"max_ratio": ratio, "grid_max": grid_max, "dense_max": dense_max}


def _second_order_center(N):
    """log N - (3/4) log log N, the second-order centering of the maximum."""
    return math.log(N) - 0.75 * math.log(math.log(N))


def _grid_maxima(block, grid, y):
    """Max of Q_N over one grid pass, for each draw of a block.

    block is a Spectrum whose (d, e) carry a leading sample axis; they are
    overwritten with their recurrence coefficients.  grid is (x, center):
    the Chebyshev grid x = cheb_grid(block.N) and the pass's centering, so
    that Q_N = log|det(x' - A)| + center on the pass's points x'.  Those
    are x itself when y is None, in real arithmetic, with center
    N g_tilde(x), and x - iy/N otherwise, in complex, with center
    -N Re g(x - iy/N).
    """
    x, center = grid
    xs = x if y is None else x - 1j * (y / block.N)
    a, b2 = recurrence_coeffs(block.d, block.e)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m, e = char_poly(a[:, None], b2[:, None], xs)
        return (np.log(np.abs(m)) + e * math.log(2.0) + center).max(axis=1)


def _pass_block(N, seed, grid, center, shift, lo, hi):
    """_grid_maxima on the grid shifted by shift (None: the grid itself) for
    samples lo..hi-1, each drawn from its own substream: one pool task."""
    spectra = [sample_spectrum_gue(N, task_seed(seed, i)) for i in range(lo, hi)]
    block = Spectrum(N=N, d=np.stack([s.d for s in spectra]),
                     e=np.stack([s.e for s in spectra]))
    return _grid_maxima(block, (grid, center), shift)


def _quartiles(x):
    """np.percentile(x, [25, 50, 75]) as floats, without the np.unique call
    that imports numpy.ma: numpy's linear rule interpolates the sorted
    values at index (n - 1) q in its _lerp form, a + d g below g = 1/2 and
    b - d (1 - g) from there; a nan anywhere gives nan.  Bit for bit equal,
    but for the sign of a zero result where -0.0 ties with 0.0 (np.sort and
    numpy's partition may order the two differently).
    """
    s = np.sort(x)
    if np.isnan(s[-1]):
        return [float(s[-1])] * 3
    out = []
    for q in (0.25, 0.5, 0.75):
        k = (len(s) - 1) * q
        lo = math.floor(k)
        g = k - lo
        a, b = s[lo], s[min(lo + 1, len(s) - 1)]
        d = b - a
        out.append(float(b - d * (1 - g) if g >= 0.5 else a + d * g))
    return out


def max_experiment(N, n_samples, y, seed, threads=1):
    """Per-sample grid maxima of the centered field, plus a quartile summary.

    Returns (columns, summary).  columns holds the experiment CSV's
    per-sample columns by name, each a float64 array over the samples:
    the grid maximum m_star, its ratio to log N and its second-order
    centering, whose quartiles the summary reports, and m_star_reg, the max
    over the grid shifted by -iy/N (NaN where y is None).  Deterministic in
    (N, n_samples, y, seed): sample i always draws from the substream
    derived for index i, whatever the thread count.  With y set, every
    sample is checked against the ordering m_star <= m_star_reg + C_V y,
    which a non-finite maximum fails too (the shifted grid overflows beyond
    y/N ~ 2e9).
    """
    x = cheb_grid(N)
    # (shift, centering) of each pass: the grid, and the grid shifted by -iy/N
    passes = [(None, N * g_tilde(x))]
    if y is not None:
        # g's u * u overflows beyond y/N ~ 7e153: a non-finite centre, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            passes.append((y, -N * g(x - 1j * (y / N)).real))
    tasks = []
    # the costliest pass first: the shifted grid, in complex
    for shift, center in reversed(passes):
        # at least one block per worker, as even as the cache budget
        # allows; 2N+1 points per sample, float64 on the grid and
        # complex128 off it
        per_sample = (2 * N + 1) * (8 if shift is None else 16)
        n_blocks = min(n_samples, max(threads, -(-n_samples * per_sample // _BLOCK_BYTES)))
        cuts = [n_samples * k // n_blocks for k in range(n_blocks + 1)]
        tasks += [(N, seed, x, center, shift, lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    if threads == 1:
        results = list(map(_pass_block, *zip(*tasks)))
    else:
        # fork, not spawn: a forked worker starts with the modules loaded,
        # where a spawned one would import them again (about 0.14 s), and
        # the pool forks its workers before it starts a thread of its own
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_pass_block, *zip(*tasks)))
    # rows m_star and m_star_reg, NaN where no pass ran
    maxima = np.full((2, n_samples), math.nan)
    for (*_, shift, lo, hi), m in zip(tasks, results):
        maxima[0 if shift is None else 1, lo:hi] = m
    m_star, m_star_reg = maxima
    if y is not None:
        for a, b in zip(m_star, m_star_reg):
            if not (math.isfinite(a) and math.isfinite(b)):
                raise OrderingViolation(
                    f"non-finite maximum: m_star = {a}, m_star_reg = {b} at y = {y}")
            if a > b + C_V * y + CV_MARGIN:
                raise OrderingViolation(f"ordering violated: {a} > {b} + {C_V}*{y}")
    columns = {
        "m_star": m_star,
        "m_star_over_logN": m_star / math.log(N),
        "m_star_centered_2nd_order": m_star - _second_order_center(N),
        "m_star_reg": m_star_reg,
    }
    summary = {
        "N": N,
        "n_samples": n_samples,
        "y": y,
        "seed": seed,
        "ratio_quartiles": _quartiles(columns["m_star_over_logN"]),
        "second_order_quartiles": _quartiles(columns["m_star_centered_2nd_order"]),
    }
    return columns, summary
