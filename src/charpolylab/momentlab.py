"""Mixed-exponential-moment verification and the second-moment lower-bound
simulator: the matching-lemma functional, barrier events on ray grids, and
the Cauchy-Schwarz counting experiment.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._lapack import one_blas_thread
from .charpoly import exp_moment_field
from .gaussfield import exp_moment_g, kernel_g, sample_gauss
from .hyperbolic import pseudo_dist, ray_point

__all__ = [
    "LowerBoundParams",
    "PairConfiguration",
    "LowerBoundResult",
    "omega_grid",
    "mem_ratio",
    "matching_subset_sup",
    "pair_config_validate",
    "random_pair_configuration",
    "in_tube",
    "branch_depth",
    "lower_bound_mc",
]


def mem_ratio(table, bias):
    """E e^{B(Z)} / E e^{B(G)}: the mixed-exponential-moment comparison."""
    return exp_moment_field(table, bias) / exp_moment_g(bias)


def _log_dist_table(P):
    """log pseudo_dist over pairs of P, 0 where two points coincide; each pair
    is evaluated once, as pseudo_dist is symmetric bit for bit."""
    out = np.zeros((len(P), len(P)))
    for i, k in itertools.combinations(range(len(P)), 2):
        if P[i] != P[k]:
            out[i, k] = out[k, i] = math.log(pseudo_dist(P[i], P[k]))
    return out


def matching_subset_sup(config):
    """Brute-force sup of L(T, S) over all subsets T of Z, S of W.

    Scores every (T, S) pair at once: with M the 2^n x n subset-indicator
    matrix (row t has a 1 at i when bit i of t is set) and the log-distance
    matrices lzw, lzz, lww, log L(T, S) is entry (t, s) of
    M lzw M^T + (1-M) lzw (1-M)^T - den_Z[t] - den_W[s], where
    den_Z = rowsum((M lzz) o (1-M)) and likewise den_W.  Exact for k + l <= 5.
    """
    Z = [complex(z) for z in config.Z]
    W = [complex(w) for w in config.W]
    n = len(Z)
    lzw = np.array([[math.log(pseudo_dist(z, w)) for w in W] for z in Z])
    lzz, lww = _log_dist_table(Z), _log_dist_table(W)
    M = (np.arange(2 ** n)[:, None] >> np.arange(n) & 1).astype(float)
    Mc = 1.0 - M
    num = M @ lzw @ M.T + Mc @ lzw @ Mc.T
    den_z = ((M @ lzz) * Mc).sum(axis=1)
    den_w = ((M @ lww) * Mc).sum(axis=1)
    return math.exp((num - den_z[:, None] - den_w[None, :]).max())


@dataclass
class PairConfiguration:
    """k+l pairs (z_j, w_j): the first l tight, the last k epsilon-separated."""

    pairs: list
    ell_paired: int
    epsilon: float

    @property
    def Z(self):
        return [z for z, _ in self.pairs]

    @property
    def W(self):
        return [w for _, w in self.pairs]


def pair_config_validate(config):
    """Literal check of the two pair-configuration conditions in the
    pseudohyperbolic metric."""
    Z, W = config.Z, config.W
    n = len(config.pairs)
    ell = config.ell_paired
    eps = config.epsilon
    for j in range(ell):
        zj, wj = config.pairs[j]
        if zj == wj:
            return False
        gap = pseudo_dist(zj, wj)
        for w in W:
            if w != wj and pseudo_dist(w, wj) < gap:
                return False
        for z in Z:
            if z != zj and pseudo_dist(z, zj) < gap:
                return False
    for i in range(ell, n):
        for j in range(ell, n):
            if i < j:
                if min(pseudo_dist(Z[i], Z[j]), pseudo_dist(W[i], W[j])) < eps:
                    return False
            if pseudo_dist(Z[i], W[j]) < eps:
                return False
    return True


def _scatter_centers(rng, count, min_sep):
    pts = []
    for _ in range(5000):
        z = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if all(pseudo_dist(z, p) >= min_sep for p in pts):
            pts.append(z)
            if len(pts) == count:
                return pts
    raise RuntimeError("could not scatter separated centers; lower epsilon")


def random_pair_configuration(k, ell, epsilon, rng):
    """A random valid pair-configuration: l tight pairs plus k separated ones."""
    centers = _scatter_centers(rng, ell + 2 * k, 1.5 * epsilon)
    pairs = []
    for j in range(ell):
        c = centers[j]
        off = 0.05 * epsilon * cmath.exp(2j * math.pi * rng.random())
        pairs.append((c, c + off * (1 - abs(c) ** 2)))
    for i in range(k):
        pairs.append((centers[ell + 2 * i], centers[ell + 2 * i + 1]))
    config = PairConfiguration(pairs=pairs, ell_paired=ell, epsilon=epsilon)
    if not pair_config_validate(config):
        # e.g. a tight pair's offset rounded away at a tiny epsilon
        raise RuntimeError(f"generator produced an invalid configuration at "
                           f"epsilon={epsilon:g}")
    return config


@dataclass
class LowerBoundParams:
    """Geometry of the second-moment experiment at depth n.

    Derived quantities: n0 = floor((1-delta) n), barrier heights
    b_k = k floor(n0/eta), the reference index r (first b_k beyond which the
    whole sphere lies within N^{-2 delta} of the boundary), and the angular
    lattice of spacing e^{-n0} centered at i.  When r = eta the barrier
    window is empty and the indicators are vacuous (flagged, not an error).
    """

    n: int
    delta: float
    eta: int
    n0: int = field(init=False)
    b: tuple = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        if not 0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 1/2)")
        if self.eta < 1 or self.n < 2:
            raise ValueError("need eta >= 1, n >= 2")
        if self.n > 12:
            raise ValueError("depth capped at 12 (point count grows like e^n)")
        self.n0 = int((1.0 - self.delta) * self.n)
        step = self.n0 // self.eta
        if step < 1:
            raise ValueError("eta too large: barrier step underflows")
        self.b = tuple(k * step for k in range(self.eta + 1))
        thresh = 1.0 - self.n_eff ** (-2.0 * self.delta)
        for k in range(self.eta + 1):
            if math.tanh(self.b[k] / 2.0) >= thresh:
                self.r = k
                break
        else:
            raise ValueError("no barrier height reaches the boundary layer")

    @property
    def n_eff(self):
        return math.exp(self.n)

    @property
    def barrier_vacuous(self):
        return self.r >= self.eta

    def tube_halfwidth(self):
        return self.eta * math.sqrt(self.n)


def omega_grid(params):
    """Angular lattice e^{i(pi/2 + h e^{-n0})}, |h| < N^{-delta} e^{n0}."""
    hmax = math.ceil(params.n_eff ** (-params.delta) * math.exp(params.n0)) - 1
    hs = np.arange(-hmax, hmax + 1)
    return np.exp(1j * (math.pi / 2.0 + hs * math.exp(-params.n0)))


def branch_depth(angles, n0):
    """Branching heights of rays whose angles differ by `angles`: -log|omega -
    omega'| = -log(2 sin(angle/2)) rounded and clipped to [0, n0] (n0 at 0).

    This is the quantity the two-point estimates are binned by; capping at n0
    (rather than flooring there) is what makes the well-separated and
    nearly-parallel regimes distinguishable.
    """
    with np.errstate(divide="ignore"):
        depth = -np.log(2.0 * np.sin(np.asarray(angles, dtype=float) / 2.0))
    return np.clip(np.round(depth), 0, n0).astype(int)


def _ray_cov(ha, hb, angles):
    """cov_g(omega zeta_ha, omega' zeta_hb) for rays whose angles differ by
    `angles`: -(1/4) log((1 - rho_a rho_b)^2 + 4 rho_a rho_b sin^2(angle/2)),
    rho = tanh(h/2), with 1 - rho_a rho_b = u_a + rho_a u_b, u = 1 - rho =
    2/(e^h + 1), so that no near-boundary value cancels."""
    ra, rb = ray_point(ha), ray_point(hb)
    gap = 2.0 / (math.exp(ha) + 1.0) + ra * 2.0 / (math.exp(hb) + 1.0)
    return -0.25 * np.log(gap ** 2 + 4.0 * ra * rb * np.sin(angles / 2.0) ** 2)


def in_tube(barrier_vals, ref_vals, params):
    """True where the field at omega zeta_{b_k}, r < k <= eta (last axis of
    barrier_vals), stays in the tube around the linear profile b_k - b_r above
    ref_vals, the field at the recentering point; vacuous for an empty window.
    """
    rise = np.array(params.b[params.r + 1:]) - params.b[params.r]
    dev = barrier_vals - ref_vals[..., None] - rise
    return (np.abs(dev) <= params.tube_halfwidth()).all(axis=-1)


@dataclass
class LowerBoundResult:
    """Empirical output of the second-moment experiment; its asdict is
    lowerbound-sim's JSON record."""

    n: int
    delta: float
    eta: int
    r: int
    n0: int
    b: list
    n_omega: int
    n_samples: int
    barrier_vacuous: bool
    p_z_positive: float
    p_z_se: float
    cs_ratio: float
    cs_ratio_se: float
    one_point: dict
    per_m_bins: list
    field_max_exceed_frac: float
    bias_max_exceed_frac: float


def _by_lag(fill, op, *args):
    """op(*args), m x m for m the last argument's last length, written to the
    left half of an m x 2m buffer whose right half holds fill, and viewed so
    that its diagonal L is column L: view row i is buffer columns i..i+m-1."""
    m = args[-1].shape[-1]
    buf = np.empty((m, 2 * m))
    buf[:, m:] = fill
    op(*args, out=buf[:, :m])
    return np.lib.stride_tricks.as_strided(
        buf, (m, m), (buf.strides[0] + buf.itemsize, buf.itemsize), writeable=False)


def _depth_bins(Y, ey, exact, depth, b_ref, slack):
    """The two-point table: over the pairs i < j of each branch depth m, the
    means of E[Y_i Y_j] and of the exact Gaussian E e^{B_i + B_j}, each over
    the mean of E Y_i E Y_j, and the largest exact / (product e^{m - b_ref + slack}).

    exact and depth are indexed by the lag L = j - i, on which alone they
    depend over the ray lattice, and a depth's pairs are the m - L pairs of
    each of its lags L >= 1: the m x m tables enter by diagonal sums or minima."""
    m = len(ey)
    emp = _by_lag(0.0, np.matmul, Y.T, Y).sum(axis=0) / len(Y)
    low = _by_lag(np.inf, np.multiply.outer, ey, ey).min(axis=0)
    ind = np.correlate(ey, ey, "full")[m - 1:]
    n_pairs = m - np.arange(m)
    bins = []
    for mval in np.flatnonzero(np.bincount(depth[1:])).tolist():
        lags = np.flatnonzero(depth[1:] == mval) + 1
        e_ind = ind[lags].sum()
        lemma_bound = exact[lags] / (low[lags] * math.exp(mval - b_ref + slack))
        bins.append({
            "m": mval,
            "n_pairs": int(n_pairs[lags].sum()),
            "factorization_ratio": float(emp[lags].sum() / e_ind),
            "exact_pair_over_product": float(n_pairs[lags] @ exact[lags] / e_ind),
            "lemma_bound_constant": float(lemma_bound.max()),
        })
    return bins


@one_blas_thread()
def lower_bound_mc(params, n_samples, seed):
    """Sample the comparison field on the ray grid and run the biased
    second-moment bookkeeping.

    Each ray statistic is recentered at its own base point:
    Y(omega) = exp(2 W(omega zeta_{n0}) - 2 W(omega zeta_{b_r})) times the
    tube indicator along the ray.  (That recentering is what makes
    well-separated two-point expectations factorize; the common-center
    variant keeps an extra shared fluctuation inside every Y.  The max
    statistics below are recentered at the common point i zeta_{b_r}.)

    Returns (record, route).  The LowerBoundResult record holds empirical
    P[Z > 0] with its Cauchy-Schwarz lower bound (mean Z)^2 / mean(Z^2),
    the one-point comparison of E Y(omega) against the exact Gaussian value,
    a two-point table binned by branch depth (with the exact
    dropped-indicator Gaussian value per bin), and the fraction of runs
    whose center-recentered maximum clears (1 - 2 delta) n, both for the
    field increment and for the doubled bias functional.  route is the
    Gaussian sample's numerical route (FieldSample.factorization).

    It runs on a BLAS pool of one thread, whatever the caller's, so the
    factor, its residual and the products of sample_gauss and _depth_bins
    give the same bits at any OPENBLAS_NUM_THREADS.
    """
    omegas = omega_grid(params)
    m = len(omegas)
    zeta_leaf = ray_point(params.n0)
    zeta_ref = ray_point(params.b[params.r])

    points = [w * zeta_leaf for w in omegas]
    index_of = {complex(p): i for i, p in enumerate(points)}

    def intern(p):
        p = complex(p)
        if p not in index_of:
            index_of[p] = len(points)
            points.append(p)
        return index_of[p]

    ray_ref_idx = np.array([intern(w * zeta_ref) for w in omegas])
    barrier_idx = np.array([[intern(w * ray_point(params.b[k]))
                             for k in range(params.r + 1, params.eta + 1)]
                            for w in omegas], dtype=int)

    sample = sample_gauss(points, kernel_g(), n_samples, seed)
    route, vals = sample.factorization, sample.values
    del sample  # so that the del of vals below frees the values
    leaf = vals[:, :m]
    rayref = vals[:, ray_ref_idx]
    Y = leaf - rayref
    Y *= 2.0
    np.exp(Y, out=Y)
    Y *= in_tube(vals[:, barrier_idx], rayref, params)
    # the common center i zeta_ref is the h = 0 ray's reference point
    center_max = (leaf - rayref[:, m // 2][:, None]).max(axis=1)
    del vals, leaf, rayref

    Z = Y.sum(axis=1)
    p_z = float((Z > 0).mean())
    p_z_se = math.sqrt(max(p_z * (1 - p_z), 1e-12) / n_samples)

    mean_z = Z.mean()
    cs_ratio = float(mean_z ** 2 / (Z ** 2).mean())
    nb = min(10, n_samples)
    batches = np.array_split(Z, nb)
    ratios = [b.mean() ** 2 / (b ** 2).mean() for b in batches]
    cs_se = float(np.std(ratios, ddof=1) / math.sqrt(nb)) if nb > 1 else 0.0

    # over the lattice the kernel, the depth and the exact pair moment
    # depend only on the lag |i - j|; cov_bb[L] = Cov(B_i, B_{i+L}) / 4
    angles = np.arange(m) * math.exp(-params.n0)
    h_leaf, h_ref = params.n0, params.b[params.r]
    cov_bb = (_ray_cov(h_leaf, h_leaf, angles) + _ray_cov(h_ref, h_ref, angles)
              - 2.0 * _ray_cov(h_leaf, h_ref, angles))
    var_b = 4.0 * cov_bb[0]  # Var B_omega, the same on every ray by rotation

    # one-point: empirical E Y(omega) vs exact E e^{B_omega(G)}
    ey_emp = Y.mean(axis=0)
    ey_exact = math.exp(var_b / 2.0)
    op_ratio = ey_emp / ey_exact
    one_point = {
        "exact": ey_exact,
        "ratio_mean": float(op_ratio.mean()),
        "ratio_min": float(op_ratio.min()),
        "ratio_max": float(op_ratio.max()),
    }

    # two-point table binned by branch depth
    # E e^{B1+B2} = e^{(Var B1 + Var B2)/2 + Cov(B1,B2)}
    exact = np.exp(var_b + 4.0 * cov_bb)
    slack = params.n / params.eta + params.eta * math.sqrt(params.n)
    bins = _depth_bins(Y, ey_emp, exact, branch_depth(angles, params.n0),
                       h_ref, slack)

    target = (1.0 - 2.0 * params.delta) * params.n
    field_frac = float((center_max > target).mean())
    bias_frac = float((2.0 * center_max > target).mean())

    return LowerBoundResult(
        n=params.n, delta=params.delta, eta=params.eta, r=params.r,
        n0=params.n0, b=list(params.b), n_omega=m, n_samples=n_samples,
        barrier_vacuous=params.barrier_vacuous,
        p_z_positive=p_z, p_z_se=p_z_se,
        cs_ratio=cs_ratio, cs_ratio_se=cs_se,
        one_point=one_point, per_m_bins=bins,
        field_max_exceed_frac=field_frac, bias_max_exceed_frac=bias_frac,
    ), route
