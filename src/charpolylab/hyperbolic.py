"""Poincare-disk geometry: metrics, the Joukowsky chart, ray points, and
the branching-distance profile.

Points are plain complex numbers.  Functions that require a point strictly
inside the unit disk raise ValueError otherwise.
"""

import math

import numpy as np

__all__ = [
    "hyp_dist",
    "pseudo_dist",
    "joukowsky",
    "ray_point",
    "branch_profile_grid",
]


def _check_disk(*points):
    for z in points:
        if abs(z) >= 1.0:
            raise ValueError(f"point {z} not in the open unit disk")


def pseudo_dist(a, b):
    """Pseudohyperbolic distance |a-b| / |1 - a*conj(b)|, a metric bounded by 1.

    The denominator is evaluated as (1-a) + (1-conj(b)) - (1-a)(1-conj(b)),
    which keeps full relative precision when both points sit within a few
    ulps of the unit circle.
    """
    _check_disk(a, b)
    a = complex(a)
    bc = complex(b).conjugate()
    u = 1.0 - a
    v = 1.0 - bc
    return abs(a - bc.conjugate()) / abs(u + v - u * v)


def hyp_dist(a, b):
    """Hyperbolic distance on the disk, d(0, z) = log((1+|z|)/(1-|z|)).

    Evaluated as 2*atanh(pseudo_dist(a, b)), which is exact for a = 0 and
    stable for nearly coincident points.
    """
    return 2.0 * math.atanh(pseudo_dist(a, b))


def joukowsky(z):
    """Joukowsky map (z + 1/z)/2; collapses the unit circle onto [-1, 1]."""
    if z == 0:
        raise ValueError("Joukowsky map is singular at z = 0")
    return (z + 1.0 / z) / 2.0


def ray_point(j):
    """The j-th point on the positive-axis ray: tanh(j/2), unit hyperbolic spacing."""
    return math.tanh(j / 2.0)


def branch_profile_grid(h, j, thetas):
    """Error of the branching approximation of d(zeta_h, e^{i theta} zeta_j)
    over a whole theta grid, for one (h, j) pair or a block of them.

    The exact distance comes from the hyperbolic law of cosines with side
    lengths h and j and angle theta between them; the approximation is
    h + j - 2*min(-log|sin(theta/2)|, h, j), exact on a common ray
    (theta = 0, where the log term is +inf).  Returns (errors, refined):
    errors = exact - approx, and refined holds |error| e^k |theta| on the
    points with k = min(h, j) > -log|sin(theta/2)| and 0 elsewhere.

    h and j broadcast against each other, and each pair broadcasts as a
    column against the grid thetas: scalars give arrays of thetas' shape,
    and a length-n j (or h) with a 1-d grid gives (n, len(thetas)) blocks.
    The theta-only terms cos theta and -log|sin(theta/2)| are computed once
    per call.  The profile is symmetric in h and j, bit for bit (cosh is
    even, and h + j and min(h, j) commute), so a sweep over all pairs needs
    only j >= h.

    cosh(h + j), cosh(h - j) and e^k stay scalar math calls, one per pair,
    gathered into a column: np.cosh and np.exp differ from math.cosh and
    math.exp in the last bit at some integer arguments in [-25, 50], and
    the scalar calls keep every row of a block bit-identical to the
    pair-by-pair evaluation.
    """
    thetas = np.asarray(thetas, dtype=float)
    h, j = np.broadcast_arrays(np.asarray(h, dtype=float), np.asarray(j, dtype=float))
    shape = h.shape + (1,) * thetas.ndim

    def per_pair(f):
        return np.array([f(a, b) for a, b in zip(h.flat, j.flat)]).reshape(shape)

    cosh_plus = per_pair(lambda a, b: 0.5 * math.cosh(a + b))
    cosh_minus = per_pair(lambda a, b: 0.5 * math.cosh(a - b))
    exp_k = per_pair(lambda a, b: math.exp(min(a, b)))
    k = np.minimum(h, j).reshape(shape)
    cos_t = np.cos(thetas)
    cosh_a = cosh_plus * (1.0 - cos_t) + cosh_minus * (1.0 + cos_t)
    exact = np.arccosh(np.maximum(cosh_a, 1.0))
    s = np.abs(np.sin(thetas / 2.0))
    with np.errstate(divide="ignore"):
        log_term = np.where(s > 0.0, -np.log(np.maximum(s, 1e-300)), np.inf)
    approx = (h + j).reshape(shape) - 2.0 * np.minimum(log_term, k)
    errors = exact - approx
    in_regime = (s > 0.0) & (k > log_term)
    refined = np.where(in_regime, np.abs(errors) * exp_k * np.abs(thetas), 0.0)
    return errors, refined
