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


def pseudo_dist(a, b):
    """Pseudohyperbolic distance |a-b| / |1 - a*conj(b)|, a metric bounded by 1.

    The denominator is evaluated as (1-a) + (1-conj(b)) - (1-a)(1-conj(b)),
    which keeps full relative precision when both points sit within a few
    ulps of the unit circle.  Swapping a and b conjugates it: bitwise symmetric.
    """
    if abs(a) >= 1.0 or abs(b) >= 1.0:
        raise ValueError(f"points {a}, {b}: not both in the open unit disk")
    a = complex(a)
    b = complex(b)
    u = 1.0 - a
    v = 1.0 - b.conjugate()
    return abs(a - b) / abs(u + v - u * v)


def hyp_dist(a, b):
    """Hyperbolic distance on the disk, d(0, z) = log((1+|z|)/(1-|z|)).

    a and b broadcast against each other.  Each entry is 2*atanh(pseudo_dist)
    bit for bit, stable for nearly coincident points: pseudo_dist's complex
    arithmetic in real parts, np.hypot for abs, and one math.atanh per entry
    (np.arctanh differs from it in the last bit).
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    # np.abs of a complex array may differ from abs in the last bit
    if (np.hypot(a.real, a.imag) >= 1.0).any() or (np.hypot(b.real, b.imag) >= 1.0).any():
        raise ValueError("points not all in the open unit disk")
    ur, ui, vr, vi = 1.0 - a.real, -a.imag, 1.0 - b.real, b.imag  # 1 - a, 1 - conj(b)
    den = np.hypot((ur + vr) - (ur * vr - ui * vi), (ui + vi) - (ur * vi + ui * vr))
    with np.errstate(divide="raise", invalid="raise"):  # as float division does
        rho = np.hypot(a.real - b.real, a.imag - b.imag) / den
    return np.array([2.0 * math.atanh(p) for p in rho.ravel().tolist()]).reshape(rho.shape)


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
    s = np.abs(np.sin(thetas / 2.0))
    with np.errstate(divide="ignore"):
        log_term = np.where(s > 0.0, -np.log(np.maximum(s, 1e-300)), np.inf)
    # the pair-by-pair formula's ops, in its order, in place in the two outputs
    errors = np.multiply(cosh_plus, 1.0 - cos_t)
    refined = np.multiply(cosh_minus, 1.0 + cos_t)
    errors += refined
    np.maximum(errors, 1.0, out=errors)
    np.arccosh(errors, out=errors)  # the exact distance
    np.minimum(log_term, k, out=refined)
    refined *= 2.0
    np.subtract((h + j).reshape(shape), refined, out=refined)  # the approximation
    errors -= refined
    np.abs(errors, out=refined)
    refined *= exp_k
    refined *= np.abs(thetas)
    np.copyto(refined, 0.0, where=k <= log_term)
    return errors, refined
