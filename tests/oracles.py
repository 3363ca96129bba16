"""Scalar reference implementations that the tests compare the package's
vectorized or closed-form routes against.  Nothing under src/ calls them."""

import math

import numpy as np
from scipy import integrate

from charpolylab.hyperbolic import pseudo_dist


def h0_quadrature(model, N, q):
    """h_0(q) = (2 pi i)^{-1} integral of e^{-N V(x)}/(x-q) dx by quadrature,
    the oracle for orthopoly.h0_closed.

    The window [-L, L] holds all of e^{-N V} above e^{-750} for V = 2x^2.
    """
    q = complex(q)
    if q.imag == 0.0:
        raise ValueError("Cauchy transform undefined on the real axis")
    L = math.sqrt(375.0 / N) + 1.0
    pts = [q.real] if -L < q.real < L else None

    def f(x):
        return math.exp(-N * model.V(x)) / (x - q)

    re, _ = integrate.quad(lambda x: f(x).real, -L, L, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    im, _ = integrate.quad(lambda x: f(x).imag, -L, L, points=pts, limit=400,
                           epsabs=1e-15, epsrel=1e-13)
    return (re + 1j * im) / (2j * math.pi)


def mobius_to_zero(y, z):
    """Disk automorphism sending y to 0, evaluated at z: (z-y)/(1-z*conj(y))."""
    for p in (y, z):
        if abs(p) >= 1.0:
            raise ValueError(f"point {p} not in the open unit disk")
    return (z - y) / (1.0 - z * np.conj(y))


def branch_profile(h, j, theta):
    """Exact vs branching approximation of d(zeta_h, e^{i theta} zeta_j), one
    theta at a time: the oracle for hyperbolic.branch_profile_grid.

    exact  -- hyperbolic law of cosines with side lengths h and j and angle
              theta between them
    approx -- h + j - 2*min(-log|sin(theta/2)|, h, j)
    error  -- exact - approx
    """
    if h < 0 or j < 0:
        raise ValueError("ray indices must be nonnegative")
    h = float(h)
    j = float(j)
    cos_t = math.cos(theta)
    cosh_a = 0.5 * math.cosh(h + j) * (1.0 - cos_t) + 0.5 * math.cosh(h - j) * (1.0 + cos_t)
    # rounding can push cosh_a a hair below 1 for tiny h, j
    exact = math.acosh(max(cosh_a, 1.0))
    s = abs(math.sin(theta / 2.0))
    log_term = math.inf if s == 0.0 else -math.log(s)
    approx = h + j - 2.0 * min(log_term, h, j)
    return {"exact": exact, "approx": approx, "error": exact - approx}


def _pseudo_product(A, B):
    out = 1.0
    for a in A:
        for b in B:
            d = pseudo_dist(a, b)
            if d == 0.0:
                raise ValueError("coincident points in a matching product")
            out *= d
    return out


def matching_ratio(Z, W, T, S):
    """L(T, S) = d(T,S) d(T*,S*) / (d(T,T*) d(S,S*)) in pseudo distances, the
    functional whose subset sup momentlab.matching_subset_sup computes.

    T* and S* are the complements within Z and W; empty products are 1.
    """
    Z = [complex(z) for z in Z]
    W = [complex(w) for w in W]
    T = [complex(t) for t in T]
    S = [complex(s) for s in S]
    Tc = [z for z in Z if z not in T]
    Sc = [w for w in W if w not in S]
    num = _pseudo_product(T, S) * _pseudo_product(Tc, Sc)
    den = _pseudo_product(T, Tc) * _pseudo_product(S, Sc)
    return num / den
