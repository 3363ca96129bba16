"""The quadratic potential's equilibrium data and eigenvalue sampling for
the weight e^{-N V}.

V(x) = 2 x^2 is normalized so the limiting density rho is the semicircle on
[-1, 1]; its g, g_tilde and Stieltjes transform are closed forms on scalars
or arrays, and ELL_V and RHO_MAX are its Euler-Lagrange constant and sup rho.
Spectra are drawn from the exact tridiagonal realization.  The
characteristic polynomial det(x - A) of a draw comes straight from that
tridiagonal matrix, by the three-term determinant recurrence (char_poly, on
the coefficients that recurrence_coeffs forms once per block of draws),
which every Monte Carlo and grid-maximum route runs; eigenvalues (dsterf)
are solved only where they are the output (gen-spectrum) or an oracle.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _lapack
from ._rng import substream

__all__ = [
    "ELL_V",
    "RHO_MAX",
    "SUPPORT",
    "Spectrum",
    "V",
    "char_poly",
    "g",
    "g_tilde",
    "recurrence_coeffs",
    "rho",
    "sample_spectrum_gue",
    "stieltjes",
    "tridiagonal_draw",
]


def _on_arrays(f, dtype):
    """f evaluated on a 1-d array, also for a scalar: numpy's array loops may
    fuse the multiply-adds of a complex product where its scalar arithmetic
    does not, so a scalar takes a grid's loops and agrees with it bit for bit."""
    def on_arrays(x):
        x = np.asarray(x, dtype=dtype)
        return f(x.reshape(-1)).reshape(x.shape)[()]
    return on_arrays


def V(x):
    """The quadratic potential V(x) = 2 x^2."""
    return 2.0 * x * x


def rho(u):
    """The semicircle density (2/pi) sqrt(1 - u^2) on SUPPORT, 0 off it."""
    t = 1.0 - u * u
    return (2.0 / math.pi) * math.sqrt(t) if t > 0.0 else 0.0


SUPPORT = ((-1.0, 1.0),)
# the Euler-Lagrange constant 2 int log|x-u| rho(du) - V(x), and sup rho
ELL_V = -1.0 - 2.0 * math.log(2.0)
RHO_MAX = 2.0 / math.pi


# For the semicircle, g(q) = q^2 - q s + log(q+s) - 1/2 - log 2 with
# s = sqrt(q^2-1) (cut on [-1, 1], ~ q at infinity); since (q-s)(q+s) = 1
# identically, the polynomial part collapses to 1/(2(q+s)^2), stable at
# every scale.

def _gue_g(q):
    u = q + np.sqrt(q - 1.0) * np.sqrt(q + 1.0)
    return np.log(u) - math.log(2.0) + 0.5 / (u * u)


def _gue_g_tilde(x):
    # off [-1, 1] -g_tilde = g(|x|); |x| is clipped to 1 inside, where the
    # outer branch is discarded, so no log or square root sees a bad value
    a = np.maximum(np.abs(x), 1.0)
    u = a + np.sqrt(a * a - 1.0)
    return np.where(a > 1.0, -(np.log(u) - math.log(2.0) + 0.5 / (u * u)),
                    -(x * x - 0.5 - math.log(2.0)))


def _gue_stieltjes(q):
    return 2.0 / (q + np.sqrt(q - 1.0) * np.sqrt(q + 1.0))


# g(q) = int log(q-u) rho(du), analytic off (-inf, 1]; g_tilde(x) =
# -int log|x-u| rho(du) on the real axis; stieltjes(q) = g'(q).  Each takes a
# scalar (giving a scalar) or an array; tests/oracles.py holds their
# quadratures.
g = _on_arrays(_gue_g, complex)
g_tilde = _on_arrays(_gue_g_tilde, float)
stieltjes = _on_arrays(_gue_stieltjes, complex)


@dataclass
class Spectrum:
    """One draw (d, e) of the tridiagonal model.

    The N eigenvalues of T(d, e) / (2 sqrt N), ascending, are solved by
    _lapack.dsterf on first read.  A block of draws stacked along a leading
    sample axis (as the max experiment evaluates them) has no eigenvalues.
    """

    N: int
    d: np.ndarray
    e: np.ndarray

    @cached_property
    def eigenvalues(self):
        return _lapack.dsterf(self.d, self.e) / (2.0 * math.sqrt(self.N))


def tridiagonal_draw(N, rng, size=()):
    """Draws (d, e) of the beta = 2 Hermite tridiagonal model
    (Dumitriu-Edelman, J. Math. Phys. 43, 2002): d_i ~ N(0, 1) and
    e_k ~ sqrt(chi^2_{2(N-k)}/2) for k = 1 .. N-1, with shapes size + (N,)
    and size + (N-1,).

    T(d, e) / (2 sqrt N) has the eigenvalue law
    ~ Delta(lambda)^2 e^{-2N sum lambda^2}.  One draw (size=()) and a batch
    (size=(n,)) consume the stream the same way: d first, then e.
    """
    size = tuple(size)
    d = rng.standard_normal(size + (N,))
    e = np.empty(size + (N - 1,))
    # chi^2_{2k}/2 is standard_gamma(k), bit for bit, as numpy draws
    # chisquare(2k) as 2 standard_gamma(k); at N = 1 nothing is drawn
    rng.standard_gamma(np.arange(N - 1, 0, -1), out=e)
    return d, np.sqrt(e, out=e)


# steps between power-of-two rescalings in char_poly
_RESCALE = 32


def recurrence_coeffs(d, e):
    """char_poly's coefficients a = d / (2 sqrt N) and b^2 = (e / (2 sqrt N))^2
    of a draw (d, e), written over d and e and returned as (a, b2).

    In place, as the draws are the caller's own arrays and are read once:
    a block of coefficients costs no memory beside its draw.  The bits are
    those of d / s and np.square(e / s).
    """
    s = 2.0 * math.sqrt(d.shape[-1])
    np.divide(d, s, out=d)
    np.divide(e, s, out=e)
    return d, np.square(e, out=e)


def char_poly(a, b2, xs):
    """det(x - A) at each x in xs for A = T(d, e) / (2 sqrt N), as
    (mantissa, exponent) arrays with value mantissa * 2**exponent.

    a and b2 are the recurrence coefficients (recurrence_coeffs) of draws of
    tridiagonal_draw, with or without leading sample axes.  The state, and
    the result, take the broadcast shape of xs against a.shape[:-1], real
    for real xs: xs[:, None] against one sample axis gives points x samples,
    a[:, None] and b2[:, None] against a 1-d xs give samples x points.
    Every step is four numpy calls on the whole state, so put the longer
    axis last, where numpy's inner loop runs.  The three-term recurrence is
    D_k = (x - a_k) D_{k-1} - b_{k-1}^2 D_{k-2}.  Every _RESCALE steps D_k
    and D_{k-1} are divided by 2**s, s the binary exponent of |D_k|: a
    power-of-two scale is exact, so no determinant over- or underflows and,
    wherever the unscaled recurrence stays in double range,
    mantissa * 2**exponent is its value bit for bit.
    """
    N = a.shape[-1]
    xs = np.asarray(xs)
    D = xs - a[..., 0]
    Dm1 = np.ones_like(D)
    t = np.empty_like(D)
    exps = np.zeros(D.shape, dtype=np.int64)
    for k in range(1, N):
        np.subtract(xs, a[..., k], out=t)
        t *= D
        Dm1 *= b2[..., k - 1]
        np.subtract(t, Dm1, out=Dm1)
        D, Dm1 = Dm1, D
        if k % _RESCALE == 0:
            shift = np.frexp(np.abs(D))[1]
            scale = np.ldexp(1.0, -shift)
            D *= scale
            Dm1 *= scale
            exps += shift
    return D, exps


def sample_spectrum_gue(N, seed):
    """Exact draw from the eigenvalue law ~ Delta(lambda)^2 e^{-2N sum lambda^2},
    from the substream (seed, 0)."""
    d, e = tridiagonal_draw(N, substream(seed, 0))
    return Spectrum(N=N, d=d, e=e)
