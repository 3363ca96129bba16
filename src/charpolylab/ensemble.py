"""Equilibrium models and eigenvalue sampling for weights e^{-N V}.

The packaged model is the quadratic potential V(x) = 2 x^2, normalized so
the limiting density is the semicircle on [-1, 1]; general one-cut models
can be built from a user-supplied density.  Spectra are drawn from the exact
tridiagonal realization (quadratic V only).
"""

import ctypes
import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cython_lapack, lapack

from ._rng import substream

# The quadrature routes below import scipy.integrate (which loads
# scipy.optimize and scipy.sparse) when first called: the closed-form
# quadratic model never reaches them, so no command pays for that import.

__all__ = [
    "EquilibriumModel",
    "Spectrum",
    "gue_model",
    "make_model",
    "sample_spectrum_gue",
]


def _quad_tilde_g(rho, support, x):
    """-integral of log|x-u| rho(u) du by adaptive quadrature."""
    from scipy import integrate

    total = 0.0
    for a, b in support:
        # u = mid + hw*cos(phi) absorbs the square-root edge factor
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)

        def integrand(phi):
            u = mid + hw * math.cos(phi)
            du = hw * math.sin(phi)
            diff = abs(x - u)
            if diff == 0.0:
                return 0.0
            return math.log(diff) * rho(u) * du

        sing = []
        if a < x < b:
            sing = [math.acos(min(1.0, max(-1.0, (x - mid) / hw)))]
        val, _ = integrate.quad(integrand, 0.0, math.pi, points=sing or None,
                                limit=200, epsabs=1e-13, epsrel=1e-13)
        total += val
    return -total


def _quad_g(rho, support, q):
    """integral of log(q-u) rho(u) du (principal branch) by quadrature."""
    from scipy import integrate

    total = 0.0 + 0.0j
    for a, b in support:
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)

        def integrand_re(phi):
            u = mid + hw * math.cos(phi)
            return math.log(abs(q - u)) * rho(u) * hw * math.sin(phi)

        def integrand_im(phi):
            u = mid + hw * math.cos(phi)
            return np.angle(q - u) * rho(u) * hw * math.sin(phi)

        re, _ = integrate.quad(integrand_re, 0.0, math.pi, limit=200,
                               epsabs=1e-13, epsrel=1e-13)
        im, _ = integrate.quad(integrand_im, 0.0, math.pi, limit=200,
                               epsabs=1e-13, epsrel=1e-13)
        total += re + 1j * im
    return total


def _quad_stieltjes(rho, support, q):
    from scipy import integrate

    total = 0.0 + 0.0j
    for a, b in support:
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)

        def integrand_re(phi):
            u = mid + hw * math.cos(phi)
            return (1.0 / (q - u)).real * rho(u) * hw * math.sin(phi)

        def integrand_im(phi):
            u = mid + hw * math.cos(phi)
            return (1.0 / (q - u)).imag * rho(u) * hw * math.sin(phi)

        re, _ = integrate.quad(integrand_re, 0.0, math.pi, limit=200,
                               epsabs=1e-13, epsrel=1e-13)
        im, _ = integrate.quad(integrand_im, 0.0, math.pi, limit=200,
                               epsabs=1e-13, epsrel=1e-13)
        total += re + 1j * im
    return total


@dataclass
class EquilibriumModel:
    """Potential V, equilibrium density rho, and its log-potential data.

    g(q)       -- integral of log(q-u) rho(du), analytic off (-inf, right edge]
    g_tilde(x) -- -integral of log|x-u| rho(du) on the real axis
    stieltjes  -- g'(q)
    ell_v      -- the Euler-Lagrange constant 2*int log|x-u| rho(du) - V(x)
    """

    name: str
    V: object
    rho: object
    support: list
    ell_v: float = None
    rho_max: float = None
    _g: object = field(default=None, repr=False)
    _g_tilde: object = field(default=None, repr=False)
    _stieltjes: object = field(default=None, repr=False)
    _g_vec: object = field(default=None, repr=False)
    _g_tilde_vec: object = field(default=None, repr=False)

    def g(self, q):
        if self._g is not None:
            return self._g(q)
        return _quad_g(self.rho, self.support, q)

    def g_tilde(self, x):
        if self._g_tilde is not None:
            return self._g_tilde(x)
        return _quad_tilde_g(self.rho, self.support, x)

    def g_grid(self, qs):
        """Vectorized g over an array of points (closed form when available)."""
        if self._g_vec is not None:
            return self._g_vec(np.asarray(qs, dtype=complex))
        return np.array([self.g(q) for q in qs])

    def g_tilde_grid(self, xs):
        if self._g_tilde_vec is not None:
            return self._g_tilde_vec(np.asarray(xs, dtype=float))
        return np.array([self.g_tilde(x) for x in xs])

    def stieltjes(self, q):
        if self._stieltjes is not None:
            return self._stieltjes(q)
        return _quad_stieltjes(self.rho, self.support, q)

    def ell_v_profile(self, n_grid=101, margin=0.02):
        """ell_V(x) = -2 g_tilde(x) - V(x) on an interior grid (should be flat)."""
        xs = []
        for a, b in self.support:
            pad = margin * (b - a)
            xs.append(np.linspace(a + pad, b - pad, n_grid))
        xs = np.concatenate(xs)
        vals = np.array([-2.0 * self.g_tilde(x) - self.V(x) for x in xs])
        return xs, vals


def _sqrt_cut(q):
    """sqrt(q^2-1) with cut on [-1,1], ~ q at infinity."""
    return np.sqrt(complex(q) - 1.0) * np.sqrt(complex(q) + 1.0)


# For the semicircle, g(q) = q^2 - q s + log(q+s) - 1/2 - log 2 with
# s = sqrt(q^2-1); since (q-s)(q+s) = 1 identically, the polynomial part
# collapses to 1/(2(q+s)^2), stable at every scale.

def _gue_g(q):
    q = complex(q)
    u = q + _sqrt_cut(q)
    return np.log(u) - math.log(2.0) + 0.5 / (u * u)


def _gue_g_tilde(x):
    x = float(x)
    if abs(x) <= 1.0:
        return -(x * x - 0.5 - math.log(2.0))
    ax = abs(x)
    u = ax + math.sqrt(ax * ax - 1.0)
    return -(math.log(u) - math.log(2.0) + 0.5 / (u * u))


def _gue_stieltjes(q):
    q = complex(q)
    return 2.0 / (q + _sqrt_cut(q))


def _gue_g_vec(qs):
    u = qs + np.sqrt(qs - 1.0) * np.sqrt(qs + 1.0)
    return np.log(u) - math.log(2.0) + 0.5 / (u * u)


def _gue_g_tilde_vec(xs):
    ax = np.abs(xs)
    out = -(xs * xs - 0.5 - math.log(2.0))
    outside = ax > 1.0
    if np.any(outside):
        a = ax[outside]
        u = a + np.sqrt(a * a - 1.0)
        out[outside] = -(np.log(u) - math.log(2.0) + 0.5 / (u * u))
    return out


def gue_model():
    """Quadratic model: V = 2x^2, semicircle density (2/pi) sqrt(1-u^2) on [-1,1].

    g, g_tilde and the Stieltjes transform are closed-form; the quadrature
    routes (_quad_g, _quad_tilde_g, _quad_stieltjes) are their oracles.
    """
    def V(x):
        return 2.0 * x * x

    def rho(u):
        t = 1.0 - u * u
        return (2.0 / math.pi) * math.sqrt(t) if t > 0.0 else 0.0

    return EquilibriumModel(
        name="gue",
        V=V,
        rho=rho,
        support=[(-1.0, 1.0)],
        ell_v=-1.0 - 2.0 * math.log(2.0),
        rho_max=2.0 / math.pi,
        _g=_gue_g,
        _g_tilde=_gue_g_tilde,
        _stieltjes=_gue_stieltjes,
        _g_vec=_gue_g_vec,
        _g_tilde_vec=_gue_g_tilde_vec,
    )


def make_model(name, V, rho, support, ell_tol=1e-8):
    """Build a model from a supplied density; validates ell_V constancy."""
    model = EquilibriumModel(name=name, V=V, rho=rho, support=list(support))
    xs, vals = model.ell_v_profile()
    if vals.std() > ell_tol:
        raise ValueError(
            f"ell_V varies by std {vals.std():.2e} over the support grid; "
            "the supplied density is not the equilibrium density for V"
        )
    model.ell_v = float(vals.mean())
    model.rho_max = max(rho(x) for x in xs)
    return model


@dataclass
class Spectrum:
    """N sorted eigenvalues with generation metadata."""

    N: int
    eigenvalues: np.ndarray
    model: str
    seed: int
    sampler: str

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if len(self.eigenvalues) != self.N:
            raise ValueError("eigenvalue count differs from N")
        if np.any(np.diff(self.eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")


# scipy's f2py wrapper scipy.linalg.lapack.dsterf (the one eigh_tridiagonal
# calls) holds the GIL for the whole solve, so solves on a thread pool run one
# at a time.  The same LAPACK routine, exported by scipy.linalg.cython_lapack
# as a C function pointer and called through ctypes, releases the GIL.
_DSTERF_SIGNATURE = re.compile(
    r"void \(int \*, (double|\w*cython_lapack_d) \*, \1 \*, int \*\)")
_DSTERF_PROTOTYPE = ctypes.CFUNCTYPE(
    None, ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double),
    ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_int))


def _dsterf_from_capsule(capsule):
    """ctypes function for a dsterf capsule, or None if its C signature is
    not void (int *, double *, double *, int *)."""
    # own prototypes, so the shared ctypes.pythonapi attributes stay as found
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object,
                                    ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    name = get_name(capsule)
    if name is None or not _DSTERF_SIGNATURE.fullmatch(name.decode()):
        return None
    return _DSTERF_PROTOTYPE(get_pointer(capsule, name))


_DSTERF = _dsterf_from_capsule(cython_lapack.__pyx_capi__["dsterf"])


def _sterf(d, e):
    """Eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK dsterf.

    Bit-identical to eigh_tridiagonal(d, e, eigvals_only=True,
    lapack_driver="sterf"), but the solve releases the GIL.  Falls back to
    scipy.linalg.lapack.dsterf when the C signature is not the expected one.
    """
    # copies: dsterf overwrites both arrays
    d = np.array(d, dtype=np.float64)
    e = np.array(e, dtype=np.float64)
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise ValueError("expected 1-D d of length N and e of length N - 1")
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ValueError("array must not contain infs or NaNs")
    if _DSTERF is None:
        w, info = lapack.dsterf(d, e)
    else:
        n = ctypes.c_int(d.size)
        status = ctypes.c_int(0)
        c_double_p = ctypes.POINTER(ctypes.c_double)
        _DSTERF(ctypes.byref(n), d.ctypes.data_as(c_double_p),
                e.ctypes.data_as(c_double_p), ctypes.byref(status))
        w, info = d, status.value
    if info != 0:
        raise np.linalg.LinAlgError(f"dsterf failed with info={info}")
    return w


def _sample_gue_eigs(N, rng):
    """Eigenvalues of the beta=2 tridiagonal model, rescaled to weight e^{-2N x^2}."""
    d = rng.standard_normal(N)
    if N == 1:
        mu = d
    else:
        dof = 2.0 * np.arange(N - 1, 0, -1)
        e = np.sqrt(rng.chisquare(dof) / 2.0)
        mu = _sterf(d, e)
    return np.sort(mu) / (2.0 * math.sqrt(N))


def sample_spectrum_gue(N, seed):
    """Exact draw from the eigenvalue law ~ Delta(lambda)^2 e^{-2N sum lambda^2}."""
    if N < 1:
        raise ValueError("N must be >= 1")
    for attempt in range(4):
        rng = substream(seed, attempt)
        try:
            eigs = _sample_gue_eigs(N, rng)
            break
        except np.linalg.LinAlgError:  # pragma: no cover - eigensolver hiccup
            warnings.warn(f"tridiagonal eigensolver failed (attempt {attempt}); resampling")
    else:  # pragma: no cover
        raise RuntimeError("eigensolver failed on 4 perturbed seeds")
    return Spectrum(N=N, eigenvalues=eigs, model="gue", seed=int(seed),
                    sampler="tridiagonal")
