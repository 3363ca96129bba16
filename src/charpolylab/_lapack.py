"""The package's one LAPACK binding: the scipy-openblas that numpy's wheels
bundle, through ctypes, each routine bound on first use (OSError if absent)."""

import contextlib
import ctypes
import functools

import numpy as np

_LIBRARY = np.linalg._umath_linalg.__file__  # dlsym also searches its libraries
_I64, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
# restype, argtypes: arrays go in as addresses; size_t is UPLO's Fortran length
_SIGNATURES = {
    "scipy_dpstrf_64_": (None, [ctypes.c_char_p, _I64, _PTR, _I64, _PTR, _I64,
                                ctypes.POINTER(ctypes.c_double), _PTR, _I64, ctypes.c_size_t]),
    "scipy_dsterf_64_": (None, [_I64, _PTR, _PTR, _I64]),
    "scipy_openblas_get_num_threads64_": (ctypes.c_int, []),
    "scipy_openblas_set_num_threads64_": (None, [ctypes.c_int]),
}


@functools.cache
def _bind(name):
    fn = getattr(ctypes.CDLL(_LIBRARY), name, None)
    if fn is None:
        raise OSError(f"numpy {np.__version__} bundles no OpenBLAS {name}")
    fn.restype, fn.argtypes = _SIGNATURES[name]
    return fn


def dpstrf(cov):
    """(c, piv, rank) of LAPACK dpstrf on cov's lower triangle at its default
    tolerance: c (cov itself, overwritten, if Fortran-ordered float64, else a
    copy) holds the factor in its lower triangle, and piv is 1-based; info < 0
    raises LinAlgError, info > 0 (rank below n) is normal."""
    c = np.asfortranarray(cov, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"dpstrf needs a square matrix, got shape {c.shape}")
    piv, work = np.empty(len(c), dtype=np.int64), np.empty(2 * len(c))
    n, rank, info = ctypes.c_int64(len(c)), ctypes.c_int64(), ctypes.c_int64()
    _bind("scipy_dpstrf_64_")(b"L", n, c.ctypes.data, n, piv.ctypes.data, rank,
                              ctypes.c_double(-1.0), work.ctypes.data, info, 1)
    if info.value < 0:
        raise np.linalg.LinAlgError(f"dpstrf: argument {-info.value} is illegal")
    return c, piv, rank.value


def dsterf(d, e):
    """The eigenvalues, ascending, of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by LAPACK dsterf on copies of both."""
    w, work = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    if w.ndim != 1 or work.shape != (max(len(w) - 1, 0),):
        raise ValueError(f"dsterf needs n and n - 1 entries, not {w.shape}, {work.shape}")
    n, info = ctypes.c_int64(len(w)), ctypes.c_int64()
    _bind("scipy_dsterf_64_")(n, w.ctypes.data, work.ctypes.data, info)
    if info.value != 0:
        raise np.linalg.LinAlgError(f"dsterf failed with info={info.value}")
    return w


@contextlib.contextmanager
def one_blas_thread():
    """Run the body (or, as a decorator, each call) on a BLAS pool of one
    thread, then restore the caller's: a product's last bits vary with it."""
    pool = _bind("scipy_openblas_get_num_threads64_")()
    set_pool = _bind("scipy_openblas_set_num_threads64_")
    set_pool(1)
    try:
        yield
    finally:
        set_pool(pool)
