"""Small dense SPD solves straight on LAPACK.

The Gibbs updates and the horseshoe factor and solve matrices of about
k = 5 to 15 rows thousands of times per fit.  scipy.linalg's ``cholesky``,
``cho_solve`` and ``solve_triangular`` spend 10-16 us per call on argument
handling around a LAPACK call that takes about 1 us.  These helpers make
the LAPACK calls scipy.linalg makes for a lower factor, so their results
are bitwise scipy.linalg's, and keep its checks: a non-finite input raises
``ValueError`` and a matrix that is not positive definite raises
``np.linalg.LinAlgError``.  A factor passed back in must come from
``cholesky_lower``, so only right-hand sides are checked for finiteness.
"""
from __future__ import annotations

import functools

import numpy as np


@functools.cache
def lapack():
    """``scipy.linalg.lapack``, imported on first use so that ``synth``,
    which factors with numpy.linalg only, never loads scipy.linalg."""
    import scipy.linalg.lapack
    return scipy.linalg.lapack


def _call(routine, checked: np.ndarray, *args, **kwargs) -> np.ndarray:
    if not np.isfinite(checked).all():
        raise ValueError("array must not contain infs or NaNs")
    out, info = routine(*args, **kwargs)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"{routine.__name__}: matrix not positive definite (info {info})"
        )
    if info < 0:
        raise ValueError(f"{routine.__name__}: illegal value in argument {-info}")
    return out


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, as ``scipy.linalg.cholesky(a, lower=True)``;
    reads only the lower triangle of ``a``."""
    return _call(lapack().dpotrf, a, a, lower=1, clean=1)


def cho_solve_lower(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (low low') x = b, as ``scipy.linalg.cho_solve((low, True), b)``."""
    return _call(lapack().dpotrs, b, low, b, lower=1)


def solve_lower_t(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve low' x = b, as ``scipy.linalg.solve_triangular(low.T, b,
    lower=False)``."""
    return _call(lapack().dtrtrs, b, low, b, lower=1, trans=1)
