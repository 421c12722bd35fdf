"""Vectorized univariate truncated normal sampling.

The sampler inverts the normal CDF on the truncation interval, switching to
a shifted-exponential rejection step (Robert-style) whenever the whole
interval lies beyond 6 standard deviations, where the inverse-CDF path loses
precision.  The multivariate orthant sampler built on it lives in
`synthesizer`.
"""
from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

__all__ = ["truncnorm_sample"]

_TAIL = 6.0


def _tail_reject(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard normal restricted to [a, b] with a >= _TAIL (right tail)."""
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    out = np.empty_like(a)
    pending = np.arange(a.size)
    while pending.size:
        aa = a[pending]
        x = aa + rng.exponential(size=pending.size) / lam[pending]
        logu = np.log(rng.uniform(size=pending.size))
        ok = (x <= b[pending]) & (logu <= -0.5 * (x - lam[pending]) ** 2)
        out[pending[ok]] = x[ok]
        pending = pending[~ok]
    return out


def truncnorm_sample(rng: np.random.Generator, mu, sigma, lo, hi) -> np.ndarray:
    """Draw from N(mu, sigma^2) restricted to [lo, hi], elementwise.

    All arguments broadcast; lo/hi may be -inf/+inf.  Zero-width intervals
    return their endpoint.
    """
    mu, sigma, lo, hi = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (mu, sigma, lo, hi))
    )
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    if np.any(a > b):
        raise ValueError("truncnorm_sample: lower bound exceeds upper bound")
    # mirror right-half intervals so the hard tail is always the left one
    flip = a > 0
    a2 = np.where(flip, -b, a)
    b2 = np.where(flip, -a, b)
    x = np.empty(a2.shape)
    tail = b2 < -_TAIL
    if np.any(tail):
        x[tail] = -_tail_reject(rng, -b2[tail], -a2[tail])
    main = ~tail
    if np.any(main):
        fa = ndtr(a2[main])
        fb = ndtr(b2[main])
        u = rng.uniform(size=int(main.sum()))
        x[main] = ndtri(fa + u * (fb - fa))
    x = np.where(flip, -x, x)
    x = np.clip(x, a, b)  # guard ndtri round-off at interval edges
    return mu + sigma * x
