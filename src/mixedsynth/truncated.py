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
    return their endpoint.  Cells beyond 6 sd in the far tail, if any, draw
    first; every other cell then takes one uniform, in C order.
    """
    mu, sigma, lo, hi = (np.asarray(v, dtype=np.float64) for v in (mu, sigma, lo, hi))
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    if np.any(a > b):
        raise ValueError("truncnorm_sample: lower bound exceeds upper bound")
    # mirror right-half intervals so the hard tail is always the left one
    flip = a > 0
    a2 = np.where(flip, -b, a)
    b2 = np.where(flip, -a, b)
    tail = b2 < -_TAIL
    if tail.any():
        tail &= a2 < b2  # the inverse CDF pins a zero-width cell to its endpoint
        x = np.empty(a2.shape)
        x[tail] = -_tail_reject(rng, -b2[tail], -a2[tail])
        main = ~tail
        x[main] = _inverse_cdf(rng, a2[main], b2[main])
    else:
        x = _inverse_cdf(rng, a2, b2)
    np.negative(x, out=x, where=flip)
    np.clip(x, a, b, out=x)  # guard ndtri round-off at interval edges
    return mu + sigma * x


def _inverse_cdf(rng: np.random.Generator, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Standard normal restricted to [a, b] by inverting its CDF; one
    uniform per cell, in C order."""
    fa = ndtr(a)
    x = ndtr(b, out=np.empty(a.shape))  # an array even when a is 0-d
    x -= fa
    x *= rng.uniform(size=a.shape)
    x += fa
    return ndtri(x, out=x)
