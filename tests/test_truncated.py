import subprocess
import sys

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr, ndtri

from mixedsynth.truncated import _tail_reject, truncnorm_sample


def _moments_oracle(mu, sigma, lo, hi):
    a = (lo - mu) / sigma if np.isfinite(lo) else -np.inf
    b = (hi - mu) / sigma if np.isfinite(hi) else np.inf
    d = stats.truncnorm(a, b, loc=mu, scale=sigma)
    return d.mean(), d.std()


@pytest.mark.parametrize(
    "mu,sigma,lo,hi",
    [
        (0.0, 1.0, 0.0, np.inf),      # half-normal
        (0.0, 1.0, -np.inf, 0.0),
        (2.0, 0.5, 1.0, 3.0),
        (0.0, 1.0, -1.0, 1.0),
        (-3.0, 2.0, -np.inf, -4.0),
        (0.0, 1.0, 1.5, 2.0),
    ],
)
def test_moments_match_distribution(mu, sigma, lo, hi):
    rng = np.random.default_rng(0)
    n = 200_000
    x = truncnorm_sample(
        rng, np.full(n, mu), np.full(n, sigma), np.full(n, lo), np.full(n, hi)
    )
    assert np.all(x >= lo) and np.all(x <= hi)
    em, es = _moments_oracle(mu, sigma, lo, hi)
    assert x.mean() == pytest.approx(em, abs=4 * es / np.sqrt(n))
    assert x.std() == pytest.approx(es, rel=0.02)


def test_half_normal_mean_value():
    rng = np.random.default_rng(1)
    n = 400_000
    x = truncnorm_sample(rng, np.zeros(n), np.ones(n), np.zeros(n), np.full(n, np.inf))
    assert x.mean() == pytest.approx(np.sqrt(2 / np.pi), abs=0.005)  # 0.79788...


def test_far_tail_is_finite_and_in_bounds():
    # 8 sigma into the tail: inverse-cdf alone would saturate, so the tail
    # sampler has to take over
    rng = np.random.default_rng(2)
    n = 50_000
    x = truncnorm_sample(rng, np.zeros(n), np.ones(n), np.full(n, 8.0), np.full(n, np.inf))
    assert np.all(np.isfinite(x))
    assert np.all(x >= 8.0)
    # E[X | X > a] ~ a + 1/a for large a
    assert x.mean() == pytest.approx(8.0 + 1 / 8.0, abs=0.01)


def test_two_sided_far_tail():
    rng = np.random.default_rng(3)
    n = 20_000
    x = truncnorm_sample(
        rng, np.zeros(n), np.ones(n), np.full(n, -9.0), np.full(n, -8.5)
    )
    assert np.all((x >= -9.0) & (x <= -8.5))


_ZERO_WIDTH_TAIL = """
import numpy as np
from mixedsynth.truncated import truncnorm_sample
rng = np.random.default_rng(0)
print(float(truncnorm_sample(rng, 0.0, 1.0, -7.0, -7.0)))
print(float(truncnorm_sample(rng, -3.0, 0.5, 0.5, 0.5)))
print(*truncnorm_sample(rng, 0.0, 1.0, [-7.0, -9.0, 7.0], [-7.0, -8.5, 7.0]))
"""


def test_zero_width_far_tail_returns_endpoint(src_env):
    # zero-width intervals 7 sd out on either side return their endpoint,
    # also next to a tail cell that does draw; run with a deadline, since a
    # sampler that never returns would otherwise hang the suite
    proc = subprocess.run([sys.executable, "-c", _ZERO_WIDTH_TAIL], env=src_env,
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    left, right, (a, mid, b) = (
        [float(v) for v in line.split()] for line in proc.stdout.splitlines()
    )
    assert left == [-7.0] and right == [0.5]
    assert (a, b) == (-7.0, 7.0) and -9.0 <= mid <= -8.5


def test_broadcasting_and_heterogeneous_bounds():
    rng = np.random.default_rng(4)
    mu = np.array([0.0, 1.0, -1.0])
    lo = np.array([-np.inf, 1.0, -2.0])
    hi = np.array([0.0, np.inf, -1.5])
    x = truncnorm_sample(rng, mu, 1.0, lo, hi)
    assert x.shape == (3,)
    assert np.all(x >= lo) and np.all(x <= hi)


def test_invalid_bounds_raise():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        truncnorm_sample(rng, 0.0, 1.0, np.array([1.0]), np.array([0.0]))


def test_ks_against_inverse_cdf_oracle():
    # compare against exact inverse-cdf draws in a moderate regime
    rng = np.random.default_rng(5)
    n = 100_000
    x = truncnorm_sample(rng, np.zeros(n), np.ones(n), np.full(n, 0.5), np.full(n, 2.5))
    u = rng.uniform(size=n)
    a, b = stats.norm.cdf(0.5), stats.norm.cdf(2.5)
    y = stats.norm.ppf(a + u * (b - a))
    d = stats.ks_2samp(x, y).statistic
    assert d < 0.01


# ------------------------------------------------ stream against the old kernel


def _masked_oracle(rng, mu, sigma, lo, hi):
    """Reference with masks on every call: every argument broadcast to one
    shape, the far-tail cells drawn first, then one uniform per remaining
    cell in C order."""
    mu, sigma, lo, hi = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (mu, sigma, lo, hi))
    )
    a = (lo - mu) / sigma
    b = (hi - mu) / sigma
    flip = a > 0
    a2 = np.where(flip, -b, a)
    b2 = np.where(flip, -a, b)
    x = np.empty(a2.shape)
    tail = b2 < -6.0
    if np.any(tail):
        x[tail] = -_tail_reject(rng, -b2[tail], -a2[tail])
    main = ~tail
    if np.any(main):
        fa = ndtr(a2[main])
        fb = ndtr(b2[main])
        u = rng.uniform(size=int(main.sum()))
        x[main] = ndtri(fa + u * (fb - fa))
    x = np.where(flip, -x, x)
    x = np.clip(x, a, b)
    return mu + sigma * x


def test_no_tail_call_matches_masked_oracle_bitwise():
    # one- and two-sided, zero-width and unbounded intervals, all within
    # 4.5 sd of the mean
    rng = np.random.default_rng(6)
    n = 3000
    mu = rng.uniform(-2.0, 2.0, n)
    lo = rng.choice([-np.inf, -1.0, 0.0, 0.5], n)
    hi = rng.choice([0.0, 1.0, np.inf], n)
    finite = np.isfinite(lo)
    hi[finite] = lo[finite] + rng.choice([np.inf, 0.0, 0.3, 2.0], finite.sum())
    sigma = rng.uniform(1.0, 2.0, n)
    got = truncnorm_sample(np.random.default_rng(9), mu, sigma, lo, hi)
    want = _masked_oracle(np.random.default_rng(9), mu, sigma, lo, hi)
    assert np.array_equal(got, want)


def test_categorical_block_call_matches_oracle_bitwise():
    # the latent update's (k, n) call: per-level means and sds, one-sided
    # sign intervals; rows are drawn in order, so it also equals k calls
    rng = np.random.default_rng(7)
    k, n = 4, 500
    mu = rng.uniform(-2.5, 2.5, (k, n))  # no cell beyond 6 sd
    sd = rng.uniform(0.5, 1.0, (k, 1))
    pos = np.arange(k)[:, None] == rng.integers(0, k, n)
    lo = np.where(pos, 0.0, -np.inf)
    hi = np.where(pos, np.inf, 0.0)
    got = truncnorm_sample(np.random.default_rng(10), mu, sd, lo, hi)
    assert got.shape == (k, n)
    assert np.array_equal(got, _masked_oracle(np.random.default_rng(10), mu, sd, lo, hi))
    g = np.random.default_rng(10)
    rows = [_masked_oracle(g, mu[r], sd[r], lo[r], hi[r]) for r in range(k)]
    assert np.array_equal(got, np.stack(rows))


def test_far_tail_cells_draw_first():
    # cells 1 and 3 lie beyond 6 sd; their draws take the stream first, then
    # one uniform per remaining cell in order
    mu = np.array([0.0, 0.0, 1.0, -1.0, 0.5])
    lo = np.array([-1.0, 7.0, -np.inf, -np.inf, 0.0])
    hi = np.array([1.0, np.inf, 0.0, -8.0, np.inf])
    tail = np.array([False, True, False, True, False])
    got = truncnorm_sample(np.random.default_rng(11), mu, 1.0, lo, hi)
    g = np.random.default_rng(11)
    want = np.empty(5)
    want[tail] = _masked_oracle(g, mu[tail], 1.0, lo[tail], hi[tail])
    want[~tail] = _masked_oracle(g, mu[~tail], 1.0, lo[~tail], hi[~tail])
    assert np.array_equal(got, want)
    assert np.all((got >= lo) & (got <= hi))
