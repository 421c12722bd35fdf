import numpy as np
import pytest
from scipy import stats

from mixedsynth.truncated import truncnorm_sample


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
