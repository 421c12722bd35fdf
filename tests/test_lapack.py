"""The LAPACK helpers against scipy.linalg, and the horseshoe draw's
jitter fallback that rests on their errors."""
import numpy as np
import pytest
from scipy.linalg import cho_solve, cholesky, solve_triangular

from mixedsynth._lapack import cho_solve_lower, cholesky_lower, solve_lower_t
from mixedsynth.errors import RankDeficientError
from mixedsynth.utility import _beta_draw


def _spd(rng, k):
    m = rng.standard_normal((k, k))
    # not exactly symmetric in floating point: only the lower triangle counts
    return m @ m.T / k + np.diag(rng.uniform(0.1, 2.0, k))


@pytest.mark.parametrize("k", [1, 2, 5, 14])
def test_helpers_match_scipy_bitwise(k):
    rng = np.random.default_rng(k)
    for _ in range(20):
        a = _spd(rng, k)
        b = rng.standard_normal(k)
        low = cholesky(a, lower=True)
        got = cholesky_lower(a)
        assert np.array_equal(got, low)
        assert np.array_equal(cho_solve_lower(got, b), cho_solve((low, True), b))
        eye = np.eye(k)
        assert np.array_equal(cho_solve_lower(got, eye), cho_solve((low, True), eye))
        assert np.array_equal(
            solve_lower_t(got, b), solve_triangular(low.T, b, lower=False)
        )


def test_not_positive_definite_raises_linalg_error():
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        cholesky_lower(np.zeros((3, 3)))


def test_non_finite_input_raises_value_error():
    low = cholesky_lower(np.eye(3))
    bad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(ValueError):
        cholesky_lower(np.diag(bad))
    with pytest.raises(ValueError):
        cholesky_lower(np.diag([1.0, np.inf, 1.0]))
    with pytest.raises(ValueError):
        cho_solve_lower(low, bad)
    with pytest.raises(ValueError):
        solve_lower_t(low, bad)


def test_beta_draw_jitters_a_singular_precision():
    # exactly singular: the first factorization fails, the 1e-8 ridge passes
    xtx = np.ones((2, 2))
    xty = np.array([1.0, 1.0])
    got = _beta_draw(np.random.default_rng(0), xtx, xty, np.zeros(2), 1.0)
    a = xtx + 1e-8 * np.eye(2)
    low = cholesky(a, lower=True)
    z = np.random.default_rng(0).standard_normal(2)
    want = cho_solve((low, True), xty) + solve_triangular(low.T, z, lower=False)
    assert np.array_equal(got, want)


def test_beta_draw_indefinite_precision_is_rank_deficient():
    xtx = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(RankDeficientError):
        _beta_draw(np.random.default_rng(0), xtx, np.ones(2), np.zeros(2), 1.0)
