import numpy as np
import pytest
from scipy import integrate, stats

from treextract import InputError, sample_truncated_normal


def quadrature_cdf(mu, sigma, lo, hi):
    """Reference CDF built by integrating the normal density numerically."""
    a = max(lo, mu - 40 * sigma)
    b = min(hi, mu + 40 * sigma)
    grid = np.linspace(a, b, 4001)
    dens = stats.norm.pdf(grid, mu, sigma)
    cum = integrate.cumulative_trapezoid(dens, grid, initial=0.0)
    cum /= cum[-1]

    def cdf(x):
        return np.interp(x, grid, cum)

    return cdf


def draw(mu, sigma, lo, hi, n, seed=0):
    rng = np.random.default_rng(seed)
    return np.array([sample_truncated_normal(mu, sigma, lo, hi, rng) for _ in range(n)])


def test_untruncated_reduces_to_normal():
    xs = draw(1.5, 2.0, -np.inf, np.inf, 10 ** 5)
    assert abs(xs.mean() - 1.5) < 4 * 2.0 / np.sqrt(10 ** 5)
    assert abs(xs.std() - 2.0) < 0.05


def test_half_normal_mean():
    xs = draw(0.0, 1.0, 0.0, np.inf, 10 ** 5)
    assert abs(xs.mean() - np.sqrt(2 / np.pi)) < 0.01


def test_far_tail_hard_constraint():
    xs = draw(0.0, 1.0, 8.0, 9.0, 10 ** 4, seed=3)
    assert np.all((xs > 8.0) & (xs <= 9.0))
    assert not np.isnan(xs).any()


@pytest.mark.parametrize("mu,sigma,lo,hi", [
    (0.0, 1.0, -1.0, 0.5),        # center interval
    (2.0, 0.7, 3.0, np.inf),      # one-sided
    (0.0, 1.0, 8.0, 9.0),         # far tail
    (-1.0, 2.0, -np.inf, -4.0),   # lower tail one-sided
    (0.0, 1.0, -9.0, -8.0),       # far lower tail
    (0.0, 1.0, 30.0, 31.0),       # very far tail
    (0.0, 1.0, 8.0, 8.0 + 1e-9),  # narrow far tail
])
def test_ks_against_quadrature_reference(mu, sigma, lo, hi):
    xs = draw(mu, sigma, lo, hi, 10 ** 4, seed=11)
    cdf = quadrature_cdf(mu, sigma, lo, hi)
    assert stats.kstest(xs, cdf).pvalue > 0.01


def test_extreme_bound_30_sigma():
    xs = draw(0.0, 1.0, 30.0, np.inf, 2000, seed=5)
    assert np.all(xs > 30.0) and np.all(np.isfinite(xs))


def test_empty_interval_rejected(rng):
    with pytest.raises(InputError):
        sample_truncated_normal(0.0, 1.0, 1.0, 1.0, rng)


def test_bad_sigma_rejected(rng):
    with pytest.raises(InputError):
        sample_truncated_normal(0.0, -1.0, 0.0, 1.0, rng)


@pytest.mark.parametrize("mu, sigma, lo, hi", [
    # Standardized, both bounds overflow to -inf: this used to recurse
    # through the redraws until RecursionError. With numpy floats the
    # overflow used to warn first.
    (1e308, 1e-308, 0.0, 1.0), (0.0, 1.0, np.nan, 1.0),
    (np.float64(1e308), np.float64(1e-308), 0.0, 1.0)],
    ids=["overflowing", "nan-bound", "overflowing-float64"])
@pytest.mark.filterwarnings("error")
def test_empty_standardized_interval_rejected(rng, mu, sigma, lo, hi):
    with pytest.raises(InputError, match="empty interval"):
        sample_truncated_normal(mu, sigma, lo, hi, rng)


@pytest.mark.parametrize("mu, sigma", [
    (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),  # these used to end in RecursionError
    (0.0, np.inf), (0.0, np.nan)])  # and these to return NaN without a word
def test_nonfinite_mu_or_sigma_rejected(rng, mu, sigma):
    with pytest.raises(InputError, match=r"mu must be finite and sigma in \(0, inf\)"):
        sample_truncated_normal(mu, sigma, 0.0, 1.0, rng)


def test_half_open_interval_boundary(rng):
    # Repeated draws in a narrow interval never land on the open lower end.
    for _ in range(2000):
        x = sample_truncated_normal(0.0, 1.0, 0.0, 1e-6, rng)
        assert 0.0 < x <= 1e-6
