"""Distribution-level checks: closed forms against independent quadrature
oracles, sampler law checks against the analytic CDF, and input validation.

Frozen oracle values were computed with scipy.integrate.quad on the explicit
density (tolerances ~1e-11); the derivations are noted next to each literal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolim import GaussianVector, GeneralizedGaussian, lp_constant

# quad of -f log2 f over the support, independent of the package formulas
ENTROPY_ORACLE = {
    (1.0, 1.0): 2.442695040888963,  # log2(2e)
    (2.0, 0.7): 1.532522412350883,
    (4.0, 1.3): 2.097409092411170,
    (1.5, 2.0): 3.204162592285047,
}

# quad of x^2 f(x)
VARIANCE_ORACLE = {
    (1.0, 1.0): 2.0,
    (4.0, 1.3): 1.142403225713711,
    (1.5, 2.0): 5.072147155977672,
}


@pytest.mark.parametrize("key", sorted(ENTROPY_ORACLE))
def test_entropy_bits_matches_quadrature(key):
    p, mu = key
    assert GeneralizedGaussian(p, mu).entropy_bits() == pytest.approx(
        ENTROPY_ORACLE[key], abs=1e-12
    )


@pytest.mark.parametrize("key", sorted(VARIANCE_ORACLE))
def test_variance_matches_quadrature(key):
    p, mu = key
    assert GeneralizedGaussian(p, mu).variance() == pytest.approx(
        VARIANCE_ORACLE[key], rel=1e-11
    )


def test_uniform_entropy_and_variance():
    u = GeneralizedGaussian.uniform(1.0)
    assert u.entropy_bits() == pytest.approx(1.0, abs=1e-15)
    assert u.variance() == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert GeneralizedGaussian.uniform(0.35).entropy_bits() == pytest.approx(
        math.log2(0.7), abs=1e-14
    )


def test_gaussian_factory_entropy():
    g = GeneralizedGaussian.gaussian(1.0)
    assert g.power == 2.0
    assert g.entropy_bits() == pytest.approx(
        0.5 * math.log2(2 * math.pi * math.e), abs=1e-14
    )
    assert g.variance() == pytest.approx(1.0, rel=1e-13)


def test_laplace_factory():
    lap = GeneralizedGaussian.laplace(1.0)
    assert lap.power == 1.0
    assert lap.variance() == pytest.approx(2.0, rel=1e-13)
    assert lap.entropy_bits() == pytest.approx(math.log2(2 * math.e), abs=1e-14)


def test_pth_absolute_moment_equals_scale_to_the_p():
    # E|x|^p = p mu^p Gamma((p+1)/p) / Gamma(1/p) = mu^p since
    # Gamma((p+1)/p) = (1/p) Gamma(1/p); the sample L_p norm targets mu.
    for p, mu in [(1.0, 1.0), (2.0, 0.7), (4.0, 1.3)]:
        assert GeneralizedGaussian(p, mu).lp_norm() == pytest.approx(mu, rel=1e-14)


def test_lp_norm_rejects_infinite_power():
    with pytest.raises(ValueError):
        GeneralizedGaussian.uniform(1.0).lp_norm()


def test_pdf_normalizes_and_cdf_agrees_with_integral():
    g = GeneralizedGaussian(1.5, 2.0)
    x = np.linspace(-40.0, 40.0, 200_001)
    f = g.pdf(x)
    step = x[1] - x[0]
    # cumulative trapezoid from the left edge (O(step^2) accurate)
    cum = (np.cumsum(f) - 0.5 * f - 0.5 * f[0]) * step
    assert cum[-1] == pytest.approx(1.0, abs=1e-7)
    for q in (-3.0, -0.5, 0.0, 1.2, 4.0):
        idx = np.searchsorted(x, q)
        assert g.cdf(q) == pytest.approx(float(cum[idx]), abs=1e-7)


def test_cdf_fixed_points():
    g = GeneralizedGaussian(3.0, 0.9)
    assert g.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert g.cdf(50.0) == pytest.approx(1.0, abs=1e-12)
    assert g.cdf(-50.0) == pytest.approx(0.0, abs=1e-12)
    u = GeneralizedGaussian.uniform(2.0)
    assert u.cdf(-2.0) == 0.0
    assert u.cdf(2.0) == 1.0
    assert u.cdf(1.0) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, math.inf])
def test_sampler_matches_cdf(p):
    g = GeneralizedGaussian(p, 1.1)
    n = 200_000
    x = g.sample(n, seed=2024)
    # one-sample KS against the analytic CDF; 1.95/sqrt(n) ~ alpha 1e-3
    sorted_x = np.sort(x)
    grid = np.arange(1, n + 1) / n
    cdf_vals = g.cdf(sorted_x)
    ks = float(np.max(np.abs(cdf_vals - grid)))
    assert ks < 1.95 / math.sqrt(n)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_sampler_pth_moment(p):
    g = GeneralizedGaussian(p, 0.8)
    x = g.sample(300_000, seed=9)
    powered = np.abs(x) ** p
    se = powered.std(ddof=1) / math.sqrt(x.size)
    assert abs(powered.mean() - 0.8**p) < 5 * se


def test_sampler_reproducible_and_uniform_support():
    g = GeneralizedGaussian.uniform(0.6)
    a = g.sample(1000, seed=5)
    b = g.sample(1000, seed=5)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 0.6)


def test_validation_errors():
    with pytest.raises(ValueError, match="power"):
        GeneralizedGaussian(0.5, 1.0)
    with pytest.raises(ValueError, match="scale"):
        GeneralizedGaussian(2.0, 0.0)
    with pytest.raises(ValueError, match="scale"):
        GeneralizedGaussian(2.0, math.nan)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=30.0),
    mu=st.floats(min_value=1e-3, max_value=1e3),
    x=st.floats(min_value=-50.0, max_value=50.0),
)
def test_pdf_is_symmetric_and_nonnegative(p, mu, x):
    g = GeneralizedGaussian(p, mu)
    left = float(g.pdf(-x))
    right = float(g.pdf(x))
    assert left >= 0.0
    assert left == pytest.approx(right, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(min_value=1.0, max_value=30.0),
    mu=st.floats(min_value=1e-3, max_value=1.0),
    factor=st.floats(min_value=1.0 + 1e-6, max_value=1e3),
)
def test_entropy_grows_with_scale(p, mu, factor):
    small = GeneralizedGaussian(p, mu).entropy_bits()
    large = GeneralizedGaussian(p, mu * factor).entropy_bits()
    # h(c X) = h(X) + log2 c exactly
    assert large - small == pytest.approx(math.log2(factor), abs=1e-9)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5, 40.0, 2000.0, math.inf])
@pytest.mark.parametrize("mu", [1e-3, 0.5, 1.0, 2.7, 1e4])
def test_entropy_is_log2_of_lp_constant_times_scale(p, mu):
    # the equality case of the floor 2^h / C_p, exact to the last bit
    assert GeneralizedGaussian(p, mu).entropy_bits() == math.log2(lp_constant(p) * mu)


class TestGaussianVector:
    def test_entropy_matches_closed_form(self):
        cov = [[2.0, 0.3], [0.3, 1.0]]
        gv = GaussianVector(cov)
        det = 2.0 * 1.0 - 0.3 * 0.3
        want = 0.5 * math.log2((2 * math.pi * math.e) ** 2 * det)
        assert gv.entropy_bits() == pytest.approx(want, abs=1e-12)

    def test_sample_covariance(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.5]])
        x = GaussianVector(cov).sample(200_000, seed=77)
        hat = x.T @ x / x.shape[0]
        assert np.allclose(hat, cov, atol=0.02)

    def test_rejects_bad_covariance(self):
        with pytest.raises(ValueError):
            GaussianVector([[1.0, 0.0]])
        with pytest.raises(ValueError):
            GaussianVector([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError):
            GaussianVector([[1.0, 2.0], [2.0, 1.0]])
