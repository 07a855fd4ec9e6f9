"""Spectral-integral checks.

The Szego integral of a rational spectrum driven by unit-variance noise
must reproduce 0.5 log2(2 pi e sigma^2) regardless of the (stable,
invertible) filter; that closed form is the oracle throughout.  A
non-rational spectrum with an exactly-zero log integral (exp(cos w))
checks the quadrature independently of the rational plumbing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entrolim import (
    IID,
    GaussARMA,
    GenGaussAR,
    GeneralizedGaussian,
    SpectralDensity,
    SpectralIntegralError,
    gaussianity_whiteness,
    negentropy_rate_bits,
    szego_entropy_integral_bits,
)
from entrolim import spectral

GAUSS_RATE = 0.5 * math.log2(2 * math.pi * math.e)  # sigma^2 = 1


def test_flat_spectrum():
    s = SpectralDensity(evaluate=lambda w: np.full_like(np.asarray(w, float), 2.0))
    want = 0.5 * math.log2(2 * math.pi * math.e * 2.0)
    assert szego_entropy_integral_bits(s) == pytest.approx(want, abs=1e-11)


@pytest.mark.parametrize(
    "model",
    [
        GaussARMA(ar=(0.9,)),
        GaussARMA(ar=(0.5, 0.3)),
        GaussARMA(ma=(0.7,)),
        GaussARMA(ar=(0.5,), ma=(0.3,), innovation_variance=2.0),
        GaussARMA(ar=(0.98,)),  # sharply peaked, stresses the adaptivity
    ],
)
def test_szego_equals_innovation_entropy(model):
    want = 0.5 * math.log2(2 * math.pi * math.e * model.innovation_variance)
    got = szego_entropy_integral_bits(model.power_spectrum())
    assert got == pytest.approx(want, abs=1e-9)


def test_szego_nonrational_exact_zero_log_integral():
    # (1/2pi) integral of cos(w) dw = 0, so S = exp(cos w) has the same
    # Szego integral as the flat unit spectrum.
    s = SpectralDensity(evaluate=lambda w: np.exp(np.cos(np.asarray(w, float))))
    assert szego_entropy_integral_bits(s) == pytest.approx(GAUSS_RATE, abs=1e-9)


def test_density_validation():
    with pytest.raises(ValueError):
        SpectralDensity(evaluate=lambda w: np.cos(np.asarray(w, float)))  # negative
    with pytest.raises(ValueError):
        SpectralDensity(evaluate=lambda w: np.asarray(w, float) + 1.0)  # not even


def test_gauss_legendre_nodes_are_computed_once(monkeypatch):
    def refuse(order):
        raise AssertionError("leggauss called during integration")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    h = szego_entropy_integral_bits(GaussARMA(ar=(0.5,), ma=(0.3,)).power_spectrum())
    assert h == pytest.approx(GAUSS_RATE, abs=1e-9)


def test_node_budget_exhaustion(monkeypatch):
    # a kink the quadrature cannot resolve within a tiny node budget
    monkeypatch.setattr(spectral, "_ABS_TOL", 1e-13)
    monkeypatch.setattr(spectral, "_MAX_NODES", 64)
    spiky = SpectralDensity(
        evaluate=lambda w: np.abs(np.abs(np.asarray(w, float)) - 1.0) + 1e-12
    )
    with pytest.raises(SpectralIntegralError):
        szego_entropy_integral_bits(spiky)


# ---------------------------------------------------------------------------
# negentropy rate


def test_negentropy_gaussian_is_zero():
    assert negentropy_rate_bits(GaussARMA(ar=(0.6,), ma=(0.2,))) <= 1e-9


def test_negentropy_uniform():
    model = IID(GeneralizedGaussian.uniform(1.0))
    # 0.5 log2(2 pi e / 3) - 1, the entropy gap to a Gaussian of variance 1/3
    assert negentropy_rate_bits(model) == pytest.approx(
        0.2546143348200629, abs=1e-9
    )


def test_negentropy_laplace():
    model = IID(GeneralizedGaussian.laplace(1.0))
    # 0.5 log2(2 pi e * 2) - log2(2 e)
    assert negentropy_rate_bits(model) == pytest.approx(
        0.10440054429167756, abs=1e-9
    )


def test_negentropy_colored_nongaussian():
    innov = GeneralizedGaussian.uniform(1.0)
    model = GenGaussAR(ar=(0.9,), innovation=innov)
    # linear filtering leaves the per-sample negentropy of the innovation
    # sequence: szego adds the same log-gain to both entropy terms
    assert negentropy_rate_bits(model) == pytest.approx(
        0.2546143348200629, abs=1e-8
    )


class _Stub:
    """Minimal duck-typed model for the error paths."""

    def __init__(self, level, rate_bits, var):
        self._level = level
        self._rate = rate_bits
        self._var = var

    def power_spectrum(self):
        level = self._level
        return SpectralDensity(
            evaluate=lambda w: np.full_like(np.asarray(w, float), level)
        )

    def entropy_rate_bits(self):
        return self._rate

    def variance(self):
        return self._var


def test_negentropy_rejects_entropy_above_szego():
    # claims a rate 0.5 bits above the Gaussian maximum for its spectrum
    bad = _Stub(level=1.0, rate_bits=GAUSS_RATE + 0.5, var=1.0)
    with pytest.raises(RuntimeError):
        negentropy_rate_bits(bad)


# ---------------------------------------------------------------------------
# Gaussianity-whiteness figure


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=-0.9, max_value=0.9).filter(
        lambda v: v == 0.0 or abs(v) >= 1e-6
    )
)
def test_gw_ar1_closed_form(a):
    assert gaussianity_whiteness(GaussARMA(ar=(a,))) == pytest.approx(
        1.0 - a * a, rel=1e-9
    )


def test_gw_iid_values():
    assert gaussianity_whiteness(
        IID(GeneralizedGaussian.gaussian(2.0))
    ) == pytest.approx(1.0, abs=1e-12)
    assert gaussianity_whiteness(
        IID(GeneralizedGaussian.uniform(1.0))
    ) == pytest.approx(6.0 / (math.pi * math.e), rel=1e-12)
    assert gaussianity_whiteness(
        IID(GeneralizedGaussian.laplace(1.0))
    ) == pytest.approx(math.e / math.pi, rel=1e-12)


def test_gw_rejects_impossible_figure():
    bad = _Stub(level=1.0, rate_bits=GAUSS_RATE + 0.5, var=1.0)
    with pytest.raises(RuntimeError):
        gaussianity_whiteness(bad)


def test_gw_scale_invariant():
    a = gaussianity_whiteness(IID(GeneralizedGaussian.laplace(1.0)))
    b = gaussianity_whiteness(IID(GeneralizedGaussian.laplace(13.0)))
    assert a == pytest.approx(b, rel=1e-12)
