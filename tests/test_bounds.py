"""Bound arithmetic: frozen constants, the equality family, form algebra,
and agreement of the independent computation routes.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrolim as el

TWO_PI_E = 2.0 * math.pi * math.e


def test_norm_constants_frozen():
    assert el.lp_constant(1.0) == pytest.approx(5.43656365691809, abs=1e-14)
    assert el.lp_constant(2.0) == pytest.approx(4.132731354122493, abs=1e-14)
    assert el.lp_constant(4.0) == pytest.approx(3.291847424613842, abs=1e-14)
    assert el.lp_constant(3.0) == pytest.approx(3.59481657772285, abs=1e-13)
    assert el.lp_constant(math.inf) == 2.0


def test_lp_constant_validation():
    with pytest.raises(ValueError):
        el.lp_constant(0.99)


@settings(max_examples=50, deadline=None)
@given(
    p_lo=st.floats(min_value=1.0, max_value=40.0),
    bump=st.floats(min_value=1e-3, max_value=40.0),
)
def test_constant_decreases_with_p(p_lo, bump):
    # higher norms see weaker concentration: C_p shrinks toward C_inf = 2
    assert el.lp_constant(p_lo) > el.lp_constant(p_lo + bump) > 2.0


def test_equality_family_is_exact():
    # GG(p, mu) errors meet the bound with equality: 2^h / C_p == mu
    for p, mu in [(1.0, 0.3), (2.0, 1.0), (4.0, 1.3), (math.inf, 2.5)]:
        h = el.GeneralizedGaussian(p, mu).entropy_bits()
        assert el.lp_bound(h, p) == pytest.approx(mu, rel=1e-13)


def test_bound_monotone_in_entropy():
    assert el.lp_bound(2.0, 2.0) < el.lp_bound(2.5, 2.0)


def test_variance_and_maxdev_frozen():
    # h = 2.5 bits: the variance floor 2^(2h)/(2 pi e) is the one-dimensional
    # determinant floor, the max-deviation floor 2^h / 2 the p = inf bound
    assert el.mimo_det_bound(2.5, 1) == pytest.approx(1.8735946087782134, rel=1e-13)
    assert el.lp_bound(2.5, math.inf) == pytest.approx(2.8284271247461903, rel=1e-14)


def test_variance_bound_is_squared_gaussian_lp_bound():
    for h in (0.0, 0.7, 1.3, 2.5):
        assert el.mimo_det_bound(h, 1) == pytest.approx(
            el.lp_bound(h, 2.0) ** 2, rel=1e-12
        )


def test_mimo_det_equality_at_gaussian_innovation():
    # h = entropy of N(0, Q): the det floor must equal det Q exactly
    q = np.array([[1.0, 0.2], [0.2, 0.5]])
    h = 0.5 * (2 * math.log2(TWO_PI_E) + math.log2(np.linalg.det(q)))
    assert el.mimo_det_bound(h, 2) == pytest.approx(
        float(np.linalg.det(q)), rel=1e-12
    )


# ---------------------------------------------------------------------------
# report assembly on models


def test_at_step_and_asymptotic_reports():
    model = el.GaussARMA(ar=(0.9,))
    r0 = el.lp_bound_at_step(model, 2.0, 0)
    # h_0 is the stationary marginal: bound = std = 1/sqrt(1 - 0.81)
    assert r0.value == pytest.approx(math.sqrt(1.0 / 0.19), rel=1e-12)
    assert r0.k == 0
    r_inf = el.lp_bound_asymptotic(model, 2.0)
    assert r_inf.value == pytest.approx(1.0, rel=1e-12)
    assert r_inf.k is None
    r_one = el.lp_bound_at_step(model, 2.0, 1)
    assert r_one.value == pytest.approx(r_inf.value, rel=1e-12)  # AR(1) converges at k=1


def test_route_agreement_fixed_models():
    models = [
        el.GaussARMA(ar=(0.9,)),
        el.GaussARMA(ar=(0.5, 0.3)),
        el.GaussARMA(ma=(0.7,)),
        el.GaussARMA(ar=(0.5,), ma=(0.3,), innovation_variance=2.0),
        el.IID(el.GeneralizedGaussian.uniform(1.0)),
        el.IID(el.GeneralizedGaussian(4.0, 1.3)),
        el.GenGaussAR(ar=(0.5, 0.3), innovation=el.GeneralizedGaussian.laplace(1.0)),
    ]
    for model in models:
        for p in (1.0, 2.0, math.inf):
            direct = el.lp_bound_asymptotic(model, p).value
            spectral = el.spectral_lp_bound(model, p).value
            gw = el.gw_lp_bound(model, p).value
            assert abs(spectral - direct) < 1e-8 * max(1.0, direct)
            assert abs(gw - direct) < 1e-8 * max(1.0, direct)


def test_spectral_route_runs_one_quadrature(monkeypatch):
    # the route integrates the spectrum once and reads the innovation law
    # for J_w; it never re-derives J from a second quadrature
    integrals = []
    szego = el.spectral.szego_entropy_integral_bits

    def counted(density):
        integrals.append(density)
        return szego(density)

    def refused(model):
        raise AssertionError("spectral_lp_bound called negentropy_rate_bits")

    monkeypatch.setattr(el.spectral, "szego_entropy_integral_bits", counted)
    monkeypatch.setattr(el.spectral, "negentropy_rate_bits", refused)
    lapar = el.GenGaussAR(ar=(0.7,), innovation=el.GeneralizedGaussian.laplace(1.0))
    for model in (el.GaussARMA(ar=(0.5,), ma=(0.3,)), lapar):
        integrals.clear()
        el.spectral_lp_bound(model, 2.0)
        assert len(integrals) == 1


def test_spectral_route_needs_a_spectrum():
    vec = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    with pytest.raises(el.NotAnalyticError):
        el.spectral_lp_bound(vec, 2.0)


def test_mimo_reports():
    model = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    rep = el.mimo_det_bound_asymptotic(model)
    assert rep.dimension == 2
    assert rep.value == pytest.approx(0.46, rel=1e-10)  # det Q
    rep0 = el.mimo_det_bound_at_step(model, 0)
    det_s = float(np.linalg.det(model.stationary_covariance()))
    assert rep0.value == pytest.approx(det_s, rel=1e-10)


def test_report_values_are_the_two_formulas():
    # every report, from every route, derives its value from lp_bound or
    # mimo_det_bound, bit for bit, and its constant from the same inputs
    ar1 = el.GaussARMA(ar=(0.9,))
    unif = el.IID(el.GeneralizedGaussian.uniform(1.0))
    # below its AR order a GenGaussAR has no analytic conditional entropy
    lapar = el.GenGaussAR(ar=(0.5, 0.3), innovation=el.GeneralizedGaussian.laplace(1.0))
    vec = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    reports = [
        route(model, p)
        for model in (ar1, unif)
        for p in (1.0, 2.0, 4.0, math.inf)
        for route in (
            lambda m, p: el.lp_bound_at_step(m, p, 2),
            el.lp_bound_asymptotic,
            el.spectral_lp_bound,
            el.gw_lp_bound,
        )
    ]
    reports += [el.mimo_det_bound_at_step(vec, 1), el.mimo_det_bound_asymptotic(vec)]
    estimated = el.verify_bound(
        lapar, el.zero_controller(), 2.0, horizon=20_000, seed=4, trials=50, k=1
    )
    assert estimated.h_source == "estimated"
    reports.append(estimated.bound)
    assert {r.form for r in reports} == {
        "at_step", "asymptotic", "spectral", "gw", "mimo_det"
    }
    for r in reports:
        if r.form == "mimo_det":
            assert r.value == el.mimo_det_bound(r.h_bits, r.dimension)
            assert r.constant == TWO_PI_E**r.dimension
        else:
            assert r.value == el.lp_bound(r.h_bits, r.p)
            assert r.constant == el.lp_constant(r.p)


def test_report_refuses_p_below_one():
    with pytest.raises(ValueError, match="p must be >= 1"):
        el.BoundReport("asymptotic", 0.5, None, 1.0)


@pytest.mark.parametrize("form", ["maxdev", "variance", "mimo_product"])
def test_report_rejects_forms_nothing_produces(form):
    with pytest.raises(ValueError, match="unknown bound form"):
        el.BoundReport(form, None, None, 1.0)


def test_a_floor_out_of_the_float64_range_is_an_error_not_a_verdict():
    # a vector model whose noise covariance is near 1e-162 has h near -535 bits:
    # its determinant floor 2^(2h) / (2 pi e)^2 underflows to 0, which read as
    # "ok" at a gap of NaN.  Every floor refuses a value that is no positive
    # normal float
    model = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)), innovation_covariance=((1e-162, 2e-163), (2e-163, 5e-163))
    )
    for bound in (lambda: el.mimo_det_bound_asymptotic(model), lambda: el.mimo_det_bound_at_step(model, 0)):
        with pytest.raises(ValueError, match=r"^mimo_det floor 0 is out of the float64 range \(h = -534\.\d+ bits\)$"):
            bound()
    for form, p, h in (("asymptotic", 2.0, -1100.0), ("mimo_det", None, -520.0)):
        with pytest.raises(ValueError, match=f"^{form} floor .* out of the float64 range"):
            el.BoundReport(form, p, None, h)
    assert el.BoundReport("mimo_det", None, None, -500.0, 1).value > 0.0
