"""Package-level acceptance checks, one per headline property.

Each test is a single pass/fail gate: equality of the floors for the
matched distribution/controller pairs, universality of the bound under
arbitrary causal policies, agreement of the independent analytic routes,
the MIMO determinant and product floors, the serial-information identity,
tightness certificates, estimator calibration, and the causality audits.
Sample sizes and tolerances are pinned; runtime-sensitive checks assert a
wall-clock budget.
"""

import math
import time

import numpy as np
import pytest

import entrolim as el

H_GAUSS = 0.5 * math.log2(2.0 * math.pi * math.e)

AR1 = el.GaussARMA(ar=(0.9,))


def test_criterion_01_variance_floor_equality_ar1():
    start = time.perf_counter()
    rep = el.verify_bound(
        AR1,
        el.predictor_controller(AR1),
        2.0,
        horizon=101_000,
        seed=101,
        burn_in=1_000,
        tightness=False,
    )
    assert rep.bound.value == pytest.approx(1.0, rel=1e-12)
    assert rep.empirical == pytest.approx(1.0, rel=0.01)
    assert not rep.violation

    slack = el.verify_bound(
        AR1,
        el.zero_controller(),
        2.0,
        horizon=101_000,
        seed=102,
        burn_in=1_000,
        tightness=False,
    )
    assert slack.gap_ratio == pytest.approx(2.294157, rel=0.02)
    assert time.perf_counter() - start < 5.0


def test_criterion_02_maxdev_floor_equality_uniform_ar():
    start = time.perf_counter()
    model = el.GenGaussAR(ar=(0.9,), innovation=el.GeneralizedGaussian.uniform(1.0))
    rep = el.verify_bound(
        model,
        el.predictor_controller(model),
        math.inf,
        horizon=1_010_000,
        seed=201,
        burn_in=10_000,
        tightness=False,
    )
    assert rep.bound.value == pytest.approx(1.0, rel=1e-12)
    assert 0.99 <= rep.empirical <= 1.0
    assert not rep.violation
    assert time.perf_counter() - start < 10.0


def test_criterion_03_lp_floor_equality_matched_iid():
    for p, seed in [(1.0, 301), (4.0, 302)]:
        model = el.IID(el.GeneralizedGaussian(p, 1.0))
        rep = el.verify_bound(
            model,
            el.zero_controller(),
            p,
            horizon=1_001_000,
            seed=seed,
            burn_in=1_000,
            tightness=False,
        )
        assert rep.bound.value == pytest.approx(1.0, rel=1e-12)
        assert rep.empirical == pytest.approx(1.0, rel=0.01)
        assert not rep.violation


def test_criterion_04_no_violations_under_random_controllers():
    start = time.perf_counter()
    models = [
        AR1,
        el.GaussARMA(ar=(0.5, 0.3)),
        el.GaussARMA(ma=(0.7,)),
        el.GenGaussAR(ar=(0.9,), innovation=el.GeneralizedGaussian.uniform(1.0)),
    ]
    p_values = (1.0, 2.0, math.inf)
    floors = {
        (mi, p): el.lp_bound_asymptotic(model, p).value
        for mi, model in enumerate(models)
        for p in p_values
    }
    horizon, burn = 3_000, 1_000
    seeds = el.spawn_seeds(20260815, 200 * (1 + len(models)))
    rng = np.random.default_rng(4)
    cells = violations = 0
    for i in range(200):
        controller = el.random_causal_controller(
            seeds[i],
            memory=int(rng.integers(0, 6)),
            gain_cap=float(rng.uniform(0.5, 4.0)),
        )
        for mi, model in enumerate(models):
            trace = el.run_loop(model, controller, horizon, seeds[200 + i * len(models) + mi])
            post = trace.e[burn:]
            for p in p_values:
                empirical, se = el.lp_norm_estimate(post, p)
                violations += empirical < floors[(mi, p)] - 3.0 * se
                cells += 1
    assert cells == 2400
    assert violations == 0
    assert time.perf_counter() - start < 300.0


def test_criterion_05_analytic_routes_agree():
    rng = np.random.default_rng(55)

    def random_poly_taps(order):
        if order == 0:
            return np.array([1.0])
        roots = []
        while len(roots) < order:
            if order - len(roots) >= 2 and rng.random() < 0.6:
                radius = rng.uniform(0.1, 0.88)
                angle = rng.uniform(0.0, math.pi)
                root = radius * complex(math.cos(angle), math.sin(angle))
                roots.extend([root, root.conjugate()])
            else:
                roots.append(complex(rng.uniform(-0.88, 0.88)))
        return np.real(np.poly(roots))

    for _ in range(50):
        ar_poly = random_poly_taps(int(rng.integers(1, 4)))
        ma_poly = random_poly_taps(int(rng.integers(0, 3)))
        model = el.GaussARMA(
            ar=tuple(-ar_poly[1:]),
            ma=tuple(ma_poly[1:]),
            innovation_variance=float(rng.uniform(0.5, 2.0)),
        )
        direct = el.lp_bound_asymptotic(model, 2.0).value
        assert abs(el.spectral_lp_bound(model, 2.0).value - direct) < 1e-8
        assert abs(el.gw_lp_bound(model, 2.0).value - direct) < 1e-8

    for model in [AR1, el.GaussARMA(ar=(0.5, 0.3)), el.GaussARMA(ma=(0.7,))]:
        szego = el.szego_entropy_integral_bits(model.power_spectrum())
        closed = 0.5 * math.log2(2.0 * math.pi * math.e * model.innovation_variance)
        assert abs(szego - closed) < 1e-8


def test_criterion_06_negentropy_and_gw_anchors():
    arma = el.GaussARMA(ar=(0.5, 0.2), ma=(0.4,))
    assert abs(el.negentropy_rate_bits(arma)) < 1e-8

    gauss = el.IID(el.GeneralizedGaussian.gaussian(1.0))
    assert el.gaussianity_whiteness(gauss) == pytest.approx(1.0, abs=1e-6)
    assert el.gaussianity_whiteness(el.GaussARMA(ar=(0.5,))) == pytest.approx(
        0.75, abs=1e-6
    )
    laplace = el.IID(el.GeneralizedGaussian.laplace(1.0))
    assert el.gaussianity_whiteness(laplace) == pytest.approx(
        math.e / math.pi, abs=1e-6
    )
    uniform = el.IID(el.GeneralizedGaussian.uniform(1.0))
    assert el.gaussianity_whiteness(uniform) == pytest.approx(
        6.0 / (math.pi * math.e), abs=1e-6
    )


def test_criterion_07_mimo_determinant_and_product_floors():
    identity = ((1.0, 0.0), (0.0, 1.0))
    white = el.VectorGaussAR(
        transition=((0.0, 0.0), (0.0, 0.0)), innovation_covariance=identity
    )
    rep = el.verify_mimo_bound(
        white, el.zero_controller(dim=2), horizon=1_001_000, seed=701, burn_in=1_000
    )
    assert rep.bound.value == pytest.approx(1.0, rel=1e-12)
    assert rep.empirical == pytest.approx(1.0, rel=0.02)
    assert not rep.violation
    assert not rep.product.violation
    assert rep.product.empirical >= rep.bound.value * (1 - 1e-12)

    half = el.VectorGaussAR(
        transition=((0.5, 0.0), (0.0, 0.5)), innovation_covariance=identity
    )
    tight = el.verify_mimo_bound(
        half, el.predictor_controller(half), horizon=1_001_000, seed=702, burn_in=1_000
    )
    assert 0.98 <= tight.gap_ratio <= 1.02
    assert not tight.violation
    assert not tight.product.violation


def test_criterion_08_serial_information_identity():
    consistent = 0
    for i in range(10):
        trace = el.run_loop(AR1, el.predictor_controller(AR1), 21_000, seed=800 + i)
        cert = el.tightness_report(trace, 2.0, burn_in=1_000, seed=i)
        consistent += cert.mi_identity_consistent
    for i in range(10):
        trace = el.run_loop(AR1, el.zero_controller(), 21_000, seed=820 + i)
        cert = el.tightness_report(trace, 2.0, burn_in=1_000, seed=i)
        consistent += cert.mi_identity_consistent
    assert consistent == 20


def test_criterion_09_tightness_certificates():
    uniform_ar = el.GenGaussAR(
        ar=(0.9,), innovation=el.GeneralizedGaussian.uniform(1.0)
    )
    cells = [
        (AR1, el.predictor_controller(AR1)),
        (el.GaussARMA(ma=(0.7,)), el.predictor_controller(el.GaussARMA(ma=(0.7,)))),
        (uniform_ar, el.predictor_controller(uniform_ar)),
        (AR1, el.zero_controller()),
    ]
    tight_cells = 0
    for seed_base, (model, controller) in enumerate(cells):
        for p in (1.0, 2.0, math.inf):
            rep = el.verify_bound(
                model,
                controller,
                p,
                horizon=21_000,
                seed=900 + seed_base,
                burn_in=1_000,
                tightness=True,
            )
            if rep.gap_ratio <= 1.02:
                tight_cells += 1
                assert rep.tightness.whiteness_pass
                assert rep.tightness.gg_fit_pass
    assert tight_cells >= 2  # equality cells must actually occur

    colored = el.run_loop(AR1, el.zero_controller(), 21_000, seed=904)
    cert = el.tightness_report(colored, 2.0, burn_in=1_000)
    assert not cert.whiteness_pass
    assert cert.whiteness.autocorrelations[0] == pytest.approx(0.9, abs=0.01)


def test_criterion_10_estimator_calibration():
    n = 20_000
    hits = 0
    for i in range(25):
        g = np.random.default_rng(1000 + i)

        est = el.entropy_estimate_1d(g.standard_normal(n))
        hits += abs(est.value_bits - H_GAUSS) <= 3 * est.std_error_bits

        lap = el.GeneralizedGaussian.laplace(1.0)
        est = el.entropy_estimate_1d(lap.sample(n, seed=2000 + i))
        hits += abs(est.value_bits - lap.entropy_bits()) <= 3 * est.std_error_bits

        est = el.entropy_estimate_1d(g.uniform(-1.0, 1.0, size=n))
        hits += abs(est.value_bits - 1.0) <= 3 * est.std_error_bits

        est = el.entropy_estimate_knn(g.standard_normal((n, 2)))
        hits += abs(est.value_bits - 2 * H_GAUSS) <= 3 * est.std_error_bits
    assert hits >= 95


def test_criterion_11_causality_audits():
    learned = el.resolve_controller({"kind": "learned", "train_steps": 20_000}, AR1, 5)
    for controller in [
        el.predictor_controller(AR1),
        learned,
        el.random_causal_controller(seed=6),
    ]:
        assert el.causality_audit(controller, trials=25, seed=7).passed

    double = el.anticipatory_double()
    report = el.causality_audit(double, length=128, trials=25, seed=8)
    assert not report.passed
    assert len(report.violations) == 25
    base = np.random.default_rng(9).standard_normal(64)
    reference = double.run(base, False)[0]
    for k in range(64):
        perturbed = base.copy()
        perturbed[k] += 1.0
        assert double.run(perturbed, False)[0][k] != reference[k]

    models = [
        AR1,
        el.GaussARMA(ar=(0.5, 0.3)),
        el.GaussARMA(ma=(0.7,)),
        el.GenGaussAR(ar=(0.9,), innovation=el.GeneralizedGaussian.uniform(1.0)),
        el.VectorGaussAR(
            transition=((0.5, 0.1), (0.0, 0.3)),
            innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
        ),
    ]
    passed = 0
    for i in range(100):
        model = models[i % len(models)]
        if model.dim == 1:
            pool = [
                el.predictor_controller(model),
                el.random_causal_controller(seed=1100 + i),
                el.compose_loop(el.delay_stage(), el.gain_stage(-0.4), order="KP"),
            ]
            controller = pool[(i // len(models)) % len(pool)]
        else:
            controller = el.predictor_controller(model)
        report = el.closed_loop_causality_check(
            model, controller, length=192, trials=1, seed=1200 + i
        )
        passed += report.passed
    assert passed == 100
