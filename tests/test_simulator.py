"""Closed-loop mechanics: the e = d + z identity, predictor structure,
stage composition, causality audits, and trace serialization.
"""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest

import entrolim as el
from entrolim import simulator

AR1 = el.GaussARMA(ar=(0.9,))
AR2 = el.GaussARMA(ar=(0.5, 0.3))


def test_loop_identity_is_exact():
    for ctrl in [
        el.zero_controller(),
        el.predictor_controller(AR1),
        el.random_causal_controller(seed=7),
    ]:
        trace = el.run_loop(AR1, ctrl, 500, seed=3)
        assert np.array_equal(trace.e, trace.d + trace.z)
        assert trace.length == 500


def test_zero_controller_passes_disturbance_through():
    trace = el.run_loop(AR1, el.zero_controller(), 300, seed=1)
    assert np.array_equal(trace.e, trace.d)
    assert np.all(trace.z == 0.0)


def test_reproducible_per_seed():
    a = el.run_loop(AR1, el.predictor_controller(AR1), 200, seed=42)
    b = el.run_loop(AR1, el.predictor_controller(AR1), 200, seed=42)
    assert np.array_equal(a.e, b.e)
    c = el.run_loop(AR1, el.predictor_controller(AR1), 200, seed=43)
    assert not np.array_equal(a.d, c.d)


def test_run_loop_validation():
    with pytest.raises(ValueError, match="length"):
        el.run_loop(AR1, el.zero_controller(), 0, seed=0)
    vec = el.VectorGaussAR(
        transition=((0.5, 0.0), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.0), (0.0, 1.0)),
    )
    with pytest.raises(ValueError, match="dimension"):
        el.run_loop(vec, el.zero_controller(), 10, seed=0)


def test_trace_shape_guard():
    with pytest.raises(ValueError, match="shape"):
        el.SimulationTrace(
            d=np.zeros(3), z=np.zeros(4), e=np.zeros(3),
            seed=0, model_descriptor="m", controller_descriptor="c",
        )


# ---------------------------------------------------------------------------
# predictor structure


def test_predictor_ar1_plays_the_tap():
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 400, seed=5)
    # z_0 = 0; z_k = -0.9 * d_{k-1} (d reconstructed as e - z inside)
    assert trace.z[0] == 0.0
    assert np.allclose(trace.z[1:], -0.9 * trace.d[:-1], atol=1e-12)
    # residual is the innovation: unit variance
    assert np.var(trace.e[1:]) == pytest.approx(1.0, rel=0.2)


def test_predictor_ar2_tap_ladder():
    trace = el.run_loop(AR2, el.predictor_controller(AR2), 400, seed=6)
    # only one lag available at k = 1: optimal order-1 tap is r1/r0 = 5/7
    assert trace.z[1] == pytest.approx(-(5.0 / 7.0) * trace.d[0], abs=1e-12)
    predicted = 0.5 * trace.d[1:-1] + 0.3 * trace.d[:-2]
    assert np.allclose(trace.z[2:], -predicted, atol=1e-12)


def _doubling_reference_taps(model):
    # grow the ladder order by doubling until P_n has converged, else the cap
    rate_var = model.innovation_variance
    cap = simulator._TAP_ORDER_CAP
    order = 1
    while order <= cap:
        coeffs, variances = el.levinson_ladder(model.autocovariance(order), order)
        if variances[order] - rate_var <= simulator._TAP_CONVERGENCE * rate_var:
            return coeffs
        order = min(order * 2, cap + 1)
    coeffs, _ = el.levinson_ladder(model.autocovariance(cap), cap)
    return coeffs


@pytest.mark.parametrize(
    "model, top",
    [
        (AR1, 1),
        (el.GaussARMA(ar=(0.5, 0.3), ma=(0.4,)), 16),
        (el.GaussARMA(ma=(0.99,)), simulator._TAP_ORDER_CAP),
        (el.GenGaussAR(ar=(0.6, -0.2), innovation=el.GeneralizedGaussian.laplace(1.0)), 2),
    ],
    ids=["ar1", "arma21", "ma099-cap", "gengauss-ar2"],
)
def test_prediction_taps_match_doubling_reference(model, top):
    got = simulator._prediction_taps(model)
    want = _doubling_reference_taps(model)
    assert len(got) == len(want) == top + 1
    for mine, ref in zip(got, want):
        assert np.array_equal(mine, -ref)  # the predictor plays the negated taps


def test_prediction_taps_are_cached_per_model(monkeypatch):
    calls = []
    ladder = simulator.levinson_ladder

    def counted(acov, order):
        calls.append(order)
        return ladder(acov, order)

    monkeypatch.setattr(simulator, "levinson_ladder", counted)
    simulator._prediction_taps.cache_clear()
    model = el.GaussARMA(ar=(0.5, 0.3), ma=(0.4,))
    first = simulator._prediction_taps(model)
    assert calls == [16]
    again = simulator._prediction_taps(el.GaussARMA(ar=(0.5, 0.3), ma=(0.4,)))
    el.predictor_controller(model)
    assert calls == [16]
    assert again is first
    want = _doubling_reference_taps(model)
    assert len(first) == len(want)
    for mine, ref in zip(first, want):
        assert np.array_equal(mine, -ref)
        assert not mine.flags.writeable


def test_policy_needs_a_step_or_a_well_formed_ladder():
    with pytest.raises(ValueError, match="step or taps"):
        el.ControllerPolicy()
    ladder = el.predictor_controller(AR2).taps
    for bad in ((), ladder[1:], ladder[::-1]):
        with pytest.raises(ValueError, match="j taps"):
            el.ControllerPolicy(taps=bad)
    with pytest.raises(ValueError, match="z_0 = 0"):
        el.ControllerPolicy(taps=ladder, initial_output=1.0)
    # above dim 1, taps[j] holds j dim x dim matrices, z_0 is a zero vector and
    # the frozen order is at most 16
    square = simulator._read_only([np.zeros((j, 2, 2)) for j in range(3)])
    for bad, dim in (
        (ladder, 2),  # scalar taps at dim 2
        (simulator._read_only([np.zeros((j, 2, 3)) for j in range(3)]), 2),  # not square
        (square, 3),  # 2 x 2 matrices at dim 3
        (square, 1),
    ):
        with pytest.raises(ValueError, match="j taps"):
            el.ControllerPolicy(taps=bad, dim=dim)
    with pytest.raises(ValueError, match="z_0 = 0"):
        el.ControllerPolicy(taps=square, dim=2, initial_output=np.array([0.0, 1.0]))
    assert el.ControllerPolicy(taps=square, dim=2, initial_output=np.zeros(2)).kernel is not None
    deep = simulator._read_only([np.zeros((j, 2, 2)) for j in range(simulator._FIXED_POINT_ORDER + 2)])
    with pytest.raises(ValueError, match="up to order 16"):
        el.ControllerPolicy(taps=deep, dim=2)
    assert el.ControllerPolicy(taps=deep[:-1], dim=2, initial_output=np.zeros(2)).kernel is not None
    # z_0 has shape (dim,), or () at dim 1; a wrong shape is refused where the
    # policy is made, not in the audit's broadcast
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        el.ControllerPolicy(taps=square, dim=2, initial_output=np.zeros(3))
    with pytest.raises(ValueError, match=r"shape \(2,\)"):
        el.ControllerPolicy(taps=square, dim=2)
    with pytest.raises(ValueError, match=r"shape \(1,\)"):
        el.ControllerPolicy(step=lambda e_hist, z_hist: 0.0, initial_output=np.zeros(2))
    one_by_one = el.VectorGaussAR(transition=((0.5,),), innovation_covariance=((1.0,),))
    assert np.shape(el.predictor_controller(one_by_one).initial_output) == (1,)
    # the taps are the law: a policy built from them, or a copy under another
    # name, plays the predictor's outputs
    want = el.run_loop(AR2, el.predictor_controller(AR2), 50, seed=2).z
    for policy in (
        el.ControllerPolicy(taps=ladder),
        dataclasses.replace(el.predictor_controller(AR2), descriptor="renamed"),
    ):
        assert np.array_equal(el.run_loop(AR2, policy, 50, seed=2).z, want)
    # the descriptor names the law; the ladder stays out of the repr
    assert repr(el.ControllerPolicy(taps=ladder)) == (
        "ControllerPolicy(initial_output=0.0, descriptor='custom', dim=1)"
    )


def test_predictor_on_iid_is_zero():
    model = el.IID(el.GeneralizedGaussian.laplace(1.0))
    trace = el.run_loop(model, el.predictor_controller(model), 200, seed=9)
    assert np.all(trace.z == 0.0)


@pytest.mark.parametrize(
    "model",
    [el.GaussARMA(), el.GenGaussAR(ar=(), innovation=el.GeneralizedGaussian.laplace(1.0))],
    ids=["gauss_arma", "gengauss_ar"],
)
def test_predictor_on_a_white_model_is_the_zero_law(model):
    # frozen at order 0: z is +0.0 throughout (an order-1 tap of 0 gave -0.0)
    trace = el.run_loop(model, el.predictor_controller(model), 200, seed=9)
    assert not np.signbit(trace.z).any() and np.all(trace.z == 0.0)
    assert np.array_equal(trace.e, trace.d)


def test_predictor_arma_reaches_innovation_variance():
    model = el.GaussARMA(ar=(0.5,), ma=(0.3,))
    trace = el.run_loop(model, el.predictor_controller(model), 60_000, seed=11)
    # after the taps converge the residual carries only the innovation
    assert np.var(trace.e[1000:]) == pytest.approx(1.0, rel=0.03)


def test_predictor_vector_cancels_transition():
    model = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    trace = el.run_loop(model, el.predictor_controller(model), 300, seed=13)
    a = np.array([[0.5, 0.1], [0.0, 0.3]])
    # e_k = d_k - A d_{k-1} = w_k for k >= 1
    residual = trace.d[1:] - trace.d[:-1] @ a.T
    assert np.allclose(trace.e[1:], residual, atol=1e-12)
    assert np.array_equal(trace.e[0], trace.d[0])


# ---------------------------------------------------------------------------
# learned and random policies


def test_learned_controller_recovers_ar_taps():
    training = [el.run_loop(AR2, el.zero_controller(), 50_000, seed=s) for s in (0, 1)]
    ctrl = el.learned_controller(training, memory=2)
    trace = el.run_loop(AR2, ctrl, 50_000, seed=99)
    assert np.var(trace.e[100:]) == pytest.approx(1.0, rel=0.05)


def test_learned_controller_validation():
    with pytest.raises(ValueError, match="memory"):
        el.learned_controller([], memory=0)
    short = el.run_loop(AR1, el.zero_controller(), 3, seed=0)
    with pytest.raises(ValueError, match="shorter"):
        el.learned_controller([short], memory=5)
    vec_model = el.VectorGaussAR(
        transition=((0.2, 0.0), (0.0, 0.2)),
        innovation_covariance=((1.0, 0.0), (0.0, 1.0)),
    )
    vec_trace = el.run_loop(vec_model, el.zero_controller(dim=2), 50, seed=0)
    with pytest.raises(ValueError, match="scalar"):
        el.learned_controller([vec_trace], memory=2)


def test_learned_controller_refuses_non_finite_training_data():
    # NaN taps would fail both causality audits at every step: a verdict by accident
    good = el.run_loop(AR1, el.zero_controller(), 200, seed=0)
    for bad in (math.inf, -math.inf, math.nan):
        d = good.d.copy()
        d[57] = bad
        trace = dataclasses.replace(good, d=d, e=d + good.z)
        with pytest.raises(ValueError, match="training trace 1 has a non-finite .* step 57"):
            el.learned_controller([good, trace], memory=2)


def _at_step(ladder, e_hist, z_hist):
    """The FIR step with ``@`` at every order: one dot per call on a negatively
    strided view."""
    order = min(e_hist.shape[0], len(ladder) - 1)
    if order == 0:
        return 0.0
    d_recent = e_hist[-order:] - z_hist[-order:]
    return float(ladder[order] @ d_recent[::-1])


def _at_kernel(ladder, x, closed):
    """The FIR kernel with ``@`` at every order, on a reversed view of a preallocated d."""
    n, top = x.shape[0], len(ladder) - 1
    ds = np.empty(n)
    rev = ds[::-1]  # rev[n - k :] is d_{k-1}, d_{k-2}, ..., d_0
    zs, es = [], []
    for k, xk in enumerate(x.tolist()):
        order = min(k, top)
        zk = float(ladder[order] @ rev[n - k : n - k + order]) if order else 0.0
        ek = xk + zk if closed else xk
        zs.append(zk)
        es.append(ek)
        ds[k] = ek - zk
    return np.array(zs), (np.array(es) if closed else x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fir_orders_up_to_sixteen_equal_the_at_recursion_they_replace():
    # numpy's @ on a negatively strided operand sums in order from 0 without
    # BLAS, so on the pinned x86-64 numpy (no fused multiply-add) it rounds as
    # the Python-float sums; where numpy fuses, orders 2 and up may differ and
    # the Python-float step is the definition.  Bits are compared exactly, NaN
    # signs included, except in a closed loop long enough for the fixed point,
    # whose numpy arithmetic may return the other NaN where two meet
    raw = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    rng = np.random.default_rng(20)
    ladders = [
        simulator.predictor_controller(AR1).taps,
        simulator.predictor_controller(AR2).taps,
        simulator._read_only([np.zeros(0), np.array([-0.0])]),
        simulator._read_only([np.zeros(0), np.array([0.4]), np.array([-0.0, 0.7])]),
        simulator._read_only([np.zeros(0), np.array([-0.0]), np.array([1.3, -0.0])]),
    ]
    ladders += [
        simulator._read_only([rng.standard_normal(j) for j in range(top + 1)])
        for top in range(1, simulator._FIXED_POINT_ORDER + 1) for _ in range(4 if top < 3 else 1)
    ]
    for ladder in ladders:
        ctrl = el.ControllerPolicy(taps=ladder)
        at = el.ControllerPolicy(step=partial(_at_step, ladder))
        for n in (1, 2, 3, 300):
            for bad in (math.nan, math.inf, -math.inf, -0.0, 0.0):
                x = 3.0 * rng.standard_normal(n)
                x[0] = -0.0
                x[rng.integers(n)] = bad
                for closed in (True, False):
                    fixed_point = closed and n - (len(ladder) - 1) >= simulator._FIXED_POINT_MIN_STEPS
                    bits = simulator._bits if fixed_point else raw
                    for got, want in zip(ctrl.kernel(x, closed), _at_kernel(ladder, x, closed)):
                        assert np.array_equal(bits(got), bits(want))
                    for got, want in zip(ctrl.step_recursion(x, closed), at.step_recursion(x, closed)):
                        assert np.array_equal(raw(got), raw(want))


def test_random_controller_respects_gain_cap():
    ctrl = el.random_causal_controller(seed=21, memory=4, gain_cap=1.5)
    huge = 50.0 * np.ones(100)
    out = ctrl.run(huge, False)[0]
    assert np.all(np.abs(out) <= 1.5)
    with pytest.raises(ValueError, match="memory"):
        el.random_causal_controller(seed=0, memory=-1)
    with pytest.raises(ValueError, match="gain_cap"):
        el.random_causal_controller(seed=0, gain_cap=0.0)


def test_random_controller_memory_zero_is_constant():
    ctrl = el.random_causal_controller(seed=3, memory=0)
    out = ctrl.run(np.random.default_rng(0).standard_normal(50), False)[0]
    assert np.all(out == 0.0)


def _np_clip_step(cap, weights, bias):
    """The random controller's step with the np.clip formula it replaced."""

    def step(e_hist, z_hist):
        avail = min(e_hist.shape[0], weights.size)
        if avail == 0:
            return float(np.clip(bias, -cap, cap))
        u = bias + float(weights[:avail] @ e_hist[-avail:][::-1])
        return float(np.clip(u, -cap, cap))

    return step


class _FixedDraws:
    """Stands in for the controller's rng: fixed weights and bias."""

    def __init__(self, weights, bias):
        self.weights, self.bias = weights, bias

    def uniform(self, low, high, size=None):
        return self.weights if size is not None else self.bias


@pytest.mark.parametrize("cap", [1.5, 2])
def test_random_controller_clip_matches_np_clip(monkeypatch, cap):
    # -0.0 + u == u for every u, so a unit weight and a -0.0 bias feed each
    # probe to the clip unchanged; a probe as bias covers the empty history
    probes = [float(cap), -float(cap), math.inf, -math.inf, math.nan, -0.0, 0.0, 7.0]
    for probe in probes:
        for weights, bias, e_hist in (
            (np.array([1.0]), -0.0, np.array([probe])),
            (np.array([1.0]), probe, np.empty(0)),
        ):
            monkeypatch.setattr(simulator, "as_rng", lambda seed: _FixedDraws(weights, bias))
            got = el.random_causal_controller(0, memory=1, gain_cap=cap).step(e_hist, e_hist)
            want = _np_clip_step(cap, weights, bias)(e_hist, e_hist)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (probe, bias)


def test_random_controller_loop_matches_np_clip_reference():
    ctrl = el.random_causal_controller(seed=11, memory=3, gain_cap=2)
    rng = np.random.default_rng(11)
    weights = rng.uniform(-1.0, 1.0, size=3)
    bias = float(rng.uniform(-0.5, 0.5))
    reference = el.ControllerPolicy(step=_np_clip_step(2, weights, bias))
    for model in (AR1, AR2):
        got = el.run_loop(model, ctrl, 2_000, seed=4)
        want = el.run_loop(model, reference, 2_000, seed=4)
        assert np.any(np.abs(got.z) == 2.0)  # the cap is reached
        assert np.array_equal(got.e, want.e)
        assert np.array_equal(got.z, want.z)


def test_respond_matches_closed_loop_outputs():
    ctrl = el.predictor_controller(AR2)
    trace = el.run_loop(AR2, ctrl, 250, seed=17)
    assert np.array_equal(ctrl.run(trace.e, False)[0], trace.z)


# ---------------------------------------------------------------------------
# stage composition


def test_compose_orders_differ_for_nonlinear_stages():
    plant = el.delay_stage(gain=2.0)
    clip = el.CausalStage(
        apply=lambda x: np.clip(np.asarray(x, dtype=float), -0.1, 0.1),
        strictly_causal=False,
        descriptor="clip(0.1)",
    )
    errors = np.array([0.2, 0.2, 0.2])
    kp = el.compose_loop(plant, clip, order="KP")   # clip(2 e_{k-1})
    pk = el.compose_loop(plant, clip, order="PK")   # 2 clip(e_{k-1})
    assert kp.run(errors, False)[0][2] == pytest.approx(0.1)
    assert pk.run(errors, False)[0][2] == pytest.approx(0.2)


def test_compose_delay_gain_in_loop():
    policy = el.compose_loop(el.delay_stage(), el.gain_stage(-0.5), order="KP")
    trace = el.run_loop(AR1, policy, 300, seed=23)
    assert np.allclose(trace.z[1:], -0.5 * trace.e[:-1], atol=1e-14)
    assert trace.z[0] == 0.0


def test_compose_rejects_fully_memoryless_pair():
    with pytest.raises(ValueError, match="strictly causal"):
        el.compose_loop(el.gain_stage(1.0), el.gain_stage(-0.5), order="KP")
    with pytest.raises(ValueError, match="order"):
        el.compose_loop(el.delay_stage(), el.gain_stage(1.0), order="XY")


# ---------------------------------------------------------------------------
# causality audits


@pytest.mark.parametrize(
    "ctrl",
    [
        el.zero_controller(),
        el.predictor_controller(AR1),
        el.random_causal_controller(seed=31),
        el.compose_loop(el.delay_stage(), el.gain_stage(0.7), order="PK"),
    ],
    ids=["zero", "predictor", "random", "composed"],
)
def test_audit_passes_honest_policies(ctrl):
    report = el.causality_audit(ctrl, length=128, trials=25, seed=2)
    assert report.passed
    assert report.violations == ()


def test_audit_fails_anticipatory_double_every_trial():
    report = el.causality_audit(el.anticipatory_double(), length=128, trials=25, seed=2)
    assert not report.passed
    assert len(report.violations) == 25


def test_audit_on_vector_policy():
    model = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    report = el.causality_audit(el.predictor_controller(model), length=64, trials=10, seed=4)
    assert report.passed


def test_audit_on_a_one_by_one_vector_predictor():
    # dim 1, but the policy reads (n, 1) rows: its z_0 is a vector
    model = el.VectorGaussAR(transition=((0.5,),), innovation_covariance=((1.0,),))
    ctrl = el.predictor_controller(model)
    assert el.causality_audit(ctrl, length=64, trials=10, seed=4).passed
    assert el.closed_loop_causality_check(model, ctrl, length=64, trials=5, seed=4).passed


def _off_by_one_ulp(policy, index):
    """A causal kernel equal to the step recursion except one ulp at ``index``."""

    def kernel(x, closed):
        z, e = policy.step_recursion(x, closed)
        z = z.copy()
        z[index] = np.nextafter(z[index], np.inf)
        return z, (x + z if closed else e)

    return el.ControllerPolicy(step=policy.step, descriptor="ulp", kernel=kernel)


def test_audits_check_the_kernel_against_the_step_recursion():
    honest = el.predictor_controller(AR2)
    assert el.causality_audit(honest, length=64, trials=3, seed=1).passed
    assert el.closed_loop_causality_check(AR2, honest, length=64, trials=3, seed=1).passed
    nudged = _off_by_one_ulp(honest, 37)
    # the nudge is causal: the perturbation trials alone cannot see it
    open_rep = el.causality_audit(nudged, length=64, trials=3, seed=1)
    closed_rep = el.closed_loop_causality_check(AR2, nudged, length=64, trials=3, seed=1)
    for report in (open_rep, closed_rep):
        assert not report.passed
        assert report.violations == ((0, 37),)
    # a policy without a kernel of its own runs the step recursion: nothing to compare
    plain = el.ControllerPolicy(step=honest.step)
    assert plain.kernel is None
    assert el.causality_audit(plain, length=64, trials=3, seed=1).passed


def test_audit_violations_frozen():
    # the audit draws its inputs, indices and perturbations from one rng in a
    # fixed order; these indices pin that order
    report = el.causality_audit(el.anticipatory_double(), length=128, trials=25, seed=2)
    assert report.violations[:3] == ((0, 106), (1, 124), (2, 55))


def test_audits_catch_the_anticipatory_run_override():
    # the anticipatory double overrides run: caught on every trial, and zero in a closed loop
    errors = np.arange(1.0, 6.0)
    double = el.anticipatory_double()
    z, e = double.run(errors, False)
    assert np.array_equal(z, errors) and z is not errors and e is errors
    report = el.causality_audit(double, length=128, trials=25, seed=2)
    assert [trial for trial, _ in report.violations] == list(range(25))
    assert not el.run_loop(AR1, double, 64, 0).z.any()


def _peeking_policy():
    """Test-only policy whose closed-loop kernel reads x_k: z_k = d_k for k >= 1."""

    def kernel(x, closed):
        z = np.zeros_like(x)
        if not closed:
            return z, x
        z[1:] = x[1:]
        return z, x + z

    return el.ControllerPolicy(step=lambda e_hist, z_hist: 0.0, descriptor="peek", kernel=kernel)


def test_closed_loop_audit_violations_frozen():
    report = el.closed_loop_causality_check(AR1, _peeking_policy(), length=64, trials=6, seed=3)
    # (0, 1) is the kernel check, whose z departs from the step recursion's
    # at z_1; each perturbation trial is then caught at its own index k
    assert report.violations == ((0, 1), (0, 6), (1, 15), (2, 51), (3, 37), (4, 6), (5, 28))
    # its open-loop response never reads x_k, so the open-loop audit passes it
    assert el.causality_audit(_peeking_policy(), length=64, trials=6, seed=3).passed


def test_closed_loop_check():
    for ctrl in [el.predictor_controller(AR1), el.random_causal_controller(seed=5)]:
        report = el.closed_loop_causality_check(AR1, ctrl, length=128, trials=8, seed=1)
        assert report.passed
    with pytest.raises(ValueError, match="length"):
        el.closed_loop_causality_check(AR1, el.zero_controller(), length=1)
    with pytest.raises(ValueError, match="length"):
        el.causality_audit(el.zero_controller(), length=1)


# ---------------------------------------------------------------------------
# serialization


def test_trace_round_trip_scalar(tmp_path):
    trace = el.run_loop(AR1, el.predictor_controller(AR1), 64, seed=77)
    path = tmp_path / "trace.csv"
    el.save_trace(trace, path)
    back = el.load_trace(path)
    assert np.array_equal(back.d, trace.d)
    assert np.array_equal(back.z, trace.z)
    assert np.array_equal(back.e, trace.e)
    assert back.seed == 77
    assert back.model_descriptor == trace.model_descriptor
    assert back.controller_descriptor == trace.controller_descriptor


def test_trace_round_trip_vector(tmp_path):
    model = el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    )
    trace = el.run_loop(model, el.predictor_controller(model), 40, seed=5)
    path = tmp_path / "vec.csv"
    el.save_trace(trace, path)
    back = el.load_trace(path)
    assert back.d.shape == (40, 2)
    assert np.array_equal(back.e, trace.e)
    sidecar = path.with_suffix(".json")
    assert sidecar.exists()
    header = path.read_text().splitlines()[0]
    assert header == "k,d_1,d_2,z_1,z_2,e_1,e_2"


def test_sidecar_records_descriptors(tmp_path):
    import json

    trace = el.run_loop(AR1, el.zero_controller(), 16, seed=1)
    path = tmp_path / "t.csv"
    el.save_trace(trace, path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    assert sidecar["length"] == 16
    assert sidecar["dimension"] == 1
    assert sidecar["model"] == AR1.descriptor
    assert sidecar["controller"] == "zero"


def _per_cell_writer(trace, csv_path):
    """save_trace's CSV body as it was written before: one repr per cell."""
    import csv

    m = 1 if trace.d.ndim == 1 else trace.d.shape[1]
    if m == 1:
        header = ["k", "d", "z", "e"]
        columns = [trace.d.reshape(-1), trace.z.reshape(-1), trace.e.reshape(-1)]
    else:
        header = (
            ["k"]
            + [f"d_{i + 1}" for i in range(m)]
            + [f"z_{i + 1}" for i in range(m)]
            + [f"e_{i + 1}" for i in range(m)]
        )
        columns = [trace.d[:, i] for i in range(m)]
        columns += [trace.z[:, i] for i in range(m)]
        columns += [trace.e[:, i] for i in range(m)]
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k in range(trace.length):
            writer.writerow([k] + [repr(float(col[k])) for col in columns])


@pytest.mark.parametrize("dim", [1, 3])
def test_save_trace_bytes_match_the_per_cell_writer(tmp_path, dim):
    special = np.array([-0.0, 5e-324, 0.1, 1e16, 1 / 3, -2.5e-310, 123456789.125])
    n = special.size
    rng = np.random.default_rng(dim)
    shape = (n,) if dim == 1 else (n, dim)
    d = rng.permutation(np.resize(special, n * dim)).reshape(shape)
    z = -np.resize(special[::-1], n * dim).reshape(shape)
    trace = el.SimulationTrace(
        d=d, z=z, e=d + z, seed=1, model_descriptor="m", controller_descriptor="c"
    )
    el.save_trace(trace, tmp_path / "new.csv")
    _per_cell_writer(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
