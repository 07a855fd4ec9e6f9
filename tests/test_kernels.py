"""Differential tests: each built-in controller's sequence kernel against the
step recursion it replaces, bit for bit, in the closed loop and in the
open-loop response.

The kernels repeat their step's arithmetic: the FIR policies (zero, the
predictor, learned, and random with memory 0) share one step and one kernel
in every dimension, on ladders of scalar taps or of m x m matrices; the
vector predictor is the ladder (no taps, -A).  A ladder frozen at order 1 to
16 sums each row in order from 0.0, over lags in order and each lag's
channels in order: its step on Python floats, its kernel on a batch of loops
in one numpy step loop (one multiply into a term buffer, then
np.add.accumulate).  A long enough closed loop runs that step loop for the
first steps, then a whole-trace fixed point of numpy multiplies and adds that
settles on the step recursion's own values, then the step loop again from
the first step that did not settle within the pass cap.  A lone loop is a
batch of one; the audits' probes and a cell's pooled traces run as one
batch.  From order 17 (scalar ladders only) the kernel makes the step's
``@`` dot on a negatively strided view of a preallocated history (a slice,
or a row of a window view).
``random`` with memory >= 1 repeats its step's Python-float law inline,
written out on locals at memory 3.  These tests are what catches a numpy
whose results depend on anything else (alignment, out=, the kind of view).

Bits are compared exactly where a single NaN sign can arise.  Where NaNs of
both signs meet in Python-float arithmetic, which one comes back is not
fixed (CPython's float + and * change operand order once the bytecode is
specialized), and the kernel's numpy arithmetic may return the other one,
so those comparisons take every NaN as one, as the audits' kernel check
does; test_python_float_nan_signs_change_once_the_kernel_is_warm shows why.
"""

import math
import os
import subprocess
import sys
from functools import reduce
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entrolim as el
from entrolim import simulator

SCALAR_MODELS = {
    "ar1": el.GaussARMA(ar=(0.9,)),
    "ar2": el.GaussARMA(ar=(0.5, 0.3)),
    "arma21": el.GaussARMA(ar=(0.5, 0.3), ma=(0.4,)),
    "ma099": el.GaussARMA(ma=(0.99,)),
    "gengauss_ar": el.GenGaussAR(
        ar=(0.6, -0.2), innovation=el.GeneralizedGaussian.laplace(1.0)
    ),
    "iid": el.IID(el.GeneralizedGaussian.laplace(1.0)),
    "white": el.GaussARMA(),
    "ggwhite": el.GenGaussAR(ar=(), innovation=el.GeneralizedGaussian(1.5, 1.0)),
}
VECTOR_MODELS = {
    "vec2": el.VectorGaussAR(
        transition=((0.5, 0.1), (0.0, 0.3)),
        innovation_covariance=((1.0, 0.2), (0.2, 0.5)),
    ),
    "vec4": el.VectorGaussAR(
        transition=(
            (0.5, 0.1, 0.0, -0.2),
            (0.0, 0.3, 0.1, 0.0),
            (0.1, 0.0, -0.4, 0.2),
            (0.0, -0.1, 0.0, 0.6),
        ),
        innovation_covariance=(
            (1.0, 0.2, 0.0, 0.1),
            (0.2, 0.5, 0.1, 0.0),
            (0.0, 0.1, 0.8, 0.2),
            (0.1, 0.0, 0.2, 1.2),
        ),
    ),
}


def _learned(model, memory):
    training = el.run_loop(model, el.zero_controller(), 2_000, seed=8)
    return el.learned_controller([training], memory)


def _cases():
    """(id, model, controller, order at which its taps freeze)."""
    for name, model in {**SCALAR_MODELS, **VECTOR_MODELS}.items():
        yield f"zero-{name}", model, el.zero_controller(model.dim), 0
        pred = el.predictor_controller(model)
        yield f"predictor-{name}", model, pred, len(pred.taps) - 1
    for name, model in SCALAR_MODELS.items():
        for memory in (1, 2, 3, 40):
            yield f"learned{memory}-{name}", model, _learned(model, memory), memory
        for memory in (0, 1, 2, 3, 5):
            ctrl = el.random_causal_controller(seed=5, memory=memory, gain_cap=0.7)
            yield f"random{memory}-{name}", model, ctrl, memory


CASES = list(_cases())


def _lengths(top):
    return sorted({n for n in (1, 2, top - 1, top, top + 1, top + 2, 300) if n >= 1})


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


def test_cases_cover_the_frozen_orders():
    tops = {case_id: top for case_id, _, _, top in CASES}
    for case_id, _, ctrl, top in CASES:
        assert ctrl.taps is None or len(ctrl.taps) - 1 == top, case_id
    # orders 1 to 16 run the numpy step loop, long closed loops also the fixed
    # point; the 512 cap makes the @ dot
    assert tops["predictor-ar1"] == tops["learned1-ar1"] == 1
    assert tops["predictor-ar2"] == tops["learned2-ar2"] == 2
    assert tops["predictor-arma21"] == simulator._FIXED_POINT_ORDER == 16
    assert tops["predictor-ma099"] == simulator._TAP_ORDER_CAP


def _tap_shape(model):
    return () if model.dim == 1 else (model.dim, model.dim)


def test_zero_law_is_the_empty_ladder():
    # zero in any dimension, random with memory 0 and the predictor of every
    # white model are one policy: the FIR law on the empty ladder of its dimension
    white = {f"predictor-{name}" for name in ("iid", "white", "ggwhite")}
    empty = [c for c in CASES if c[0].startswith(("zero-", "random0-")) or c[0] in white]
    assert len(empty) == 2 * len(SCALAR_MODELS) + len(VECTOR_MODELS) + len(white)
    for case_id, model, ctrl, top in empty:
        assert top == 0, case_id
        assert len(ctrl.taps) == 1 and ctrl.taps[0].shape == (0, *_tap_shape(model)), case_id


def test_fir_ladders_are_read_only_data():
    # taps[j] holds j scalars, or j m x m matrices for an m-channel model: the
    # vector predictor is the ladder (no taps, -A)
    fir = [(case_id, model, ctrl.taps) for case_id, model, ctrl, _ in CASES if ctrl.taps is not None]
    assert {case_id.split("-")[0] for case_id, _, _ in fir} == {
        "zero", "predictor", "learned1", "learned2", "learned3", "learned40", "random0"
    }
    for case_id, model, ladder in fir:
        for order, taps in enumerate(ladder):
            assert taps.shape == (order, *_tap_shape(model)), case_id
            assert not taps.flags.writeable, case_id
    for name, model in VECTOR_MODELS.items():
        ladder = el.predictor_controller(model).taps
        assert len(ladder) == 2 and np.array_equal(ladder[1][0], -model.transition_matrix), name


@pytest.mark.parametrize("model, ctrl, top", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_kernel_is_the_step_recursion(model, ctrl, top):
    assert ctrl.kernel is not None
    rng = np.random.default_rng(top)
    for n in _lengths(top):
        d = model.sample_path(n, n)
        z, e = ctrl.kernel(d, True)
        z_ref, e_ref = ctrl.step_recursion(d, True)
        assert_same_bits(z, z_ref)
        assert_same_bits(e, e_ref)
        trace = el.run_loop(model, ctrl, n, seed=n)
        assert_same_bits(trace.z, z_ref)
        assert_same_bits(trace.e, e_ref)
        # run_loops: the pooled traces of a cell, one batch for a ladder at
        # order 1 to 16, each on its own seed's path
        pooled = el.run_loops(model, ctrl, n, [n, n + 1])
        assert [t.seed for t in pooled] == [n, n + 1]
        assert_same_bits(pooled[1].d, model.sample_path(n, n + 1))
        for t in pooled:
            for got, want in zip((t.z, t.e), ctrl.step_recursion(t.d, True)):
                assert_same_bits(got, want)

        errors = 3.0 * rng.standard_normal(d.shape)
        assert_same_bits(ctrl.run(errors, False)[0], ctrl.step_recursion(errors, False)[0])
        assert_same_bits(ctrl.run(trace.e, False)[0], trace.z)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model, ctrl, top", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_kernel_propagates_nan_inf_and_signed_zero_like_the_step_recursion(model, ctrl, top):
    n = top + 40
    for bad in (math.nan, math.inf, -math.inf, -0.0):
        d = model.sample_path(n, 3)
        d[0] = -0.0
        d[top // 2 + 1] = bad
        z, e = ctrl.kernel(d.copy(), True)
        z_ref, e_ref = ctrl.step_recursion(d.copy(), True)
        assert np.isfinite(e).all() == math.isfinite(bad)
        assert_same_bits(z, z_ref)
        assert_same_bits(e, e_ref)
        assert_same_bits(ctrl.run(d, False)[0], ctrl.step_recursion(d, False)[0])


def test_kernels_leave_their_inputs_alone():
    for _, model, ctrl, top in CASES:
        d = model.sample_path(top + 3, 1)
        kept = d.copy()
        ctrl.kernel(d, True)
        ctrl.run(d, False)
        assert_same_bits(d, kept)


def test_empty_open_loop_response():
    for _, model, ctrl, _ in CASES:
        shape = (0,) if model.dim == 1 else (0, model.dim)
        assert ctrl.run(np.zeros(shape), False)[0].shape == shape


class _Draws:
    """A generator stand-in: ``uniform`` hands out chosen weights, then the bias."""

    def __init__(self, weights, bias):
        self.weights, self.bias = weights, bias

    def uniform(self, low, high, size=None):
        return np.array(self.weights) if size else self.bias


@pytest.mark.parametrize(
    "weights, bias, errors, z1",
    [
        ((0.5,), -0.0, (-0.0, 0.0, 1.0), 0.0),  # a -0.0 bias
        ((0.5,), 0.25, (1.5, -2.5, 0.0), 1.0),  # the cap hit exactly, then -cap
        ((0.5, -0.25), 0.25, (1.5, 0.0, 1.0), 1.0),
    ],
)
def test_random_kernel_at_a_signed_zero_bias_and_the_cap(monkeypatch, weights, bias, errors, z1):
    monkeypatch.setattr(simulator, "as_rng", lambda seed: _Draws(weights, bias))
    ctrl = el.random_causal_controller(seed=0, memory=len(weights), gain_cap=1.0)
    errors = np.array(errors)
    z = ctrl.run(errors, False)[0]
    assert_same_bits(z, ctrl.step_recursion(errors, False)[0])
    assert z[1].hex() == z1.hex()
    assert ctrl.step(errors[:0], z[:0]).hex() == max(bias, -1.0).hex()
    for d in (errors, -errors):
        for got, want in zip(ctrl.kernel(d, True), ctrl.step_recursion(d, True)):
            assert_same_bits(got, want)


def test_vector_kernel_writes_c_order_rows_for_any_input_layout():
    # the step loop (50 steps) and the fixed point (300) run on (channel,
    # loop, step) arrays; a Fortran-ordered input gives the same C-order rows
    ctrl = el.predictor_controller(VECTOR_MODELS["vec4"])
    for n in (50, 300):
        d = np.asfortranarray(VECTOR_MODELS["vec4"].sample_path(n, 2))
        assert_same_bits(ctrl.run(d, False)[0], ctrl.step_recursion(d, False)[0])
        for got, want in zip(ctrl.kernel(d, True), ctrl.step_recursion(d, True)):
            assert got.flags.c_contiguous
            assert_same_bits(got, want)


def _uint64(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _random_vector_model(m, seed):
    """A non-normal A of spectral radius up to 0.99."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (m, m))
    a *= rng.uniform(0.1, 0.99) / np.max(np.abs(np.linalg.eigvals(a)))
    b = rng.uniform(-1.0, 1.0, (m, m))
    return el.VectorGaussAR(
        transition=tuple(map(tuple, a)), innovation_covariance=tuple(map(tuple, b @ b.T + np.eye(m)))
    )


def _ordered_sum_ladder_loop(ladder, x, closed):
    """A ladder's law on (n, m) rows as a plain loop: z_0 = 0, and z_k[i] sums
    T_l[i, c] * d_{k-1-l}[c] on Python floats in order from 0.0, over lags l
    in order and channels c in order within a lag, with T = ladder[min(k, top)]
    read as m x m matrices."""
    top, m = len(ladder) - 1, x.shape[1]
    zs, es, ds = [], [], []
    for k, xk in enumerate(x.tolist()):
        taps = ladder[min(k, top)].reshape(-1, m, m).tolist()
        zk = []
        for i in range(m):
            s = 0.0
            for lag, tap in enumerate(taps):
                for coeff, dc in zip(tap[i], ds[k - 1 - lag]):
                    s += coeff * dc
            zk.append(s)
        ek = [xc + zc for xc, zc in zip(xk, zk)] if closed else xk
        zs.append(zk)
        es.append(ek)
        ds.append([ec - zc for ec, zc in zip(ek, zk)])
    return np.array(zs).reshape(x.shape), np.array(es).reshape(x.shape)


def _ordered_sum_vector_loop(a, x, closed):
    """The vector predictor's law z_k = (-a) d_{k-1} as a plain loop: the
    ladder (no taps, -a)."""
    m = a.shape[0]
    return _ordered_sum_ladder_loop((np.zeros((0, m, m)), -a[None]), x, closed)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_vector_law_is_the_python_float_ordered_sum(m):
    # no gemv: the same bits on every BLAS build, through the fixed point
    # (closed loops of 300 steps), the step recursion and the open loop
    for seed in range(40):
        model = _random_vector_model(m, seed)
        ctrl = el.predictor_controller(model)
        for n in (1, 2, 40, 300):
            d = model.sample_path(n, seed)
            for closed in (True, False):
                want = _ordered_sum_vector_loop(model.transition_matrix, d, closed)
                for run in (ctrl.kernel, ctrl.step_recursion):
                    for got, ref in zip(run(d, closed), want):
                        assert np.array_equal(_uint64(got), _uint64(ref))


def test_vector_law_gives_plus_zero_where_a_row_sums_to_exactly_zero():
    # each row sums from 0.0, so a row whose products are all -0.0 gives +0 on
    # every build; summed from its first product it would be -0.0
    a = np.array([[0.5, 0.1, 0.0], [-0.2, 0.3, 0.1], [0.4, 0.4, 0.1]])
    model = el.VectorGaussAR(transition=tuple(map(tuple, a)), innovation_covariance=tuple(map(tuple, np.eye(3))))
    ctrl = el.predictor_controller(model)
    d = model.sample_path(300, 0)
    d[0] = 0.0
    for closed in (True, False):
        for z in (ctrl.kernel(d, closed)[0], ctrl.step_recursion(d, closed)[0]):
            assert (z[1] == 0.0).all() and not np.signbit(z[1]).any()
    products = [reduce(add, map(mul, row, d[0].tolist())) for row in (-a).tolist()]
    assert [math.copysign(1.0, p) for p in products] == [-1.0, 1.0, -1.0]


def _fir_ladder(rng, top):
    return simulator._read_only([rng.uniform(-1.0, 1.0, j) for j in range(top + 1)])


def _matrix_ladder(rng, m, top):
    """A random ladder of j m x m matrices per order j, scalars at m = 1."""
    shape = () if m == 1 else (m, m)
    return simulator._read_only([rng.uniform(-1.0, 1.0, (j, *shape)) / m for j in range(top + 1)])


def _plant(rng, x, count):
    for _ in range(count):
        x.flat[rng.integers(x.size)] = (math.nan, -math.nan, math.inf, -math.inf, -0.0)[rng.integers(5)]
    return x


def _assert_kernel_is_the_recursion(ctrl, x):
    for closed in (True, False):
        for got, want in zip(ctrl.run(x, closed), ctrl.step_recursion(x, closed)):
            assert got.shape == want.shape
            assert np.array_equal(simulator._bits(got), simulator._bits(want))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    top=st.integers(1, simulator._FIXED_POINT_ORDER),
    frac=st.floats(0.0, 1.0),
    planted=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fir_fixed_point_is_the_step_recursion(top, frac, planted, seed):
    # lengths 1 to 3 top + 2, with the fixed point below its 64-step minimum
    # forced, and planted +-NaN, +-inf and -0.0: bit for bit, every NaN as one
    rng = np.random.default_rng(seed)
    ctrl = el.ControllerPolicy(taps=_fir_ladder(rng, top))
    n = 1 + round(frac * (3 * top + 1))
    x = _plant(rng, 3.0 * rng.standard_normal(n), planted)
    _assert_kernel_is_the_recursion(ctrl, x)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_FIXED_POINT_MIN_STEPS", 1)
        _assert_kernel_is_the_recursion(ctrl, x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 4),
    top=st.integers(1, 4),
    frac=st.floats(0.0, 1.0),
    planted=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_ladder_is_the_ordered_sum_loop(m, top, frac, planted, seed):
    # m-channel ladders at orders 1 to 4 (at m = 1 scalar taps on (n, 1) rows,
    # as the 1 x 1 vector predictor runs), lengths 1 to top + 80, planted
    # +-NaN, +-inf and -0.0, and the fixed point's 64-step minimum as is and
    # forced to 1: the kernel and the step recursion sum each row in order
    # from 0.0, lags in order and channels in order within a lag
    rng = np.random.default_rng(seed)
    ladder = _matrix_ladder(rng, m, top)
    ctrl = el.ControllerPolicy(taps=ladder, initial_output=np.zeros(m), dim=m)
    n = 1 + round(frac * (top + 79))
    x = _plant(rng, 3.0 * rng.standard_normal((n, m)), planted)
    wants = {closed: _ordered_sum_ladder_loop(ladder, x, closed) for closed in (True, False)}
    for min_steps in (simulator._FIXED_POINT_MIN_STEPS, 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_FIXED_POINT_MIN_STEPS", min_steps)
            for closed, want in wants.items():
                for run in (ctrl.run, ctrl.step_recursion):
                    for got, ref in zip(run(x, closed), want):
                        assert got.shape == ref.shape
                        assert np.array_equal(simulator._bits(got), simulator._bits(ref))


class _CountedPasses(list):
    """``_fixed_point``'s terms, counting its passes: each iterates them once."""

    def __init__(self, terms, passes):
        super().__init__(terms)
        self.passes = passes

    def __iter__(self):
        self.passes.append(1)
        return super().__iter__()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fir_fixed_point_on_a_long_path(monkeypatch):
    # 12k steps of the order-16 predictor settle well within the pass cap, so
    # the step loop runs only for k < top.  After a planted inf every later d
    # is NaN, a front that moves at most top steps a pass, so the passes stop
    # once it is the first unsettled step and the step loop finishes the loop;
    # bit for bit either way.  The three inputs as one batch stop at the one
    # loop's front, and every loop is still its step recursion
    ctrl = el.predictor_controller(SCALAR_MODELS["arma21"])
    d = SCALAR_MODELS["arma21"].sample_path(12_000, 4)
    steps, passes = [], []
    fir_steps, fixed_point = simulator._fir_steps, simulator._fixed_point
    monkeypatch.setattr(
        simulator, "_fir_steps",  # the (start, stop) of each call that runs steps
        lambda *args: (args[5] < args[6] and steps.append(args[5:])) or fir_steps(*args),
    )
    monkeypatch.setattr(
        simulator, "_fixed_point", lambda x, z, e, d, start, terms: fixed_point(x, z, e, d, start, _CountedPasses(terms, passes))
    )
    signed_zeros, non_finite = d.copy(), d.copy()
    signed_zeros[::997] = -0.0
    non_finite[[9_000, 11_000]] = (math.inf, -math.nan)
    inputs = ((d, True), (signed_zeros, True), (non_finite, False))
    wants = [ctrl.step_recursion(x, True) for x, _ in inputs]
    for (x, settles), want in zip(inputs, wants):
        steps.clear()
        passes.clear()
        outputs = ctrl.run(x, True)
        assert steps[0] == (1, 16) and (len(steps) == 1) is settles
        assert len(passes) <= 12
        for got, ref in zip(outputs, want):
            assert np.array_equal(simulator._bits(got), simulator._bits(ref))
    steps.clear()
    passes.clear()
    batch = simulator._runs(ctrl, True, [x for x, _ in inputs])
    assert steps[0] == (1, 16) and 9_000 < steps[1][0] < 11_000 and len(steps) == 2
    for outputs, want in zip(batch, wants):
        for got, ref in zip(outputs, want):
            assert np.array_equal(simulator._bits(got), simulator._bits(ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("passes", [0, 1])
def test_fixed_point_past_its_pass_cap_finishes_step_by_step(monkeypatch, passes):
    monkeypatch.setattr(simulator, "_FIXED_POINT_PASSES", passes)
    rng = np.random.default_rng(passes)
    for top in (1, 2, 5, 16):
        ctrl = el.ControllerPolicy(taps=_fir_ladder(rng, top))
        for n in (top + 64, 500):
            _assert_kernel_is_the_recursion(ctrl, _plant(rng, 3.0 * rng.standard_normal(n), 2))
    for m in (1, 2, 4):
        model = _random_vector_model(m, passes)
        ctrl = el.predictor_controller(model)
        for n in (65, 300):
            d = model.sample_path(n, n)
            want = _ordered_sum_vector_loop(model.transition_matrix, d, True)
            for got, ref in zip(ctrl.run(d, True), want):
                assert np.array_equal(_uint64(got), _uint64(ref))
    # matrix ladders at order 3: after the fallback the step loop reads the
    # fixed point's last three d vectors, newest first, which no built-in
    # policy reaches
    for m in (2, 4):
        ladder = _matrix_ladder(rng, m, 3)
        ctrl = el.ControllerPolicy(taps=ladder, initial_output=np.zeros(m), dim=m)
        for n in (3 + 64, 300):
            x = _plant(rng, 3.0 * rng.standard_normal((n, m)), 2)
            for got, ref in zip(ctrl.run(x, True), _ordered_sum_ladder_loop(ladder, x, True)):
                assert np.array_equal(simulator._bits(got), simulator._bits(ref))


def _stage(kind, value):
    """A delay, gain or clip stage: the built-ins and a memoryless clip at +-|value|."""
    if kind == "delay":
        return el.delay_stage(value)
    if kind == "gain":
        return el.gain_stage(value)
    cap = abs(value)
    return el.CausalStage(
        apply=lambda x: np.clip(np.asarray(x, dtype=float), -cap, cap), strictly_causal=False
    )


_STAGES = st.tuples(
    st.sampled_from(["delay", "gain", "clip"]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_subnormal=False),
)


@settings(max_examples=150, deadline=None)
@given(
    first=_STAGES, second=_STAGES, order=st.sampled_from(["KP", "PK"]),
    length=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
)
def test_compose_open_kernel_is_the_step_recursion(first, second, order, length, seed):
    # compose_loop's open loop applies the pipeline once to the whole sequence,
    # its step to each padded history; for honest stages the two are the same
    # bits, -0.0 included.  Its closed loop is the step recursion itself
    plant, controller = _stage(*first), _stage(*second)
    if not (plant.strictly_causal or controller.strictly_causal):
        plant = el.delay_stage(first[1])
    ctrl = el.compose_loop(plant, controller, order)
    x = np.random.default_rng(seed).standard_normal(length)
    x[:: max(1, length // 7)] = -0.0
    _assert_kernel_is_the_recursion(ctrl, x)


def _generic_random_kernel(taps, bias, cap, x, closed):
    """``random``'s kernel with one loop for every memory, as before memory 3 was
    written out."""
    zs, es = [], []
    for xk in x.tolist():
        s = 0.0
        for term in map(mul, taps, reversed(es)):
            s += term
        zk = bias + s
        zk = (-cap if zk < -cap else cap if zk > cap else zk) if es else 0.0
        zs.append(zk)
        es.append(xk + zk if closed else xk)
    return np.array(zs), (np.array(es) if closed else x)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_random_written_out_is_the_generic_loop(monkeypatch):
    memory = 3
    rng = np.random.default_rng(memory)
    specials = (0.0, -0.0, math.nan, math.inf, -math.inf)
    for trial in range(24):
        if trial == 0:  # the cap hit exactly: 0.25 + 0.5 * 1.5 is 1.0
            weights, bias, cap = [0.5] + [-0.0] * (memory - 1), 0.25, 1.0
        else:
            weights = rng.uniform(-1.0, 1.0, memory).tolist()
            bias, cap = (-0.0, 0.0, 0.3, -0.45)[trial % 4], (0.5, 2.0, 1e9)[trial % 3]
        monkeypatch.setattr(simulator, "as_rng", lambda seed: _Draws(weights, bias))
        ctrl = el.random_causal_controller(seed=0, memory=memory, gain_cap=cap)
        for n in (*range(1, memory + 3), 300):
            x = np.full(n, 1.5) if trial == 0 else 3.0 * rng.standard_normal(n)
            for _ in range(trial % 4):
                x[rng.integers(n)] = specials[rng.integers(len(specials))]
            for closed in (True, False):
                want = _generic_random_kernel(weights, bias, cap, x, closed)
                for got, old in zip(ctrl.kernel(x, closed), want):
                    assert np.array_equal(simulator._bits(got), simulator._bits(old))
                if trial == 0:
                    assert (ctrl.kernel(x, closed)[0][1:] == 1.0).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_check_passes_correct_kernels_on_several_non_finite_values():
    # NaNs of both signs, planted and made (inf - inf), meet in every run
    rng = np.random.default_rng(21)
    policies = [
        el.ControllerPolicy(taps=simulator._read_only([rng.uniform(-1.0, 1.0, j) for j in range(top + 1)]))
        for top in range(1, 6) for _ in range(4)
    ]
    policies += [
        el.random_causal_controller(seed=seed, memory=memory, gain_cap=cap)
        for memory in range(6) for seed, cap in ((1, 0.5), (2, 1e9))
    ]
    policies += [el.predictor_controller(VECTOR_MODELS[name]) for name in ("vec2", "vec4")]
    for ctrl in policies:
        for n in (2, 5, 40, 300):
            x = 3.0 * rng.standard_normal((n,) if ctrl.dim == 1 else (n, ctrl.dim))
            for _ in range(int(rng.integers(2, 5))):
                x.flat[rng.integers(x.size)] = (math.nan, -math.nan, math.inf, -math.inf)[rng.integers(4)]
            for closed in (True, False):
                outputs = ctrl.run(x, closed)
                assert simulator._kernel_check(ctrl, x, closed, outputs) == []
    # the check takes every NaN as one, and nothing else
    nan_bits = simulator._bits([math.nan, -math.nan])
    assert nan_bits[0] == nan_bits[1]
    assert len(set(simulator._bits([0.0, -0.0, math.inf, -math.inf, math.nan]).tolist())) == 5


def test_python_float_nan_signs_change_once_the_kernel_is_warm():
    # why the kernel check takes every NaN as one: CPython's generic float + and
    # its specialized one return different operands' NaNs, so random's
    # Python-float kernel at memory 1 on x = [-NaN, +NaN] gives e_1 one sign in
    # its first, cold call and the other once a 50-step call has specialized its
    # adds.  A fresh interpreter runs it cold; where both signs agree the NaN
    # loosening in simulator._bits may no longer be needed
    code = (
        "import math, numpy as np, entrolim as el\n"
        "from entrolim import simulator\n"
        "ctrl = el.random_causal_controller(seed=0, memory=1)\n"
        "x = np.array([-math.nan, math.nan])\n"
        "cold = ctrl.kernel(x, True)\n"
        "ctrl.kernel(np.ones(50), True)\n"
        "warm = ctrl.kernel(x, True)\n"
        "for outputs in (cold, warm):\n"
        "    assert simulator._kernel_check(ctrl, x, True, outputs) == []\n"
        "print(*np.concatenate([cold[1], warm[1]]).view(np.uint64).tolist())"
    )
    src = str(Path(el.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    e0_cold, e1_cold, e0_warm, e1_warm = map(int, subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split())
    assert e0_cold == e0_warm
    if e1_cold == e1_warm:
        pytest.skip("this CPython returns one NaN sign cold and warm")
    assert e1_cold ^ e1_warm == 1 << 63
    assert math.isnan(np.uint64(e1_cold).view(np.float64))


# ---------------------------------------------------------------------------
# the batch: a ladder's loops, open or closed, run as one _fir_loops call


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(1, 4),
    order=st.integers(1, simulator._FIXED_POINT_ORDER),
    batch=st.sampled_from([1, 2, 20, 100]),
    length=st.sampled_from(["0", "1", "top", "top + 1", "65", "top + 64", "300"]),
    closed=st.booleans(),
    passes=st.sampled_from([simulator._FIXED_POINT_PASSES, 0, 1]),
    as_rows=st.booleans(),
    planted=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_is_the_step_recursion(m, order, batch, length, closed, passes, as_rows, planted, seed):
    # scalar ladders at orders 1-16 on (n,) or (n, 1) inputs and m x m ladders
    # at m = 2-4 and orders 1-4 on (n, m) inputs, open and closed: short loops
    # (k + 1 <= 65, the step-k trials), the ramp k < top, closed loops long
    # enough for the fixed point with its pass cap as is, 0 or 1 (the
    # fallback), and planted +-NaN, +-inf and -0.0 in every other loop (a NaN
    # front in some loops of a batch).  Every row of one batch is the step
    # recursion bit for bit, every NaN as one; at 100 loops, up to 65 steps
    rng = np.random.default_rng(seed)
    top = order if m == 1 else 1 + order % 4
    rows = m > 1 or as_rows
    ctrl = el.ControllerPolicy(
        taps=_matrix_ladder(rng, m, top), initial_output=np.zeros(m) if rows else 0.0, dim=m
    )
    n = {"0": 0, "1": 1, "top": top, "top + 1": top + 1, "65": 65, "top + 64": top + 64, "300": 300}[length]
    n = min(n, 65) if batch == 100 else n
    shape = (n, m) if rows else (n,)
    xs = [
        _plant(rng, 3.0 * rng.standard_normal(shape), planted if n and i % 2 == 0 else 0)
        for i in range(batch)
    ]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulator, "_FIXED_POINT_PASSES", passes)
        runs = simulator._runs(ctrl, closed, xs)
    assert len(runs) == batch
    for x, outputs in zip(xs, runs):
        want = ctrl.step_recursion(x, closed)
        assert closed or outputs[1] is x
        for got, ref in zip(outputs, want):
            assert got.shape == ref.shape
            assert np.array_equal(simulator._bits(got), simulator._bits(ref))


def _per_trial_probe_loop(controller, closed, length, trials, seed, draw, shift):
    """The probe loop before the open-loop batch, the reference for
    ``simulator._probe_loop``: each trial draws x and runs it, checks the kernel
    on trial 0, then draws k and the shift and runs the moved x; z must agree
    through index k, every NaN as one."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = simulator.as_rng(seed)
    violations = []
    for trial in range(trials):
        x = draw(rng)
        outputs = controller.run(x, closed)
        if trial == 0:
            violations += simulator._kernel_check(controller, x, closed, outputs)
        k = int(rng.integers(1, length))
        altered = x.copy()
        altered[k:] += shift(rng, altered[k:])
        reference = simulator._bits(outputs[0][: k + 1])
        moved = simulator._bits(controller.run(altered, closed)[0][: k + 1])
        if not np.array_equal(reference, moved):
            violations.append((trial, simulator._first_mismatch(reference, moved)))
    return el.CausalityReport(passed=not violations, trials=trials, violations=tuple(violations))


class _LeakyLadder(el.ControllerPolicy):
    """A ladder whose ``run`` leaks 1e-3 x_k into z_k at every 10th index of an
    open loop: its kernel check fails on trial 0 at index 0."""

    def run(self, x, closed):
        z, e = super().run(x, closed)
        if closed:
            return z, e
        z = z.copy()
        z[::10] += 1e-3 * x[::10]
        return z, e


ONE_BY_ONE = el.VectorGaussAR(transition=((0.5,),), innovation_covariance=((1.0,),))


def _audited():
    """(id, model, policy): every built-in controller kind on the scalar and
    vector models, ``compose_loop`` and the anticipatory double at dim 1 and 2."""
    ar2, vec2 = SCALAR_MODELS["ar2"], VECTOR_MODELS["vec2"]
    yield "zero", ar2, el.zero_controller()
    yield "zero-vec2", vec2, el.zero_controller(2)
    for name in ("ar1", "arma21", "ma099", "white"):
        yield f"predictor-{name}", SCALAR_MODELS[name], el.predictor_controller(SCALAR_MODELS[name])
    for name, model in {**VECTOR_MODELS, "1x1": ONE_BY_ONE}.items():
        yield f"predictor-{name}", model, el.predictor_controller(model)
    for memory in (0, 3, 5):
        yield f"random{memory}", ar2, el.random_causal_controller(seed=5, memory=memory)
    for memory in (2, 40):
        yield f"learned{memory}", ar2, _learned(ar2, memory)
    yield "compose", ar2, el.compose_loop(el.delay_stage(0.5), el.gain_stage(0.7), "KP")
    yield "anticipatory", ar2, el.anticipatory_double()
    yield "anticipatory-dim2", vec2, el.anticipatory_double(2)


AUDITED = list(_audited())


@pytest.mark.parametrize("model, ctrl", [c[1:] for c in AUDITED], ids=[c[0] for c in AUDITED])
def test_probe_loop_is_the_per_trial_loop(monkeypatch, model, ctrl):
    # drawing every trial's input first and running the open loops of a ladder
    # as one batch give the per-trial loop's reports, open and closed loop, at
    # the audits' trial counts (a batch of 40 open loops) on 32 steps, past the
    # top order 16
    audits = (
        lambda seed: el.causality_audit(ctrl, length=32, seed=seed),
        lambda seed: el.closed_loop_causality_check(model, ctrl, length=32, seed=seed),
    )
    for seed in range(50):
        reports = [audit(seed) for audit in audits]
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "_probe_loop", _per_trial_probe_loop)
            assert reports == [audit(seed) for audit in audits], seed
        assert reports[0].passed is not isinstance(ctrl, simulator._AnticipatoryPolicy)
        assert reports[1].passed


def test_open_audit_batches_ladders_at_orders_1_to_16(monkeypatch):
    # each audit runs a ladder's 2 x trials loops as one batch, open (40) and
    # closed (20), and a cell runs its pooled traces as one: 100 step-k trials,
    # or verify's pooled traces
    batches = []
    fir_loops = simulator._fir_loops
    monkeypatch.setattr(
        simulator, "_fir_loops",
        lambda plan, xs, closed: batches.append((len(xs), xs[0].shape, closed)) or fir_loops(plan, xs, closed),
    )
    cases = {c[0]: c[1:] for c in AUDITED}
    for case_id, shape in (("predictor-ar1", (256,)), ("predictor-arma21", (256,)), ("learned2", (256,)),
                           ("predictor-vec4", (256, 4)), ("predictor-1x1", (256, 1))):
        model, ctrl = cases[case_id]
        batches.clear()
        assert el.causality_audit(ctrl, seed=0).passed
        assert batches == [(40, shape, False)], case_id
        batches.clear()
        assert el.closed_loop_causality_check(model, ctrl, seed=0).passed
        assert batches == [(20, shape, True)], case_id
    # the empty ladder, orders above 16, step policies and every other kernel
    # make one run per input; a class that overrides run runs its own
    for case_id in ("zero", "predictor-ma099", "learned40", "random3", "compose", "anticipatory"):
        model, ctrl = cases[case_id]
        batches.clear()
        el.causality_audit(ctrl, seed=0)
        el.closed_loop_causality_check(model, ctrl, seed=0)
        assert batches == [], case_id
    leaky = _LeakyLadder(taps=cases["predictor-ar1"][1].taps)
    batches.clear()
    el.causality_audit(leaky, seed=0)
    assert batches == [(1, (256,), False)] * 40
    batches.clear()
    el.closed_loop_causality_check(cases["predictor-ar1"][0], leaky, seed=0)
    assert batches == [(1, (256,), True)] * 20
    arma21 = SCALAR_MODELS["arma21"]
    predictor = el.predictor_controller(arma21)
    for trials, k, length in ((100, 4, 5), (100, 64, 65), (2, None, 3_000)):
        batches.clear()
        el.verify_bound(arma21, predictor, 2.0, horizon=3_000, seed=0, trials=trials, k=k, tightness=False)
        assert batches == [(trials, (length,), True)]
    vec2 = VECTOR_MODELS["vec2"]
    batches.clear()
    el.verify_mimo_bound(vec2, el.predictor_controller(vec2), horizon=3_000, seed=0, trials=3)
    assert batches == [(3, (3_000, 2), True)]


@pytest.mark.parametrize("model", [SCALAR_MODELS["arma21"], VECTOR_MODELS["vec2"]], ids=["arma21", "vec2"])
def test_a_ladder_whose_run_leaks_fails_the_open_audit_on_every_seed(model):
    honest = el.predictor_controller(model)
    leaky = _LeakyLadder(taps=honest.taps, initial_output=honest.initial_output, dim=model.dim)
    for seed in range(50):
        assert el.causality_audit(honest, length=64, seed=seed).passed
        report = el.causality_audit(leaky, length=64, seed=seed)
        assert not report.passed and report.violations[0] == (0, 0), seed
