"""Differential tests: each built-in controller's sequence kernel against the
step recursion it replaces, bit for bit, in the closed loop and in the
open-loop response.

The kernels repeat their step's arithmetic: the FIR policies (zero, the
scalar predictor, learned, and random with memory 0) share one step and one
kernel, which make the same numpy dot on a view of a preallocated history,
the vector predictor the same ufuncs with out=, and ``random`` with memory
>= 1 shares one Python-float law with its step.
These tests are what catches a numpy whose results depend on anything else
(alignment, out=, the kind of view).
"""

import math

import numpy as np
import pytest

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
        top = 1 if pred.taps is None else len(pred.taps) - 1
        yield f"predictor-{name}", model, pred, top
    for name, model in SCALAR_MODELS.items():
        for memory in (1, 3, 40):
            yield f"learned{memory}-{name}", model, _learned(model, memory), memory
        for memory in (0, 3):
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
    assert tops["predictor-ar1"] == 1
    assert tops["predictor-arma21"] == 16
    assert tops["predictor-ma099"] == simulator._TAP_ORDER_CAP


def test_zero_law_is_the_empty_ladder():
    # zero in any dimension, random with memory 0 and the predictor of every
    # white model are one policy: the FIR law on the empty ladder
    white = {f"predictor-{name}" for name in ("iid", "white", "ggwhite")}
    empty = [c for c in CASES if c[0].startswith(("zero-", "random0-")) or c[0] in white]
    assert len(empty) == 2 * len(SCALAR_MODELS) + len(VECTOR_MODELS) + len(white)
    for case_id, _, ctrl, top in empty:
        assert top == 0, case_id
        assert len(ctrl.taps) == 1 and ctrl.taps[0].shape == (0,), case_id


def test_fir_ladders_are_read_only_data():
    fir = [(case_id, ctrl.taps) for case_id, _, ctrl, _ in CASES if ctrl.taps is not None]
    assert {case_id.split("-")[0] for case_id, _ in fir} == {
        "zero", "predictor", "learned1", "learned3", "learned40", "random0"
    }
    for case_id, ladder in fir:
        for order, taps in enumerate(ladder):
            assert taps.shape == (order,), case_id
            assert not taps.flags.writeable, case_id


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

        errors = 3.0 * rng.standard_normal(d.shape)
        assert_same_bits(ctrl.respond(errors), ctrl.step_recursion(errors, False)[0])
        assert_same_bits(ctrl.respond(trace.e), trace.z)


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
        assert_same_bits(ctrl.respond(d), ctrl.step_recursion(d, False)[0])


def test_kernels_leave_their_inputs_alone():
    for _, model, ctrl, top in CASES:
        d = model.sample_path(top + 3, 1)
        kept = d.copy()
        ctrl.kernel(d, True)
        ctrl.respond(d)
        assert_same_bits(d, kept)


def test_empty_open_loop_response():
    for _, model, ctrl, _ in CASES:
        shape = (0,) if model.dim == 1 else (0, model.dim)
        assert ctrl.respond(np.zeros(shape)).shape == shape
