"""Closed-loop simulation with strictly causal controller policies.

The loop contract is minimal: the error is e_k = d_k + z_k where d is the
exogenous disturbance and z_k is produced by the controller from strictly
past information only,

    z_0 = initial_output (deterministic),
    z_k = step(e_0..e_{k-1}, z_0..z_{k-1})     for k >= 1.

Controllers carry no hidden mutable state; everything they may look at is
passed in as explicit history arrays, which is what lets the causality
audit replay prefixes and perturb futures.  Since d_k = e_k - z_k inside
the loop, a policy can reconstruct the disturbance history exactly from its
two input histories.

Every policy runs through one sequence kernel, ``kernel(x, closed) -> (z, e)``:
the closed loop (``run_loop``, x = d, e_k = d_k + z_k) and the open-loop
response the causality audit probes (``respond``, x = a fixed error
sequence) both go through ``ControllerPolicy.run``.
``ControllerPolicy.step_recursion``, one ``step`` call per sample, is the
reference and runs for any policy built without a kernel; each built-in
controller carries an exact kernel of its own that repeats its ``step``'s
arithmetic operation for operation, so its outputs are bit-identical to
that recursion, and both audits check this on their first trial.

``compose_loop`` builds such a policy from two sequence-level stages (a
plant and a controller in either order); at least one stage must be
strictly causal or the composition is rejected.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .distributions import as_rng
from .processes import (
    DisturbanceModel, IID, VectorGaussAR, levinson_ladder, prediction_variances
)

__all__ = [
    "ControllerPolicy",
    "SimulationTrace",
    "CausalStage",
    "CausalityReport",
    "run_loop",
    "zero_controller",
    "predictor_controller",
    "random_causal_controller",
    "learned_controller",
    "compose_loop",
    "delay_stage",
    "gain_stage",
    "causality_audit",
    "closed_loop_causality_check",
    "anticipatory_double",
    "save_trace",
    "load_trace",
]

#: Predictor taps are frozen at the first power-of-two order whose prediction
#: error variance is within this relative distance of the innovation
#: variance (exact for pure AR), else at the cap.
_TAP_CONVERGENCE = 1e-12
_TAP_ORDER_CAP = 512


Kernel = Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ControllerPolicy:
    """A strictly causal control law z_k = step(e_{0..k-1}, z_{0..k-1}).

    ``initial_output`` is the (deterministic) z_0 emitted before any error
    has been observed; the default 0 keeps d_0 visible in e_0.  ``dim`` is
    the error dimension the policy expects.  ``kernel(x, closed)``, if
    given, runs the law over a whole sequence and returns (z, e): with
    ``closed`` x is the disturbance and e_k = x_k + z_k, otherwise x is a
    fixed error sequence and e is x.
    """

    step: Callable[[np.ndarray, np.ndarray], Union[float, np.ndarray]]
    initial_output: Union[float, np.ndarray] = 0.0
    descriptor: str = "custom"
    dim: int = 1
    kernel: Optional[Kernel] = None

    def run(self, x: np.ndarray, closed: bool):
        """(z, e) over a whole sequence: the policy's kernel, else ``step_recursion``."""
        return (self.kernel or self.step_recursion)(x, closed)

    def step_recursion(self, x: np.ndarray, closed: bool):
        """The reference kernel: one ``step`` call per sample."""
        z = np.zeros_like(x)
        if x.shape[0] == 0:
            return z, x
        z[0] = self.initial_output
        step = self.step
        if not closed:
            for k in range(1, x.shape[0]):
                z[k] = step(x[:k], z[:k])
            return z, x
        e = np.zeros_like(x)
        e[0] = x[0] + z[0]
        for k in range(1, x.shape[0]):
            z[k] = step(e[:k], z[:k])
            e[k] = x[k] + z[k]
        return z, e

    def respond(self, errors: np.ndarray) -> np.ndarray:
        """Open-loop response: feed a fixed error sequence, collect outputs.

        Used by the causality audit.  A deliberately anticipatory test
        double overrides it (see ``anticipatory_double``) and is caught.
        """
        z, _ = self.run(np.asarray(errors, dtype=float), False)
        return z


@dataclass(frozen=True)
class SimulationTrace:
    """Aligned disturbance / control / error arrays from one closed loop."""

    d: np.ndarray
    z: np.ndarray
    e: np.ndarray
    seed: int
    model_descriptor: str
    controller_descriptor: str

    def __post_init__(self):
        if not (self.d.shape == self.z.shape == self.e.shape):
            raise ValueError(
                f"trace arrays disagree in shape: {self.d.shape}, "
                f"{self.z.shape}, {self.e.shape}"
            )

    @property
    def length(self) -> int:
        return self.d.shape[0]

    def check_loop_identity(self, atol: float = 0.0) -> bool:
        return np.allclose(self.e, self.d + self.z, rtol=0.0, atol=atol)


def run_loop(
    model: DisturbanceModel, controller: ControllerPolicy, length: int, seed
) -> SimulationTrace:
    """Simulate e_k = d_k + z_k for ``length`` steps; deterministic per seed."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if controller.dim != model.dim:
        raise ValueError(
            f"controller dimension {controller.dim} does not match model "
            f"dimension {model.dim}"
        )
    seed_int = int(seed)
    d = model.sample_path(length, seed_int)
    z, e = controller.run(d, True)
    return SimulationTrace(
        d=d,
        z=z,
        e=e,
        seed=seed_int,
        model_descriptor=model.descriptor,
        controller_descriptor=controller.descriptor,
    )


# ---------------------------------------------------------------------------
# controller constructors


def zero_controller(dim: int = 1) -> ControllerPolicy:
    """The do-nothing policy: e_k = d_k."""
    if dim == 1:
        return ControllerPolicy(
            step=lambda e_hist, z_hist: 0.0,
            initial_output=0.0,
            descriptor="zero",
            kernel=_zero_kernel,
        )
    zero = np.zeros(dim)
    return ControllerPolicy(
        step=lambda e_hist, z_hist: zero,
        initial_output=zero,
        descriptor="zero",
        dim=dim,
        kernel=_zero_kernel,
    )


def _zero_kernel(x: np.ndarray, closed: bool):
    z = np.zeros_like(x)
    return z, (x + z if closed else x)


def predictor_controller(model: DisturbanceModel) -> ControllerPolicy:
    """Cancel the best linear one-step prediction of the disturbance.

    The policy reconstructs d_j = e_j - z_j from its histories and outputs
    z_k = -(prediction of d_k).  Taps come from the Levinson-Durbin
    recursion on the model autocovariances: order-k taps while k is small
    (they are exactly optimal under the stationary start), frozen at the
    order where the prediction error variance has converged to the
    innovation variance.  For a pure AR(p) model that order is p and the
    taps are the AR coefficients themselves; for an iid model the policy
    degenerates to the zero controller.
    """
    descriptor = f"predictor[{model.descriptor}]"
    if isinstance(model, VectorGaussAR):
        a = model.transition_matrix

        def step_vec(e_hist, z_hist):
            d_prev = e_hist[-1] - z_hist[-1]
            return -(a @ d_prev)

        def kernel_vec(x, closed):
            # step_vec's ufuncs on rows the array iterator hands out, with
            # preallocated outputs and no history slices
            z = np.zeros_like(x)
            e = np.zeros_like(x) if closed else x
            if not x.shape[0]:
                return z, e
            d_prev, prediction = np.empty(model.dim), np.empty(model.dim)
            rows = zip(z, e, x)
            z_prev, e_prev, x_0 = next(rows)
            if closed:
                np.add(x_0, z_prev, out=e_prev)
            for z_k, e_k, x_k in rows:
                np.subtract(e_prev, z_prev, out=d_prev)
                np.matmul(a, d_prev, out=prediction)
                np.negative(prediction, out=z_k)
                if closed:
                    np.add(x_k, z_k, out=e_k)
                z_prev, e_prev = z_k, e_k
            return z, e

        return ControllerPolicy(
            step=step_vec,
            initial_output=np.zeros(model.dim),
            descriptor=descriptor,
            dim=model.dim,
            kernel=kernel_vec,
        )

    if isinstance(model, IID):
        return ControllerPolicy(
            step=lambda e_hist, z_hist: 0.0,
            initial_output=0.0,
            descriptor=descriptor,
            kernel=_zero_kernel,
        )

    taps_by_order = _prediction_taps(model)
    top = len(taps_by_order) - 1

    def step(e_hist, z_hist):
        order = min(e_hist.shape[0], top)
        if order == 0:
            return 0.0
        taps = taps_by_order[order]
        d_recent = e_hist[-order:] - z_hist[-order:]
        return -float(taps @ d_recent[::-1])

    return ControllerPolicy(
        step=step,
        initial_output=0.0,
        descriptor=descriptor,
        kernel=_fir_kernel(taps_by_order, negate=True),
    )


@lru_cache(maxsize=64)
def _prediction_taps(model: DisturbanceModel) -> tuple[np.ndarray, ...]:
    """Read-only Levinson tap ladder up to the order where prediction stops improving."""
    rate_var = _innovation_variance(model)
    excess = prediction_variances(model, _TAP_ORDER_CAP) - rate_var
    powers = (1 << i for i in range(_TAP_ORDER_CAP.bit_length()))
    order = next(
        (n for n in powers if excess[n] <= _TAP_CONVERGENCE * rate_var), _TAP_ORDER_CAP
    )
    coeffs, _ = levinson_ladder(model.autocovariance(order), order)
    for taps in coeffs:
        taps.flags.writeable = False
    return tuple(coeffs)


def _innovation_variance(model) -> float:
    if hasattr(model, "innovation_variance"):
        return model.innovation_variance
    if hasattr(model, "innovation"):
        return model.innovation.variance()
    raise ValueError(f"no innovation variance known for {model.descriptor}")


def _fir_kernel(ladder: Sequence[np.ndarray], negate: bool) -> Kernel:
    """Exact kernel of the scalar FIR step z_k = s or -s on d_j = e_j - z_j,

        s = float(ladder[min(k, top)] @ d_recent[::-1]),  top = len(ladder) - 1,

    with d_recent the last min(k, top) reconstructed disturbances.  Each
    step makes that same dot, with the same taps array and a reversed
    (negatively strided) view of a preallocated d array as the operand, so
    numpy picks the same loop and the sum rounds as in ``step``.
    """
    top = len(ladder) - 1
    frozen = ladder[top]

    def kernel(x, closed):
        n = x.shape[0]
        z = np.zeros_like(x)
        e = np.zeros_like(x) if closed else x
        ds = np.empty_like(x)
        rev = ds[::-1]  # rev[n - k :] is d_{k-1}, d_{k-2}, ..., d_0
        for k, xk in enumerate(x.tolist()):
            if k:
                s = float((ladder[k] if k < top else frozen) @ rev[n - k : n - k + top])
                zk = z[k] = -s if negate else s
            else:
                zk = 0.0
            ek = xk + zk if closed else xk
            if closed:
                e[k] = ek
            ds[k] = ek - zk
        return z, e

    return kernel


def random_causal_controller(
    seed, memory: int = 3, gain_cap: float = 2.0
) -> ControllerPolicy:
    """A random bounded policy: affine in the last ``memory`` errors, clipped.

    Weights and bias are drawn once from ``seed`` and fixed, so the policy
    is deterministic and strictly causal by construction.  memory=0 yields
    the constant-zero map.  Used to exercise the bounds with arbitrary
    (bad) controllers.
    """
    if memory < 0:
        raise ValueError(f"memory must be >= 0, got {memory}")
    if not gain_cap > 0.0:
        raise ValueError(f"gain_cap must be positive, got {gain_cap!r}")
    cap = float(gain_cap)
    rng = as_rng(seed)
    weights = rng.uniform(-1.0, 1.0, size=memory)
    bias = float(rng.uniform(-0.5, 0.5)) if memory > 0 else 0.0

    taps = weights.tolist()

    # step and kernel share this law on Python floats: the dot is summed in
    # order with one rounding per operation on every platform, and min/max
    # give np.clip's result (NaN and -0.0 included) at a fraction of its cost
    def law(recent):
        """z_k from the errors e_{k-1}, e_{k-2}, ... (the first ``memory`` count)."""
        s = 0.0
        for t, past in zip(taps, recent):
            s += t * past
        return min(max(bias + s, -cap), cap)

    def step(e_hist, z_hist):
        avail = min(e_hist.shape[0], memory)
        if avail == 0:
            return min(max(bias, -cap), cap)
        return law(e_hist[::-1][:avail].tolist())

    def kernel(x, closed):
        z = np.zeros_like(x)
        e = np.zeros_like(x) if closed else x
        recent = deque(maxlen=memory)  # e_{k-1}, e_{k-2}, ...
        for k, xk in enumerate(x.tolist()):
            if k:
                zk = z[k] = law(recent)
            else:
                zk = 0.0
            ek = xk + zk if closed else xk
            if closed:
                e[k] = ek
            recent.appendleft(ek)
        return z, e

    return ControllerPolicy(
        step=step,
        initial_output=0.0,
        descriptor=f"random[memory={memory}, cap={gain_cap:g}]",
        kernel=kernel if memory else _zero_kernel,
    )


def learned_controller(
    training_traces: Sequence[SimulationTrace], memory: int
) -> ControllerPolicy:
    """Least-squares FIR policy fitted on reconstructed disturbances.

    Regresses -d_k on [d_{k-1}, ..., d_{k-memory}] pooled over the training
    traces (d reconstructed as e - z) and plays the fitted taps in the
    loop.  A singular normal matrix falls back to ridge with lambda=1e-8.
    """
    if memory < 1:
        raise ValueError(f"memory must be >= 1, got {memory}")
    rows = []
    targets = []
    for trace in training_traces:
        d = trace.e - trace.z
        if d.ndim != 1:
            raise ValueError("learned_controller supports scalar traces only")
        if d.shape[0] <= memory:
            continue
        window = np.lib.stride_tricks.sliding_window_view(d, memory)
        rows.append(window[:-1, ::-1])  # row k: d_{k-1}, ..., d_{k-memory}
        targets.append(-d[memory:])
    if not rows:
        raise ValueError("training traces shorter than the requested memory")
    design = np.concatenate(rows, axis=0)
    target = np.concatenate(targets)
    gram = design.T @ design
    moment = design.T @ target
    try:
        taps = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        taps = np.linalg.solve(gram + 1e-8 * np.eye(memory), moment)

    def step(e_hist, z_hist):
        avail = min(e_hist.shape[0], memory)
        if avail == 0:
            return 0.0
        d_recent = e_hist[-avail:] - z_hist[-avail:]
        return float(taps[:avail] @ d_recent[::-1])

    return ControllerPolicy(
        step=step,
        initial_output=0.0,
        descriptor=f"learned[memory={memory}]",
        kernel=_fir_kernel([taps[:avail] for avail in range(memory + 1)], negate=False),
    )


# ---------------------------------------------------------------------------
# stage composition


@dataclass(frozen=True)
class CausalStage:
    """A sequence-to-sequence map with a declared causality level.

    ``apply`` must map a length-n input to a length-n output where output k
    depends on inputs 0..k (causal) or 0..k-1 (strictly causal).  The flag
    is trusted for composition bookkeeping; the audit exists to catch
    stages that lie about it.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    strictly_causal: bool
    descriptor: str = "stage"


def delay_stage(gain: float = 1.0) -> CausalStage:
    """Unit delay y_k = gain * x_{k-1} (y_0 = 0); strictly causal."""

    def apply(x):
        y = np.zeros_like(np.asarray(x, dtype=float))
        y[1:] = gain * x[:-1]
        return y

    return CausalStage(apply=apply, strictly_causal=True, descriptor=f"delay(gain={gain:g})")


def gain_stage(gain: float) -> CausalStage:
    """Memoryless y_k = gain * x_k; causal but not strictly causal."""
    return CausalStage(
        apply=lambda x: gain * np.asarray(x, dtype=float),
        strictly_causal=False,
        descriptor=f"gain({gain:g})",
    )


def compose_loop(
    plant: CausalStage, controller: CausalStage, order: str
) -> ControllerPolicy:
    """Build the loop policy for a plant/controller pipeline.

    order="KP" wires z = K(P(e)) (sensing path through the plant first);
    order="PK" wires z = P(K(e)).  At least one stage must be strictly
    causal, otherwise the overall map could react to the current error and
    the composition is rejected.
    """
    if order not in ("KP", "PK"):
        raise ValueError(f"order must be 'KP' or 'PK', got {order!r}")
    if not (plant.strictly_causal or controller.strictly_causal):
        raise ValueError(
            "composition rejected: neither stage is strictly causal, so the "
            "closed map would not be strictly causal"
        )
    first, second = (plant, controller) if order == "KP" else (controller, plant)

    def step(e_hist, z_hist):
        padded = np.concatenate([e_hist, [0.0]])
        out = second.apply(first.apply(padded))
        return float(out[-1])

    initial = float(second.apply(first.apply(np.zeros(1)))[0])
    return ControllerPolicy(
        step=step,
        initial_output=initial,
        descriptor=f"compose[{order}: {plant.descriptor}, {controller.descriptor}]",
    )


# ---------------------------------------------------------------------------
# causality audits


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of a causality audit; violations list (trial, index) pairs."""

    passed: bool
    trials: int
    violations: tuple[tuple[int, int], ...] = ()

    def first_violation(self) -> Optional[tuple[int, int]]:
        return self.violations[0] if self.violations else None


def causality_audit(
    controller: ControllerPolicy,
    *,
    length: int = 256,
    trials: int = 20,
    seed=0,
) -> CausalityReport:
    """Open-loop perturbation test of z_k = f(e_0..e_{k-1}).

    Each trial feeds a random error sequence, perturbs every entry from a
    random index k onward, and requires the responses to agree exactly
    through index k.  Any dependence of z_k on e_j with j >= k shows up as
    a violation; honest history-based policies pass by construction, a
    z_k = e_k double fails at every index.  On the first trial the response
    of a policy with its own kernel must also equal ``step_recursion``'s
    bit for bit, so the audit covers the code that runs.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = as_rng(seed)
    violations = []
    shape = (length,) if controller.dim == 1 else (length, controller.dim)
    for trial in range(trials):
        base = rng.standard_normal(shape)
        reference = controller.respond(base)
        if trial == 0:
            violations += _kernel_check(controller, base, False, (reference,))
        k = int(rng.integers(1, length))
        perturbed = base.copy()
        tail_shape = (length - k,) if controller.dim == 1 else (length - k, controller.dim)
        perturbed[k:] += 1.0 + rng.standard_normal(tail_shape)
        altered = controller.respond(perturbed)
        if not np.array_equal(reference[: k + 1], altered[: k + 1]):
            bad = _first_mismatch(reference[: k + 1], altered[: k + 1])
            violations.append((trial, bad))
    return CausalityReport(
        passed=not violations, trials=trials, violations=tuple(violations)
    )


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> int:
    diff = a != b
    if diff.ndim > 1:
        diff = diff.any(axis=tuple(range(1, diff.ndim)))
    return int(np.nonzero(diff)[0][0])


def _kernel_check(controller, x, closed, outputs) -> list[tuple[int, int]]:
    """[(0, i)], i the first index where ``outputs`` differ in bits from step_recursion's."""
    if controller.kernel is None:
        return []
    firsts = []
    for got, want in zip(outputs, controller.step_recursion(x, closed)):
        got, want = _bits(got), _bits(want)
        if got.shape != want.shape:
            firsts.append(0)
        elif not np.array_equal(got, want):
            firsts.append(_first_mismatch(got, want))
    return [(0, min(firsts))] if firsts else []


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def closed_loop_causality_check(
    model: DisturbanceModel,
    controller: ControllerPolicy,
    *,
    length: int = 256,
    trials: int = 10,
    seed=0,
) -> CausalityReport:
    """Closed-loop version: future disturbances must not move current outputs.

    For random k, d_j is perturbed for all j >= k and the loop re-run; the
    control sequence must match exactly through index k (z_k depends on
    e_0..e_{k-1}, hence on d_0..d_{k-1} only).  On the first trial the
    closed loop (z and e) of a policy with its own kernel must also equal
    ``step_recursion``'s bit for bit.
    """
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = as_rng(seed)
    violations = []
    for trial in range(trials):
        d = model.sample_path(length, int(rng.integers(0, 2**32)))
        z_ref, e_ref = controller.run(d, True)
        if trial == 0:
            violations += _kernel_check(controller, d, True, (z_ref, e_ref))
        k = int(rng.integers(1, length))
        d_alt = np.array(d, copy=True)
        d_alt[k:] += 1.0
        z_alt, _ = controller.run(d_alt, True)
        if not np.array_equal(z_ref[: k + 1], z_alt[: k + 1]):
            violations.append((trial, _first_mismatch(z_ref[: k + 1], z_alt[: k + 1])))
    return CausalityReport(
        passed=not violations, trials=trials, violations=tuple(violations)
    )


class _AnticipatoryPolicy(ControllerPolicy):
    """Deliberately broken double whose open-loop response is z_k = e_k."""

    def respond(self, errors: np.ndarray) -> np.ndarray:
        return np.array(errors, dtype=float, copy=True)


def anticipatory_double() -> ControllerPolicy:
    """Negative control for the causality audit: z_k copies e_k.

    Inside a closed loop it degrades to the zero controller (the current
    error does not exist yet when z_k is due), but its open-loop response
    depends on the present input and the audit must fail it at every index.
    """
    return _AnticipatoryPolicy(
        step=lambda e_hist, z_hist: 0.0,
        initial_output=0.0,
        descriptor="anticipatory(test fixture)",
    )


# ---------------------------------------------------------------------------
# trace serialization


def save_trace(trace: SimulationTrace, csv_path) -> None:
    """Write the trace as CSV plus a JSON sidecar next to it.

    Scalar traces use columns k,d,z,e; vector traces get one column per
    channel (d_1..d_m, z_1..z_m, e_1..e_m).
    """
    csv_path = Path(csv_path)
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
    cells = [list(map(repr, col.tolist())) for col in columns]
    with open(csv_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(zip(range(trace.length), *cells))
    sidecar = {
        "seed": trace.seed,
        "model": trace.model_descriptor,
        "controller": trace.controller_descriptor,
        "length": trace.length,
        "dimension": m,
        "columns": header,
    }
    with open(csv_path.with_suffix(".json"), "w") as handle:
        json.dump(sidecar, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_trace(csv_path) -> SimulationTrace:
    """Round-trip counterpart of save_trace."""
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as handle:
        sidecar = json.load(handle)
    m = sidecar["dimension"]
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    body = data[:, 1:]
    if m == 1:
        d, z, e = body[:, 0], body[:, 1], body[:, 2]
    else:
        d, z, e = body[:, :m], body[:, m : 2 * m], body[:, 2 * m :]
    return SimulationTrace(
        d=d,
        z=z,
        e=e,
        seed=sidecar["seed"],
        model_descriptor=sidecar["model"],
        controller_descriptor=sidecar["controller"],
    )
