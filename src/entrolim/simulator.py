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

Every policy runs through one sequence kernel, ``kernel(x, closed) -> (z, e)``,
and ``ControllerPolicy.run`` is the only path from a policy to its outputs:
the closed loop (``run_loop``, x = d, e_k = d_k + z_k) and both causality
audits, closed and open loop (x = a fixed error sequence, e = x), call it.
``ControllerPolicy.step_recursion``, one ``step`` call per sample, is the
reference and runs for any policy built without a kernel; each built-in
controller carries an exact kernel that computes its ``step``'s arithmetic
operations, though not always one step at a time, so its outputs are
bit-identical to that recursion, and both audits check this on their first
trial.  The one exception is the sign of a NaN where two NaNs meet, which
CPython's float arithmetic does not fix and numpy may set otherwise; the
check takes every NaN as one.

``zero``, ``predictor`` and ``learned`` are one FIR law on d = e - z, run by
one step and one kernel in every dimension; their ``taps`` ladder is data,
``taps[j]`` holding j scalars at dim 1 or j m x m matrices: empty for the
zero law (also ``random`` with memory 0 and a white model's predictor), the
negated Levinson taps, (no taps, -A) for the vector predictor, or the
learned prefixes.  A ladder frozen at order 1 to 16 (``_FIXED_POINT_ORDER``)
sums z_k[i] on Python floats in order from 0.0, over d_{k-1}, d_{k-2}, ...
and each lag's channels in order; that step is the definition and makes no
BLAS call.  Higher orders, up to the 512 cap and scalar only, make numpy's
``@`` dot step by step.  ``random`` with memory >= 1 (written out on locals
at its default memory 3) keeps a kernel of its own.

The closed loop of these linear laws is a whole-trace fixed point
(``_fixed_point``): after the first steps, guess d = x, compute every z_k at
once from d with one numpy multiply and add per tap entry, set e = x + z
and d' = e - z, and repeat until d' equals d bit for bit (as uint64, so
NaNs settle too).  Then every z_k sums the recursion's own d values with
the step's own roundings, so the loop is the step recursion exactly.
Since z_k reads d_j for j < k only, each pass settles at least one more
step, and rounding absorbs most changes of d: on AR(1), AR(2), the order-16
ARMA(2,1) predictor and the two bench vector models it settled in 5-9
passes at 3k, 12k and 200k steps (2-5 seeds each).  After 32 passes
(``_FIXED_POINT_PASSES``) the loop finishes step by step from the first
unsettled step, which keeps it exact on any input.  It does so at once when
that step's d is a NaN or inf: then every later d is a NaN, a front that
would move only ``top`` steps a pass.  The open loop, where z feeds back
into d = x - z at the law's full gain and a pass settles about one step, and
a frozen phase shorter than ``_FIXED_POINT_MIN_STEPS`` (64) steps, where the
passes cost more than the steps, run step by step on Python floats.

Both audits, ``causality_audit`` (open loop) and
``closed_loop_causality_check``, run one probe loop, ``_probe_loop``: draw,
run, check the kernel on trial 0, perturb from k and compare through k.

``compose_loop`` builds such a policy from two sequence-level stages (a
plant and a controller in either order); at least one stage must be
strictly causal or the composition is rejected.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import add, mul, sub
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .distributions import as_rng
from .processes import (
    DisturbanceModel, VectorGaussAR, levinson_ladder, prediction_variances
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

#: Predictor taps freeze at the first order among 0, 1, 2, 4, ..., 512 whose prediction
#: error variance is within this relative distance of the innovation variance (exact for
#: pure AR), else at the cap.  A white model freezes at 0: the empty ladder, the zero law.
_TAP_CONVERGENCE = 1e-12
_TAP_ORDER_CAP = 512
#: FIR ladders frozen at orders 1 to 16, scalar or matrix, sum on Python floats and run
#: their closed loop as ``_fixed_point``; higher orders (scalar only) make the ``@`` dot.
_FIXED_POINT_ORDER = 16
#: Whole-trace passes before a closed loop that has not settled finishes step by step
#: (finite loops settled within 9 passes at up to 200k steps; see the module docstring).
_FIXED_POINT_PASSES = 32
#: A closed loop runs ``_fixed_point`` once its frozen phase has this many steps.  Median
#: kernel times in us (fixed point / steps) at 32, 64 and 128 frozen steps on a shared
#: Xeon core: AR(1) 39/23, 39/40, 40/74; the order-16 predictor 148/65, 145/100, 124/183;
#: ``vec4`` 105/108, 129/230, 143/429.  So the steps win below about 64 frozen steps at
#: orders 1-2, 96 at order 16 and 32 for the vector law.
_FIXED_POINT_MIN_STEPS = 64


Step = Callable[[np.ndarray, np.ndarray], Union[float, np.ndarray]]
Kernel = Callable[[np.ndarray, bool], tuple[np.ndarray, np.ndarray]]
Ladder = tuple[np.ndarray, ...]


@dataclass(frozen=True)
class ControllerPolicy:
    """A strictly causal control law z_k = step(e_{0..k-1}, z_{0..k-1}).

    ``initial_output`` is the (deterministic) z_0 emitted before any error
    has been observed; the default 0 keeps d_0 visible in e_0.  ``dim`` is
    the error dimension the policy expects; z_0 has shape ``(dim,)``, or is
    a scalar at ``dim`` 1.  ``kernel(x, closed)``, if given, runs the law
    over a whole sequence and returns (z, e): with ``closed`` x is the
    disturbance and e_k = x_k + z_k, otherwise x is a fixed error sequence
    and e is x.

    ``taps``, if given, makes the policy the FIR law and sets its step and
    kernel to ``_fir_step`` and ``_fir_kernel`` on that ladder of read-only
    arrays: ``taps[j]`` holds j taps (scalars at ``dim`` 1, else ``dim`` x ``dim``
    matrices, up to order ``_FIXED_POINT_ORDER``); the top entry is frozen.
    """

    # the descriptor names the law; a ladder's repr would run to megabytes
    step: Optional[Step] = field(default=None, repr=False)
    initial_output: Union[float, np.ndarray] = 0.0
    descriptor: str = "custom"
    dim: int = 1
    kernel: Optional[Kernel] = field(default=None, repr=False)
    taps: Optional[Ladder] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        shape, top = _tap_shape(self.dim), len(self.taps or ()) - 1
        if self.taps is None:
            if self.step is None:
                raise ValueError("a policy needs a step or taps")
        elif top < 0 or any(t.shape != (j, *shape) for j, t in enumerate(self.taps)):
            raise ValueError(f"taps[j] must hold j taps of shape {shape}, j = 0 up to the top")
        elif np.any(self.initial_output) or (shape and top > _FIXED_POINT_ORDER):
            raise ValueError(f"taps need z_0 = 0, matrix taps up to order {_FIXED_POINT_ORDER}")
        z0 = np.shape(self.initial_output)
        if z0 != (self.dim,) and not (z0 == () and self.dim == 1):
            raise ValueError(f"z_0 must be a scalar at dim 1 or have shape ({self.dim},)")
        if self.taps is not None:
            rows = None if top > _FIXED_POINT_ORDER else _coefficient_rows(self.taps, self.dim)
            object.__setattr__(self, "step", partial(_fir_step, self.taps, rows))
            object.__setattr__(self, "kernel", partial(_fir_kernel, self.taps, rows))

    def run(self, x: np.ndarray, closed: bool):
        """(z, e) over a whole sequence: the policy's kernel, else ``step_recursion``."""
        return (self.kernel or self.step_recursion)(x, closed)

    def step_recursion(self, x: np.ndarray, closed: bool):
        """The reference kernel: one ``step`` call per sample."""
        z = np.zeros_like(x)
        e = np.zeros_like(x) if closed else x
        for k in range(x.shape[0]):
            z[k] = self.step(e[:k], z[:k]) if k else self.initial_output
            if closed:
                e[k] = x[k] + z[k]
        return z, e


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
    """The do-nothing policy: e_k = d_k, the FIR law on the empty ladder of its dimension."""
    return ControllerPolicy(
        taps=_read_only([np.zeros((0, *_tap_shape(dim)))]),
        initial_output=np.zeros(dim) if dim > 1 else 0.0,
        descriptor="zero",
        dim=dim,
    )


def predictor_controller(model: DisturbanceModel) -> ControllerPolicy:
    """Cancel the best linear one-step prediction of the disturbance.

    The policy reconstructs d_j = e_j - z_j from its histories and outputs
    z_k = -(prediction of d_k), as the FIR law on a ladder of negated taps.
    A scalar model's taps come from the Levinson-Durbin recursion on the
    model autocovariances: order-k taps while k is small (they are exactly
    optimal under the stationary start), frozen at the order where the
    prediction error variance has converged to the innovation variance.  For
    a pure AR(p) model that order is p and the taps are the negated AR
    coefficients; for a white model it is 0 and the policy is the zero law.
    The vector model's ladder is (no taps, -A): z_k = (-A) d_{k-1}, each row
    summed on Python floats in order from 0.0, so an exactly zero row gives
    +0; it is -(A d_{k-1}) up to about an ulp where a fused gemv rounds
    differently.
    """
    descriptor = f"predictor[{model.descriptor}]"
    if isinstance(model, VectorGaussAR):
        m, shape = model.dim, _tap_shape(model.dim)
        ladder = _read_only([np.zeros((0, *shape)), -model.transition_matrix.reshape(1, *shape)])
        return ControllerPolicy(
            taps=ladder, initial_output=np.zeros(m), descriptor=descriptor, dim=m
        )
    return ControllerPolicy(taps=_prediction_taps(model), descriptor=descriptor)


def _tap_shape(dim: int) -> tuple[int, ...]:
    """One tap's shape: a scalar at dim 1, a dim x dim matrix above."""
    return (dim, dim) if dim > 1 else ()


def _read_only(ladder: Sequence[np.ndarray]) -> Ladder:
    for taps in ladder:
        taps.flags.writeable = False
    return tuple(ladder)


@lru_cache(maxsize=64)
def _prediction_taps(model: DisturbanceModel) -> Ladder:
    """Ladder of negated Levinson taps up to the order where prediction stops improving."""
    rate_var = model.innovation_variance
    excess = prediction_variances(model, _TAP_ORDER_CAP) - rate_var
    orders = (0, *(1 << i for i in range(_TAP_ORDER_CAP.bit_length())))
    order = next(
        (n for n in orders if excess[n] <= _TAP_CONVERGENCE * rate_var), _TAP_ORDER_CAP
    )
    coeffs, _ = levinson_ladder(model.autocovariance(order), order)
    return _read_only([-taps for taps in coeffs])


def _coefficient_rows(ladder: Ladder, m: int) -> list:
    """Each order's taps T_l as m lists of Python floats: row i holds T_l[i, c]
    over lags l in order and channels c in order within a lag, as the FIR law
    sums z_k[i]."""
    return [t.reshape(j, m, m).swapaxes(0, 1).reshape(m, -1).tolist() for j, t in enumerate(ladder)]


def _fir_step(ladder: Ladder, rows, e_hist, z_hist):
    """The FIR law's step, which ``_fir_kernel`` repeats exactly.  Up to top order
    ``_FIXED_POINT_ORDER`` (``rows`` given) the definition is a Python-float sum
    of row i in order from 0.0 (what ``@`` sums where numpy does not fuse
    multiply-adds), over d_{k-1}, d_{k-2}, ... and each lag's channels in order;
    higher orders, scalar only, make the ``@`` dot."""
    order = min(e_hist.shape[0], len(ladder) - 1)
    if order == 0:
        return 0.0
    if rows is None:
        return float(ladder[order] @ (e_hist[-order:] - z_hist[-order:])[::-1])
    values = (e_hist[: -order - 1 : -1] - z_hist[: -order - 1 : -1]).ravel().tolist()
    if len(rows[order]) == 1:
        return _ordered_sum(rows[order][0], values)
    return np.array([_ordered_sum(row, values) for row in rows[order]])


def _ordered_sum(coeffs, values) -> float:
    """sum(c * v) on Python floats, one rounding per operation, in order from 0.0."""
    s = 0.0
    for term in map(mul, coeffs, values):
        s += term
    return s


def _fir_kernel(ladder: Ladder, rows, x: np.ndarray, closed: bool):
    """Exact kernel of the FIR law z_k = s on d_j = e_j - z_j,

        s = ladder[min(k, top)] . (d_{k-1}, d_{k-2}, ...),  top = len(ladder) - 1,

    summed as ``_fir_step`` sums it.  Up to top order ``_FIXED_POINT_ORDER`` the
    frozen phase k >= top of a long enough closed loop is ``_fixed_point`` on a
    (channel, step) view, and the steps k < top, the open loop and the rest run
    on Python floats, one step at a time.  Above that order each step makes the
    step's ``@`` dot (see ``_fir_dot_steps``).  The empty ladder (top 0) gives
    z = 0 without a loop, in any dimension.
    """
    top = len(ladder) - 1
    if not top:
        z = np.zeros_like(x)
        return z, (x + z if closed else x)
    if rows is None:
        return _fir_dot_steps(ladder, x, closed)
    n, m = x.shape[0], len(rows[0])
    zs, es, window = [], [], []
    if closed and n - top >= _FIXED_POINT_MIN_STEPS:
        _fir_steps(rows, x, zs, es, window, top, closed)
        z = np.zeros((m, n))
        z.T[:top] = np.array(zs).reshape(top, m)
        terms = [[(t, j % m, j // m + 1) for j, t in enumerate(row)] for row in rows[top]]
        z, e, d, settled = _fixed_point(np.ascontiguousarray(x.reshape(n, m).T), z, top, terms)
        if settled == n:
            return tuple(np.ascontiguousarray(a.T).reshape(x.shape) for a in (z, e))
        zs, es = [(a[0] if m == 1 else a.T)[:settled].tolist() for a in (z, e)]
        window = d[:, settled - top : settled][:, ::-1].T.ravel().tolist()
    _fir_steps(rows, x, zs, es, window, n, closed)
    return _outputs(x, zs, es, closed)


def _fir_steps(rows, x, zs, es, window, stop, closed) -> None:
    """Steps len(zs) to ``stop`` - 1 of the FIR law on Python floats, appended to
    the lists of z and e: floats at m = 1 (also from (n, 1) rows), lists of m
    floats above.  ``window`` holds the floats of the last min(len(zs), top) d,
    newest lag first and channels in order within a lag, so its length picks
    the order."""
    top, m = len(rows) - 1, len(rows[0])
    if m == 1:
        taps, window = [row for row, in rows], deque(window, maxlen=top)
        for xk in x[len(zs) : stop].ravel().tolist():
            zk = 0.0
            for term in map(mul, taps[len(window)], window):
                zk += term
            ek = xk + zk if closed else xk
            zs.append(zk)
            es.append(ek)
            window.appendleft(ek - zk)
        return
    for xk in x[len(zs) : stop].tolist():
        zk = []
        for row in rows[len(window) // m]:
            s = 0.0
            for term in map(mul, row, window):
                s += term
            zk.append(s)
        ek = list(map(add, xk, zk)) if closed else xk
        zs.append(zk)
        es.append(ek)
        window = [*map(sub, ek, zk), *window[: (top - 1) * m]]


def _fir_dot_steps(ladder, x, closed):
    """The FIR kernel above ``_FIXED_POINT_ORDER``: each step makes the step's
    ``@`` dot, with the same taps array and a reversed (negatively strided) view
    of a preallocated d array as the operand, so numpy picks the same loop and
    the sum rounds as in ``_fir_step`` (where ``np.dot`` would not): a slice
    while k < top, then row n - k of one window view."""
    n, top, xs, zs, es = x.shape[0], len(ladder) - 1, x.tolist(), [], []
    ds = np.empty_like(x)
    rev = ds[::-1]  # rev[n - k :] is d_{k-1}, d_{k-2}, ..., d_0
    for k in range(min(top, n)):
        zk = float(ladder[k] @ rev[n - k :]) if k else 0.0
        ek = xs[k] + zk if closed else xs[k]
        zs.append(zk)
        es.append(ek)
        ds[k] = ek - zk
    if n > top:  # the window view needs n >= top
        frozen, windows = ladder[top], np.lib.stride_tricks.sliding_window_view(rev, top)
        for k, xk, window in zip(range(top, n), xs[top:], windows[n - top : 0 : -1]):
            zk = float(frozen @ window)
            ek = xk + zk if closed else xk
            zs.append(zk)
            es.append(ek)
            ds[k] = ek - zk
    return _outputs(x, zs, es, closed)


def _outputs(x, zs, es, closed):
    """A kernel's (z, e) in the shape of x from its per-step lists; open loop, e is x."""
    z = np.array(zs, dtype=x.dtype).reshape(x.shape)
    return z, (np.array(es, dtype=x.dtype).reshape(x.shape) if closed else x)


def _fixed_point(x, z, start, terms):
    """The closed loop e = x + z, d = e - z on (channel, step) arrays as a
    whole-trace fixed point (see the module docstring): z_k[i], k >= ``start``,
    sums coeff * d_{k-lag}[j] over the (coeff, j, lag) of ``terms[i]`` in order
    from 0.0, and z[:, :start] holds the exact first steps.  Returns (z, e, d,
    settled): the first ``settled`` steps are exact, all n once a pass returns
    d bit for bit, else as far as ``_FIXED_POINT_PASSES`` passes reached, or
    up to the first unsettled step whose d is not finite.
    """
    n = x.shape[1]
    e = x + z
    d = e - z
    settled = start
    for _ in range(_FIXED_POINT_PASSES):
        for z_i, row in zip(z, terms):
            s = z_i[start:]
            s[:] = 0.0
            for coeff, j, lag in row:
                s += coeff * d[j, start - lag : n - lag]
        e = x + z
        d_next = e - z
        moved = (d_next.view(np.uint64) != d.view(np.uint64)).any(axis=0)
        d = d_next
        if not moved.any():
            return z, e, d, n
        settled = int(moved.argmax())
        if not np.isfinite(d[:, settled]).all():  # a NaN front: the steps are faster
            break
    return z, e, d, settled


def random_causal_controller(
    seed, memory: int = 3, gain_cap: float = 2.0
) -> ControllerPolicy:
    """A random bounded policy: affine in the last ``memory`` errors, clipped.

    Weights and bias are drawn once from ``seed`` and fixed, so the policy
    is deterministic and strictly causal by construction.  memory=0 yields
    the zero law.  Used to exercise the bounds with arbitrary (bad)
    controllers.
    """
    if memory < 0:
        raise ValueError(f"memory must be >= 0, got {memory}")
    if not gain_cap > 0.0:
        raise ValueError(f"gain_cap must be positive, got {gain_cap!r}")
    descriptor = f"random[memory={memory}, cap={gain_cap:g}]"
    cap = float(gain_cap)
    rng = as_rng(seed)
    if not memory:
        return ControllerPolicy(taps=zero_controller().taps, descriptor=descriptor)
    taps = rng.uniform(-1.0, 1.0, size=memory).tolist()
    bias = float(rng.uniform(-0.5, 0.5))

    def step(e_hist, z_hist):
        # the law on Python floats, from e_{k-1}, e_{k-2}, ... (the first ``memory``
        # count): the dot summed in order with one rounding per operation on every
        # platform, min/max for np.clip's result (NaN and -0.0 included); with no
        # history the bias alone, which bias + 0.0 would make +0.0 for a -0.0 bias
        recent = e_hist[::-1][:memory].tolist()
        s = 0.0
        for t, past in zip(taps, recent):
            s += t * past
        return min(max(bias + s if recent else bias, -cap), cap)

    def kernel(x, closed):
        # law inline: its products summed in order; comparisons pick min/max's value, NaN too
        xs = x.tolist()
        zs, es = [], []
        for xk in xs if memory != 3 else xs[:3]:
            s = 0.0
            for term in map(mul, taps, reversed(es)):  # t_i * e_{k-1-i}
                s += term
            zk = bias + s
            zk = (-cap if zk < -cap else cap if zk > cap else zk) if es else 0.0
            zs.append(zk)
            es.append(xk + zk if closed else xk)
        if memory != 3 or len(xs) <= 3:
            return _outputs(x, zs, es, closed)
        # memory 3 (the default) from step 3 on, written out on locals: e1 is e_{k-1}
        t0, t1, t2 = taps
        e3, e2, e1 = es
        for xk in xs[3:]:
            zk = bias + (((0.0 + t0 * e1) + t1 * e2) + t2 * e3)
            zk = -cap if zk < -cap else cap if zk > cap else zk
            e3, e2, e1 = e2, e1, (xk + zk if closed else xk)
            zs.append(zk)
            es.append(e1)
        return _outputs(x, zs, es, closed)

    return ControllerPolicy(step=step, descriptor=descriptor, kernel=kernel)


def learned_controller(
    training_traces: Sequence[SimulationTrace], memory: int
) -> ControllerPolicy:
    """Least-squares FIR policy fitted on reconstructed disturbances.

    Regresses -d_k on [d_{k-1}, ..., d_{k-memory}] pooled over the training
    traces (d reconstructed as e - z) and plays the fitted taps in the
    loop.  A singular normal matrix falls back to ridge with lambda=1e-8.
    A non-finite d is refused: its taps would be NaN.
    """
    if memory < 1:
        raise ValueError(f"memory must be >= 1, got {memory}")
    rows = []
    targets = []
    for i, trace in enumerate(training_traces):
        d = trace.e - trace.z
        if d.ndim != 1:
            raise ValueError("learned_controller supports scalar traces only")
        bad = np.flatnonzero(~np.isfinite(d))
        if bad.size:
            raise ValueError(f"training trace {i} has a non-finite disturbance at step {bad[0]}")
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

    ladder = _read_only([taps[:avail] for avail in range(memory + 1)])
    return ControllerPolicy(taps=ladder, descriptor=f"learned[memory={memory}]")


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

    return ControllerPolicy(
        step=step,
        initial_output=step(np.zeros(0), np.zeros(0)),
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
    bit for bit, so the audit covers the code that runs.  The errors come as
    scalars, or as rows of ``dim`` for a vector z_0 or ``dim`` > 1 (a 1 x 1
    vector model's predictor reads (n, 1) paths).
    """
    rows = controller.dim != 1 or np.ndim(controller.initial_output)
    shape = (length, controller.dim) if rows else (length,)
    return _probe_loop(
        controller, False, length, trials, seed,
        draw=lambda rng: rng.standard_normal(shape),
        shift=lambda rng, tail: 1.0 + rng.standard_normal(tail.shape),
    )


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
    return _probe_loop(
        controller, True, length, trials, seed,
        draw=lambda rng: model.sample_path(length, int(rng.integers(0, 2**32))),
        shift=lambda rng, tail: 1.0,
    )


def _probe_loop(controller, closed, length, trials, seed, draw, shift) -> CausalityReport:
    """Both audits' loop: ``controller.run`` on x = ``draw(rng)``, closed or
    open loop, check its kernel on trial 0, move x_j for j >= k by
    ``shift(rng, x[k:])``, and require z to agree through index k."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    rng = as_rng(seed)
    violations = []
    for trial in range(trials):
        x = draw(rng)
        outputs = controller.run(x, closed)
        if trial == 0:
            violations += _kernel_check(controller, x, closed, outputs)
        k = int(rng.integers(1, length))
        altered = x.copy()
        altered[k:] += shift(rng, altered[k:])
        reference, moved = outputs[0][: k + 1], controller.run(altered, closed)[0][: k + 1]
        if not np.array_equal(reference, moved):
            violations.append((trial, _first_mismatch(reference, moved)))
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
    """The float64 bits of ``a`` with every NaN as one.  Which operand's NaN a
    Python float + or * returns changes once CPython specializes the bytecode,
    so a Python-float kernel's NaN signs vary from call to call."""
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = np.nan
    return a.view(np.uint64)


class _AnticipatoryPolicy(ControllerPolicy):
    """Deliberately broken double whose open-loop response is z_k = e_k."""

    def run(self, x: np.ndarray, closed: bool):
        return super().run(x, closed) if closed else (x.copy(), x)


def anticipatory_double(dim: int = 1) -> ControllerPolicy:
    """Negative control for the causality audit: z_k copies e_k.

    Inside a closed loop it degrades to the zero controller (the current
    error does not exist yet when z_k is due), but its open-loop response
    depends on the present input and the audit must fail it at every index.
    At ``dim`` > 1 its z_0 is a zero vector and the audit probes it with rows.
    """
    return _AnticipatoryPolicy(
        step=lambda e_hist, z_hist: 0.0,
        initial_output=np.zeros(dim) if dim > 1 else 0.0,
        descriptor="anticipatory(test fixture)",
        dim=dim,
    )


# ---------------------------------------------------------------------------
# trace serialization


def save_trace(trace: SimulationTrace, csv_path) -> None:
    """Write the trace as CSV plus a JSON sidecar next to it.

    One layout for every trace: k, then d, z and e, each as n x m columns,
    named d, z, e when m = 1 and d_1..d_m, z_1..z_m, e_1..e_m otherwise.
    """
    csv_path = Path(csv_path)
    m = 1 if trace.d.ndim == 1 else trace.d.shape[1]
    header = ["k"] + [x if m == 1 else f"{x}_{i + 1}" for x in "dze" for i in range(m)]
    blocks = [x.reshape(trace.length, m) for x in (trace.d, trace.z, trace.e)]
    cells = [map(repr, col.tolist()) for block in blocks for col in block.T]
    rows = map(",".join, zip(map(str, range(trace.length)), *cells))
    with open(csv_path, "w", newline="") as handle:
        handle.write("\r\n".join([",".join(header), *rows, ""]))
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
    """Round-trip counterpart of save_trace; a scalar trace comes back 1-D."""
    csv_path = Path(csv_path)
    with open(csv_path.with_suffix(".json")) as handle:
        sidecar = json.load(handle)
    m = sidecar["dimension"]
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
    d, z, e = (part.reshape(-1) if m == 1 else part for part in np.split(data[:, 1:], 3, axis=1))
    return SimulationTrace(
        d=d,
        z=z,
        e=e,
        seed=sidecar["seed"],
        model_descriptor=sidecar["model"],
        controller_descriptor=sidecar["controller"],
    )
