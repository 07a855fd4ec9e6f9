"""Span tracer that instruments entrolim from outside the package.

``Tracer.install`` rebinds the public functions of each module (and a few
class methods) to wrappers that record one span per call: name, start, end,
the span that was open when the call began (its parent) and a few
attributes used for counts.  Every binding of a wrapped object inside the
``entrolim`` modules is replaced, so ``entrolim.cli.run_loop`` and
``entrolim.verify.run_loop`` are traced alike.  ``uninstall`` restores the
originals.  Spans stay in memory; the runner writes them out when it ends.

Only single-caller passes are traced: the parent link comes from a
per-thread span stack, and the per-pass counts must repeat exactly.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  Module paths are relative to entrolim.
FUNCTIONS = [
    ("processes", "entropy_schedule", "processes.entropy_schedule"),
    ("processes", "levinson_ladder", "processes.levinson_ladder"),
    ("spectral", "szego_entropy_integral_bits", "spectral.szego_entropy_integral_bits"),
    ("bounds", "lp_bound_asymptotic", "bounds.lp_bound_asymptotic"),
    ("bounds", "spectral_lp_bound", "bounds.spectral_lp_bound"),
    ("bounds", "gw_lp_bound", "bounds.gw_lp_bound"),
    ("bounds", "lp_bound_at_step", "bounds.lp_bound_at_step"),
    ("simulator", "run_loop", "simulator.run_loop"),
    ("simulator", "causality_audit", "simulator.causality_audit"),
    ("simulator", "closed_loop_causality_check", "simulator.closed_loop_causality_check"),
    ("simulator", "save_trace", "simulator.save_trace"),
    ("simulator", "load_trace", "simulator.load_trace"),
    ("estimators", "lp_norm_estimate", "estimators.lp_norm_estimate"),
    ("estimators", "whiteness_stats", "estimators.whiteness_stats"),
    ("estimators", "mutual_information_estimate", "estimators.mutual_information_estimate"),
    ("estimators", "density_fit_gg", "estimators.density_fit_gg"),
    ("estimators", "covariance_det_estimate", "estimators.covariance_det_estimate"),
    ("verify", "sweep", "verify.sweep"),
    ("verify", "verify_bound", "verify.verify_bound"),
    ("verify", "verify_mimo_bound", "verify.verify_mimo_bound"),
    ("verify", "resolve_controller", "verify.resolve_controller"),
    ("verify", "tightness_report", "verify.tightness_report"),
    ("verify", "write_rows_csv", "verify.write_rows_csv"),
    ("cli", "cmd_audit", "cli.audit"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "load_config", "cli.load_config"),
]

DRIVE_KINDS = ("zero", "predictor", "random", "learned", "vector")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS = {
    "processes.sample_path.scalar.self_s": "s",
    "processes.sample_path.vector.self_s": "s",
    "processes.sample_path.steps": "count",
    "processes.entropy_schedule.self_s": "s",
    "processes.levinson_ladder.calls": "count",
    "processes.levinson_ladder.order_sq_sum": "count",
    "spectral.szego_entropy_integral_bits.self_s": "s",
    "spectral.density_points": "count",
    "bounds.lp_bound_asymptotic.self_s": "s",
    "bounds.spectral_lp_bound.self_s": "s",
    "bounds.gw_lp_bound.self_s": "s",
    "bounds.lp_bound_at_step.self_s": "s",
    **{f"simulator.drive.{kind}.self_s": "s" for kind in DRIVE_KINDS},
    **{f"simulator.drive.{kind}.us_per_step": "us" for kind in DRIVE_KINDS},
    "simulator.run_loop.calls": "count",
    "simulator.run_loop.unique_ratio": "ratio",
    "simulator.causality_audit.self_s": "s",
    "simulator.closed_loop_causality_check.self_s": "s",
    "simulator.save_trace.self_s": "s",
    "simulator.save_trace.bytes": "count",
    "simulator.load_trace.self_s": "s",
    "estimators.lp_norm_estimate.self_s": "s",
    "estimators.whiteness_stats.self_s": "s",
    "estimators.mutual_information_estimate.self_s": "s",
    "estimators.density_fit_gg.self_s": "s",
    "estimators.covariance_det_estimate.self_s": "s",
    "estimators.kdtree.d1.builds": "count",
    "estimators.kdtree.d2.builds": "count",
    "estimators.kdtree.d1.self_s": "s",
    "estimators.kdtree.d2.self_s": "s",
    "estimators.kdtree.unique_ratio": "ratio",
    "distributions.GeneralizedGaussian.cdf.self_s": "s",
    "verify.sweep.self_s": "s",
    "verify.verify_bound.self_s": "s",
    "verify.verify_mimo_bound.self_s": "s",
    "verify.resolve_controller.self_s": "s",
    "verify.tightness_report.calls": "count",
    "verify.write_rows_csv.self_s": "s",
    "cli.audit.s": "s",
    "cli.verify.s": "s",
    "cli.simulate.s": "s",
    "cli.load_config.self_s": "s",
    "cli.verify.run_loop_unique_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Metrics that are exact functions of the inputs and must repeat run to run.
COUNT_METRICS = [name for name, unit in LAYER_METRICS.items() if unit in ("count", "ratio")]
COUNT_METRICS.remove("trace.overhead_ratio")


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, attrs):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = attrs
        self.start = self.end = 0.0

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def _digest(array) -> str:
    data = np.ascontiguousarray(array)
    return f"{data.shape}:{hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(next(self._ids), stack[-1].id if stack else None, name, attrs)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def count(self, name: str, amount: int) -> None:
        with self._lock:
            self.counters[name] += int(amount)

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(int)
        return spans, counters

    # -- instrumentation ---------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every entrolim binding of ``original`` at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "entrolim" or mod_name.startswith("entrolim.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def _patch_method(self, cls, attr, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def _wrap(self, name, fn, attrs_of=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            result = tracer.call(name, fn, args, kwargs, attrs)
            if after is not None:
                after(attrs, *args, **kwargs)
            return result

        return wrapper

    def install(self, el) -> None:
        """Instrument the imported ``entrolim`` package ``el``."""
        special = {
            "simulator.run_loop": (_run_loop_attrs, None),
            "processes.levinson_ladder": (_levinson_attrs, None),
            "simulator.save_trace": (lambda trace, csv_path: {}, _record_bytes_written),
        }
        for module_name, attr, name in FUNCTIONS:
            module = sys.modules[f"entrolim.{module_name}"]
            original = getattr(module, attr)
            attrs_of, after = special.get(name, (None, None))
            self._rebind(original, self._wrap(name, original, attrs_of, after))

        for cls in (el.IID, el.GaussARMA, el.GenGaussAR, el.VectorGaussAR):
            original = cls.__dict__["sample_path"]
            self._patch_method(
                cls,
                "sample_path",
                self._wrap("processes.sample_path", original, _sample_path_attrs),
            )
        cdf = el.GeneralizedGaussian.__dict__["cdf"]
        self._patch_method(
            el.GeneralizedGaussian,
            "cdf",
            self._wrap("distributions.GeneralizedGaussian.cdf", cdf),
        )

        density_call = el.SpectralDensity.__dict__["__call__"]
        tracer = self

        @functools.wraps(density_call)
        def counted_density(density, omega):
            tracer.count("spectral.density_points", np.size(omega))
            return density_call(density, omega)

        self._patch_method(el.SpectralDensity, "__call__", counted_density)

        estimators = sys.modules["entrolim.estimators"]
        tree_class = estimators.cKDTree

        def traced_tree(points, *args, **kwargs):
            pts = np.asarray(points)
            name = f"estimators.kdtree.d{pts.shape[1] if pts.ndim == 2 else 1}"
            attrs = {"build": True, "key": _digest(pts)}
            tree = tracer.call(name, tree_class, (points, *args), kwargs, attrs)
            return _TracedTree(tracer, name, tree)

        self._rebind(tree_class, traced_tree)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)


class _TracedTree:
    """Proxy for a cKDTree whose queries are recorded as spans."""

    def __init__(self, tracer, name, tree):
        self._tracer, self._name, self._tree = tracer, name, tree

    def query(self, *args, **kwargs):
        return self._tracer.call(self._name, self._tree.query, args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._tree, attr)


def _run_loop_attrs(model, controller, length, seed):
    kind = "vector" if model.dim > 1 else controller.descriptor.split("[")[0]
    key = f"{model!r}|{controller.descriptor}|{int(seed)}|{int(length)}"
    return {"kind": kind, "steps": int(length), "key": key}


def _sample_path_attrs(model, length, seed):
    return {"dim": model.dim, "steps": int(length)}


def _levinson_attrs(acov, order):
    return {"order": int(order)}


def _record_bytes_written(attrs, trace, csv_path):
    csv_path = os.fspath(csv_path)
    sidecar = os.path.splitext(csv_path)[0] + ".json"
    attrs["bytes"] = os.path.getsize(csv_path) + os.path.getsize(sidecar)


# ---------------------------------------------------------------------------
# metrics from spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its child spans cover."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return {span.id: span.end - span.start - child[span.id] for span in spans}


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = span.parent
    while parent is not None:
        node = by_id.get(parent)
        if node is None:
            return False
        if node.name == name:
            return True
        parent = node.parent
    return False


def _unique_ratio(keys: list[str]) -> float:
    """Distinct inputs over calls; 1.0 when there were no calls (nothing wasted)."""
    return len(set(keys)) / len(keys) if keys else 1.0


def layer_metrics(spans: list[Span], counters: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead, for one pass."""
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    self_s = defaultdict(float)
    busy_s = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        self_s[span.name] += own[span.id]
        busy_s[span.name] += span.end - span.start
        calls[span.name] += 1

    out: dict[str, float] = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_s"):
            out[name] = self_s[name[: -len(".self_s")]]

    samples = [s for s in spans if s.name == "processes.sample_path"]
    out["processes.sample_path.scalar.self_s"] = sum(
        own[s.id] for s in samples if s.attrs["dim"] == 1
    )
    out["processes.sample_path.vector.self_s"] = sum(
        own[s.id] for s in samples if s.attrs["dim"] > 1
    )
    out["processes.sample_path.steps"] = sum(s.attrs["steps"] for s in samples)

    ladders = [s for s in spans if s.name == "processes.levinson_ladder"]
    out["processes.levinson_ladder.calls"] = len(ladders)
    out["processes.levinson_ladder.order_sq_sum"] = sum(s.attrs["order"] ** 2 for s in ladders)
    out["spectral.density_points"] = counters.get("spectral.density_points", 0)

    loops = [s for s in spans if s.name == "simulator.run_loop"]
    for kind in DRIVE_KINDS:
        mine = [s for s in loops if s.attrs["kind"] == kind]
        seconds = sum(own[s.id] for s in mine)
        steps = sum(s.attrs["steps"] for s in mine)
        out[f"simulator.drive.{kind}.self_s"] = seconds
        out[f"simulator.drive.{kind}.us_per_step"] = 1e6 * seconds / steps if steps else 0.0
    out["simulator.run_loop.calls"] = len(loops)
    out["simulator.run_loop.unique_ratio"] = _unique_ratio([s.attrs["key"] for s in loops])
    out["cli.verify.run_loop_unique_ratio"] = _unique_ratio(
        [s.attrs["key"] for s in loops if _has_ancestor(s, "cli.verify", by_id)]
    )
    out["simulator.save_trace.bytes"] = sum(
        s.attrs["bytes"] for s in spans if s.name == "simulator.save_trace"
    )

    builds = [s for s in spans if s.name.startswith("estimators.kdtree.") and s.attrs]
    for dim in ("d1", "d2"):
        out[f"estimators.kdtree.{dim}.builds"] = sum(
            1 for s in builds if s.name.endswith(dim)
        )
    out["estimators.kdtree.unique_ratio"] = _unique_ratio([s.attrs["key"] for s in builds])
    out["verify.tightness_report.calls"] = calls["verify.tightness_report"]
    for command in ("audit", "verify", "simulate"):
        out[f"cli.{command}.s"] = busy_s[f"cli.{command}"]
    return out


def _high_percentile(count: int):
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return None


def call_stats(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, busy and self time, per-call median and tail."""
    own = self_times(spans)
    grouped = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    out = {}
    for name, group in sorted(grouped.items()):
        durations = sorted(s.end - s.start for s in group)
        entry = {
            "calls": len(group),
            "busy_s": sum(durations),
            "self_s": sum(own[s.id] for s in group),
            "median_s": statistics.median(durations),
            "samples": len(durations),
        }
        q = _high_percentile(len(durations))
        if q is not None:
            index = min(len(durations) - 1, int(q / 100.0 * len(durations)))
            entry[f"p{q:g}_s"] = durations[index]
        out[name] = entry
    return out

# The per-layer metrics on the result line (BENCHMARK.json per_layer): every
# count and ratio, and the times that every workload measures.  A time a
# workload never reaches would read 0 on each of its runs; those stay in the
# trace file only.
REPORTED = [
    "processes.sample_path.scalar.self_s",
    "processes.sample_path.vector.self_s",
    "processes.sample_path.steps",
    "processes.levinson_ladder.calls",
    "processes.levinson_ladder.order_sq_sum",
    "spectral.density_points",
    "bounds.lp_bound_asymptotic.self_s",
    *(f"simulator.drive.{kind}.{what}" for kind in ("zero", "predictor", "vector")
      for what in ("self_s", "us_per_step")),
    "simulator.run_loop.calls",
    "simulator.run_loop.unique_ratio",
    "simulator.save_trace.bytes",
    "estimators.lp_norm_estimate.self_s",
    "estimators.covariance_det_estimate.self_s",
    "estimators.kdtree.d1.builds",
    "estimators.kdtree.d2.builds",
    "estimators.kdtree.unique_ratio",
    "verify.verify_mimo_bound.self_s",
    "verify.resolve_controller.self_s",
    "verify.tightness_report.calls",
    "verify.write_rows_csv.self_s",
    "cli.verify.run_loop_unique_ratio",
    "trace.overhead_ratio",
]
