"""Span tracing of detctl's layers from outside the package.

``Tracer.installed`` replaces every public function of the layer modules
(``fields``, ``interpolants``, ``dynamics``, ``analysis``, ``cli``) and the
public methods of ``dynamics.Stepper`` with timing wrappers, and puts the
originals back on exit.  A function is rebound under every name that holds
it in any layer module: ``dynamics`` does ``from .fields import samples_of``,
so wrapping ``fields.samples_of`` alone would leave the hot loop untraced.

A span is (name, start, end, parent), kept in flat integer arrays in the
order spans open and written out once, when the benchmark ends.  A span's
self time is its duration minus the durations of its child spans; in one
thread children nest inside their parent and never overlap.

Closures (``simulate``'s ``record``) and private helpers cannot be wrapped;
their time is self time of the public caller.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("fields", "interpolants", "dynamics", "analysis", "cli")


class Tracer:
    """Spans of wrapped calls, and counts taken at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counters = {"steps": 0, "records": 0, "transform_bytes": 0,
                         "blowups": 0, "csv_bytes": 0}

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper for ``fn``; ``hook(counters, args, result, exc)``
        runs after the span closes, outside its measured interval."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_a, start_a, end_a, parent_a = self.name_id, self.start, self.end, self.parent
        stack, clock, counters = self._stack, time.perf_counter_ns, self.counters

        # two bodies, so the hot-loop wrappers carry no result/exception bookkeeping
        if hook is None:
            def traced(*args, **kwargs):
                sid = len(start_a)
                name_a.append(nid)
                parent_a.append(stack[-1] if stack else -1)
                end_a.append(0)
                stack.append(sid)
                start_a.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    end_a[sid] = clock()
                    stack.pop()
        else:
            def traced(*args, **kwargs):
                sid = len(start_a)
                name_a.append(nid)
                parent_a.append(stack[-1] if stack else -1)
                end_a.append(0)
                stack.append(sid)
                result = exc = None
                start_a.append(clock())
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as err:
                    exc = err
                    raise
                finally:
                    end_a[sid] = clock()
                    stack.pop()
                    hook(counters, args, result, exc)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    @contextlib.contextmanager
    def installed(self, detctl):
        """Wrap the layer functions of the imported ``detctl`` package."""
        modules = [getattr(detctl, layer) for layer in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not obj.__name__.startswith("_") and obj not in wrappers):
                    name = f"{short}.{obj.__name__}"
                    wrappers[obj] = self.wrap(name, obj, HOOKS.get(name))
        restore = []
        for mod in modules + [detctl]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    restore.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        stepper = detctl.dynamics.Stepper
        for attr, obj in list(vars(stepper).items()):
            if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                restore.append((stepper, attr, obj))
                setattr(stepper, attr, self.wrap(f"dynamics.Stepper.{attr}", obj))
        try:
            yield
        finally:
            for owner, attr, obj in reversed(restore):
                setattr(owner, attr, obj)

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive and self durations in ns, per span."""
        if self._stack:
            raise RuntimeError("spans still open")
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur, dur - covered

    def by_name(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        dur, self_ns = self.durations()
        ids = np.frombuffer(self.name_id, dtype=np.int64)
        return {name: (dur[ids == i], self_ns[ids == i]) for i, name in enumerate(self.names)}

    def root_ns(self) -> int:
        dur, _ = self.durations()
        return int(dur[np.frombuffer(self.parent, dtype=np.int64) < 0].sum())

    def save(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int64),
                 start_ns=np.frombuffer(self.start, np.int64), end_ns=np.frombuffer(self.end, np.int64),
                 parent=np.frombuffer(self.parent, np.int64))


# ---------------------------------------------------------------------------
# counts taken at layer boundaries


def _transform_bytes(arg_array):
    def hook(counters, args, result, exc):
        if result is not None:
            counters["transform_bytes"] += arg_array(args).nbytes + result.nbytes
    return hook


def _simulate(counters, args, result, exc):
    cfg = args[0]
    if result is not None:
        counters["steps"] += int(round(cfg.T / cfg.dt))
        counters["records"] += len(result)
    elif getattr(exc, "record", None) is not None:
        counters["steps"] += int(round(exc.time / cfg.dt))
        counters["records"] += len(exc.record)


def _terminal_ratio(counters, args, result, exc):
    if result is not None and math.isinf(result):
        counters["blowups"] += 1


def _csv_bytes(counters, args, result, exc):
    if exc is None:
        counters["csv_bytes"] += Path(args[0]).stat().st_size


HOOKS = {
    "fields.samples_of": _transform_bytes(lambda args: np.asarray(args[1])),
    "fields.coeffs_of": _transform_bytes(lambda args: args[0].values),
    "dynamics.simulate": _simulate,
    "analysis.terminal_ratio": _terminal_ratio,
    "cli.write_trajectory_csv": _csv_bytes,
}


# ---------------------------------------------------------------------------
# per-layer metrics

PER_LAYER_UNITS = {
    "fields.samples_of.calls_per_step": "calls/step",
    "fields.samples_of.self_us": "us",
    "fields.coeffs_of.calls_per_step": "calls/step",
    "fields.coeffs_of.self_us": "us",
    "fields.transform.bytes_per_step": "B_computed/step",
    "fields.norms.self_us_per_record": "us/record",
    "dynamics.Stepper.cube.self_us": "us",
    "dynamics.Stepper.cube.calls_per_step": "calls/step",
    "dynamics.Stepper.nonlin.self_us": "us",
    "dynamics.Stepper.advance.self_us": "us",
    "dynamics.Stepper.control_coeffs.self_us": "us",
    "dynamics.Stepper.fine_samples.self_us": "us",
    "dynamics.Stepper.observations.self_us": "us",
    "interpolants.interpolant_l2.self_us": "us",
    "dynamics.simulate.self_us_per_step": "us/step",
    "dynamics.simulate.steps": "count",
    "dynamics.simulate.records": "count",
    "dynamics.energy_residual_series.ms": "ms",
    "cli.build_summary.ms": "ms",
    "cli.write_trajectory_csv.ms": "ms",
    "cli.write_trajectory_csv.bytes": "B",
    "cli.write_json.ms": "ms",
    "dynamics.Stepper.init_ms": "ms",
    "interpolants.piecewise_projection_matrix.ms": "ms",
    "interpolants.cell_average_matrix.ms": "ms",
    "cli.parse_simulate_config.ms": "ms",
    "cli.parse_sweep_config.ms": "ms",
    "analysis.sweep_cell_config.ms": "ms",
    "analysis.terminal_ratio.calls": "count",
    "analysis.terminal_ratio.blowups": "count",
    "analysis.fit_decay_rate.ms": "ms",
    "analysis.verify_decay_bound.ms": "ms",
}


def layer_metrics(tracer: Tracer, commands: int) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics over ``commands`` traced command runs, and the names
    of those whose layer function this workload never called (reported as 0).

    ``self_us`` and ``ms`` figures are medians per call (self and inclusive
    time); counts are per command; ``per_step`` and ``per_record`` divide
    totals by the steps and records the traced runs integrated.
    """
    spans = tracer.by_name()
    c = tracer.counters
    steps, records = max(c["steps"], 1), max(c["records"], 1)
    absent: set[str] = set()

    def calls(fn):
        return len(spans[fn][0]) if fn in spans else 0

    def med(fn, col, scale, metric):
        if not calls(fn):
            absent.add(metric)
            return 0.0
        return float(np.median(spans[fn][col])) / scale

    def total_self_us(*fns):
        return sum(float(spans[fn][1].sum()) for fn in fns if fn in spans) / 1e3

    out = {}
    for metric in PER_LAYER_UNITS:
        if metric.endswith(".self_us"):
            out[metric] = med(metric[: -len(".self_us")], 1, 1e3, metric)
        elif metric.endswith(".ms"):
            out[metric] = med(metric[: -len(".ms")], 0, 1e6, metric)
        elif metric.endswith(".calls_per_step"):
            out[metric] = calls(metric[: -len(".calls_per_step")]) / steps
    out["dynamics.Stepper.init_ms"] = med("dynamics.Stepper.__init__", 0, 1e6,
                                          "dynamics.Stepper.init_ms")
    out["fields.transform.bytes_per_step"] = c["transform_bytes"] / steps
    out["fields.norms.self_us_per_record"] = total_self_us(
        "fields.l2_sq_of_coeffs", "fields.h1x_sq_of_coeffs") / records
    out["dynamics.simulate.self_us_per_step"] = total_self_us("dynamics.simulate") / steps
    out["dynamics.simulate.steps"] = c["steps"] / commands
    out["dynamics.simulate.records"] = c["records"] / commands
    n_csv = calls("cli.write_trajectory_csv")
    out["cli.write_trajectory_csv.bytes"] = c["csv_bytes"] / n_csv if n_csv else 0.0
    if not n_csv:
        absent.add("cli.write_trajectory_csv.bytes")
    out["analysis.terminal_ratio.calls"] = calls("analysis.terminal_ratio") / commands
    out["analysis.terminal_ratio.blowups"] = c["blowups"] / commands
    return out, absent
