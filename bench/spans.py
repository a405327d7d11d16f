"""Spans around the public functions of the ``ltenergy`` modules.

The traced run replaces module and class attributes with timing wrappers
from outside the package, so no source file carries tracing code.  Each
call records a span (name, start, end, parent span); a span's self time is
its duration minus the durations of its direct children, which run nested
and one after another.  An attribute that no longer exists is reported as
missing, and the metrics that depend on it are left out rather than
crashing the run.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

# (span name, module, attribute path).  The CLI calls most layers through
# the module object (``sweep.run_sweep``), and ``run_sweep`` calls
# ``compare`` through the name it imported into ``ltenergy.sweep``, so
# these are the attributes that calls actually resolve.
TARGETS = (
    ("cli.main", "ltenergy.cli", "main"),
    ("power_model.profile", "ltenergy.cli", "default_profile"),
    ("sweep.run_sweep", "ltenergy.sweep", "run_sweep"),
    ("analytic.compare", "ltenergy.sweep", "compare"),
    ("sweep.rows", "ltenergy.sweep", "SweepResult.rows"),
    ("sweep.to_json_obj", "ltenergy.sweep", "SweepResult.to_json_obj"),
    ("sweep.cost_curve", "ltenergy.sweep", "cost_curve"),
    ("traces.parse", "ltenergy.traces", "parse_events"),
    ("traces.extract", "ltenergy.traces", "extract_post_phases"),
    ("traces.extract", "ltenergy.traces", "extract_get_phases"),
    ("traces.aggregate", "ltenergy.traces", "aggregate"),
    ("traces.rho", "ltenergy.traces", "rho_from_traces"),
    ("traces.synthesize", "ltenergy.traces", "synthesize_trace"),
    ("traces.events_to_lines", "ltenergy.traces", "events_to_lines"),
)

# Spans whose return value is kept so that counts (cells, error cells, cost
# points, packets) can be taken after the pass, outside every span.
_KEEP_RESULT = {"sweep.run_sweep", "sweep.cost_curve", "traces.parse"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    result: Any = None


class Tracer:
    """Collects spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.installed_names: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in _KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, 0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if keep:
                span.result = result
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        restore = []
        self.missing = []
        try:
            for name, module, path in TARGETS:
                owner: Any = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part, None)
                original = getattr(owner, attr, None)
                if not callable(original):
                    self.missing.append(f"{module}.{path}")
                    continue
                setattr(owner, attr, self._wrap(name, original))
                restore.append((owner, attr, original))
                self.installed_names.add(name)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans = []

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out = {name: {"calls": 0, "incl": 0.0, "self": 0.0}
               for name in self.installed_names}
        for span, children in zip(self.spans, child_time):
            entry = out[span.name]
            entry["calls"] += 1
            entry["incl"] += span.end - span.start
            entry["self"] += span.end - span.start - children
        return out

    def outer_time(self, names: set[str]) -> float:
        """Inclusive seconds of spans in ``names`` not nested in another."""
        return sum(
            s.end - s.start for s in self.spans
            if s.name in names and (
                s.parent is None or self.spans[s.parent].name not in names)
        )

    def results(self, name: str) -> list[Any]:
        return [s.result for s in self.spans if s.name == name]


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total / count * scale if count else 0.0


def layer_metrics(tracer: Tracer, prepare: Tracer, input_bytes: int,
                  out_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as (value, unit) by name.

    ``prepare`` holds the spans of input synthesis.  A metric is left out
    when a span it needs had no attribute to wrap.
    """
    t = tracer.totals()
    zero = {"calls": 0, "incl": 0.0, "self": 0.0}

    def get(name: str) -> dict[str, float]:
        return t.get(name, zero)

    sweeps = tracer.results("sweep.run_sweep")
    cells = sum(len(r.cells) for r in sweeps)
    error_cells = sum(1 for r in sweeps for c in r.cells if c.result is None)
    packets = sum(len(r) for r in tracer.results("traces.parse"))
    cost_points = sum(len(r.points)
                      for r in tracer.results("sweep.cost_curve"))
    prep = prepare.totals()

    # name: (unit, span names it needs, value)
    table: dict[str, tuple[str, tuple[str, ...], float]] = {
        "analytic.compare_calls": (
            "count", ("analytic.compare",), get("analytic.compare")["calls"]),
        "analytic.compare_us": (
            "us", ("analytic.compare",),
            _per(get("analytic.compare")["incl"],
                 get("analytic.compare")["calls"], 1e6)),
        "sweep.run_sweep_s": (
            "s", ("sweep.run_sweep",), get("sweep.run_sweep")["incl"]),
        "sweep.us_per_cell": (
            "us", ("sweep.run_sweep",),
            _per(get("sweep.run_sweep")["incl"], cells, 1e6)),
        "sweep.cells": ("count", ("sweep.run_sweep",), cells),
        "sweep.error_cells": ("count", ("sweep.run_sweep",), error_cells),
        "sweep.rows_s": ("s", ("sweep.rows",), get("sweep.rows")["incl"]),
        "sweep.to_json_obj_s": (
            "s", ("sweep.to_json_obj",), get("sweep.to_json_obj")["incl"]),
        "sweep.cost_curve_s": (
            "s", ("sweep.cost_curve",), get("sweep.cost_curve")["incl"]),
        "sweep.cost_points": ("count", ("sweep.cost_curve",), cost_points),
        "cli.self_s": ("s", ("cli.main",), get("cli.main")["self"]),
        "cli.out_bytes": ("bytes", (), out_bytes),
        "power_model.profile_us": (
            "us", ("power_model.profile",),
            _per(get("power_model.profile")["incl"],
                 get("power_model.profile")["calls"], 1e6)),
        "traces.parse_s": (
            "s", ("traces.parse",), get("traces.parse")["incl"]),
        "traces.parse_us_per_packet": (
            "us", ("traces.parse",),
            _per(get("traces.parse")["incl"], packets, 1e6)),
        "traces.packets": ("count", ("traces.parse",), packets),
        "traces.input_bytes": ("bytes", (), input_bytes),
        "traces.extract_s": (
            "s", ("traces.extract",), get("traces.extract")["incl"]),
        "traces.energy_s": (
            "s", ("traces.aggregate", "traces.rho"),
            tracer.outer_time({"traces.aggregate", "traces.rho"})),
        "traces.synthesize_s": (
            "s", ("traces.synthesize",),
            prep.get("traces.synthesize", zero)["incl"]),
        "traces.events_to_lines_s": (
            "s", ("traces.events_to_lines",),
            prep.get("traces.events_to_lines", zero)["incl"]),
    }
    return {
        name: (value, unit)
        for name, (unit, needs, value) in table.items()
        if all(n in tracer.installed_names for n in needs)
    }
