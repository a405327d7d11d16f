"""Parameter sweeps over placement scenarios and batching-cost curves.

``run_sweep`` evaluates the edge/cloud energy ratio over a dense grid of
scenario parameters, one dimension per swept axis.  It prices plain floats
through the timing and energy core that :func:`ltenergy.analytic.compare`
uses, so every cell equals ``compare`` at that grid point; scenario checks
run once per axis value, and each distinct edge scenario is priced once.
Grid points whose cycle does not fit inside the period are kept as explicit
error cells, so consumers see the full grid; an overflowing energy aborts
the sweep.  Every number is finite, so ``SweepResult.json_text`` renders
``json.dumps(to_json_obj(), indent=2)`` from one template per cell.

``cost_curve`` trades energy against data freshness for a node that
produces a fixed amount of data per hour: batching more data per request
(a larger period) amortises the radio's quiet-time tail energy but delays
the data.  The combined cost ``c = alpha * E/E_max + (1-alpha) * D/D_max``
is normalised by the maxima over the evaluated grid.

The value types are checked tuples (see :mod:`ltenergy.power_model`), so a
spec compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import NamedTuple, Sequence

from .analytic import (
    ComparisonResult,
    ConnectionlessScenario,
    EnergyBreakdown,
    PeriodOverrunError,
    DEFAULT_DOWNLINK_BPS,
    DEFAULT_UPLINK_BPS,
    compare,  # noqa: F401  bench/spans.py times ltenergy.sweep.compare
    energy_parts,
    energy_ratio,
    quiet_time,
    transfer_time,
)
from ._fmt import fmt_axis
from .power_model import PowerProfile, _checked

__all__ = [
    "SWEEP_AXES",
    "MAX_GRID_CELLS",
    "SweepAxis",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "per_cycle_payload",
    "CostSpec",
    "CostPoint",
    "CostCurve",
    "cost_curve",
]

# Scenario parameters a sweep may vary.  "payload" sets both byte counts.
SWEEP_AXES = ("t_i", "rtt_cloud", "payload", "t_elab")

MS_PER_HOUR = 3_600_000.0

# Most cells a grid may have, checked before any grid value is built: 4x a
# dense 498,486-cell t_i x rtt_cloud sweep, about 2 GB at 1 kB per cell.
MAX_GRID_CELLS = 2_000_000


@_checked
class SweepAxis(NamedTuple):
    """One swept parameter with an inclusive arithmetic grid."""

    name: str
    start: float
    stop: float
    step: float

    def _check(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ValueError(
                f"unknown sweep axis {self.name!r}; expected one of {SWEEP_AXES}"
            )
        if not all(map(math.isfinite, (self.start, self.stop, self.step))):
            raise ValueError(f"axis {self.name} bounds must be finite")
        if self.step <= 0:
            raise ValueError(f"axis {self.name} step must be strictly positive")
        if self.start > self.stop:
            raise ValueError(f"empty grid: axis {self.name} has start > stop")
        # The first test keeps the span finite, so ``n_values`` is an integer.
        if (not (self.stop - self.start) / self.step < MAX_GRID_CELLS
                or self.n_values > MAX_GRID_CELLS):
            raise ValueError(
                f"axis {self.name} has more than {MAX_GRID_CELLS} values")

    @property
    def n_values(self) -> int:
        """``len(self.values())``, without building the list."""
        return int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1

    def values(self) -> list[float]:
        return [self.start + i * self.step for i in range(self.n_values)]


@_checked
class SweepSpec(NamedTuple):
    """A base edge/cloud scenario pair plus the axes to vary."""

    base_edge: ConnectionlessScenario
    base_cloud: ConnectionlessScenario
    axes: tuple[SweepAxis, ...]

    def _check(self) -> None:
        if len(self.axes) == 0:
            raise ValueError("empty grid: no sweep axes given")
        cells = math.prod(axis.n_values for axis in self.axes)
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid has {cells} cells, more than {MAX_GRID_CELLS}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")
        if self.base_edge.workload() != self.base_cloud.workload():
            raise ValueError("base scenarios must differ only in rtt")


class SweepCell(NamedTuple):
    """One grid point: both placements' energies, or an overrun marker.

    ``edge`` and ``cloud`` hold the ``EnergyBreakdown`` fields in order,
    the six per-phase parts (mJ) followed by their total; cells that share
    an edge scenario share its tuple.  An error cell holds only ``values``
    and ``error``.
    """

    values: tuple[float, ...]
    edge: tuple[float, ...] | None
    cloud: tuple[float, ...] | None
    rho: float | None
    delta_rtt: float | None  # cloud RTT minus edge RTT, ms
    error: str | None = None

    @property
    def result(self) -> ComparisonResult | None:
        """The cell as :func:`ltenergy.analytic.compare` returns it."""
        if self.error is not None:
            return None
        return ComparisonResult(EnergyBreakdown(*self.edge),
                                EnergyBreakdown(*self.cloud),
                                self.rho, self.delta_rtt)


class SweepResult(NamedTuple):
    """Dense grid of comparison results, row-major in axis order."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    @property
    def columns(self) -> list[str]:
        axis_names = [axis.name for axis in self.spec.axes]
        return axis_names + [
            "rho", "e_i_edge_mj", "e_i_cloud_mj", "delta_rtt_ms", "error",
        ]

    def rows(self) -> list[list[str]]:
        """CSV rows in :attr:`columns` order; numbers follow ``_fmt``."""
        texts = [{v: fmt_axis(v) for v in a.values()} for a in self.spec.axes]
        out = []
        for values, edge, cloud, rho, delta_rtt, error in self.cells:
            row = [*map(dict.__getitem__, texts, values)]
            if error is not None:
                row += ["", "", "", "", error]
            else:
                row += [f"{rho:.3f}", f"{edge[-1]:.1f}", f"{cloud[-1]:.1f}",
                        f"{delta_rtt:.3f}", ""]
            out.append(row)
        return out

    def json_text(self) -> str:
        """``json.dumps(self.to_json_obj(), indent=2)``, from one template
        of the indent-2 layout per cell.  Its numbers are the ``repr`` of the
        values ``to_json_obj`` holds, all finite, which is what ``json``
        writes for them; each distinct axis value is rendered once."""
        texts = [{v: f"      {json.dumps(a.name)}: {_round6(v)!r},\n"
                  for v in a.values()} for a in self.spec.axes]
        cells = []
        for values, edge, cloud, rho, delta_rtt, error in self.cells:
            head = "".join(map(dict.__getitem__, texts, values))
            if error is not None:
                cells.append(f'    {{\n{head}      "error": '
                             f'{json.dumps(error)}\n    }}')
            else:
                cells.append(
                    f'    {{\n{head}      "rho": {round(rho, 3)!r},\n'
                    f'      "e_i_edge_mj": {round(edge[-1], 1)!r},\n'
                    f'      "e_i_cloud_mj": {round(cloud[-1], 1)!r},\n'
                    f'      "delta_rtt_ms": {_round6(delta_rtt)!r}\n    }}')
        axes = json.dumps({"axes": self._axes_obj()}, indent=2)
        return (axes[:-len("\n}")] + ',\n  "cells": [\n'
                + ",\n".join(cells) + "\n  ]\n}")

    def _axes_obj(self) -> list[dict]:
        return [{k: v if k == "name" else _round6(v)
                 for k, v in a._asdict().items()} for a in self.spec.axes]

    def to_json_obj(self) -> dict:
        """The JSON artifact as plain data: what :meth:`json_text` renders.
        Kept for the tests and ``bench/spans.py``, its only callers."""
        columns = self.columns
        cells = []
        for cell in self.cells:
            entry: dict = {
                name: _round6(value)
                for name, value in zip(columns, cell.values)
            }
            if cell.error is not None:
                entry["error"] = cell.error
            else:
                entry["rho"] = round(cell.rho, 3)
                entry["e_i_edge_mj"] = round(cell.edge[-1], 1)
                entry["e_i_cloud_mj"] = round(cell.cloud[-1], 1)
                entry["delta_rtt_ms"] = _round6(cell.delta_rtt)
            cells.append(entry)
        return {"axes": self._axes_obj(), "cells": cells}


def _round6(x: float) -> float | int:
    return int(x) if float(x).is_integer() else round(x, 6)


def _scenario_fields(base: ConnectionlessScenario, names: Sequence[str],
                     values: Sequence[float]) -> tuple[float, ...]:
    """``(t_i, t_elab, rtt, b_tx, b_rx)`` of ``base`` with the named axes
    set: ``rtt_cloud`` sets ``rtt`` and ``payload`` both byte counts."""
    t_i, t_elab, rtt, b_tx, b_rx, _, _ = base
    for name, value in zip(names, values):
        if name == "t_i":
            t_i = value
        elif name == "t_elab":
            t_elab = value
        elif name == "rtt_cloud":
            rtt = value
        else:
            b_tx = b_rx = value
    return t_i, t_elab, rtt, b_tx, b_rx


def _cycle(t_tx: float, t_w: float, t_rx: float, t_i: float,
           profile: PowerProfile
           ) -> tuple[tuple[float, ...] | None, str | None]:
    """``(energy_parts, None)`` of one cycle, or ``(None, diagnostic)``
    when its phases overrun the period."""
    try:
        timing = quiet_time(t_tx, t_w, t_rx, t_i, profile)
    except PeriodOverrunError as exc:
        return None, str(exc)
    return energy_parts(t_tx, t_w, t_rx, *timing, profile), None


def run_sweep(spec: SweepSpec, profile: PowerProfile) -> SweepResult:
    """Evaluate the placement comparison at every grid point.

    Every cell equals :func:`ltenergy.analytic.compare` on the grid point's
    edge and cloud scenarios, and an axis value those scenarios would
    reject raises the same ``ValueError`` before any cell is priced.  A
    period overrun becomes an error cell carrying the diagnostic, the
    edge's when both placements overrun.  An energy or ratio that
    overflows a float raises ``ValueError`` as ``compare`` does.
    """
    names = [axis.name for axis in spec.axes]
    grids = [axis.values() for axis in spec.axes]
    base = spec.base_cloud
    # The scenario checks are per field, so checking every axis value once
    # against the base covers every cell the loop below prices as floats.
    for name, grid in zip(names, grids):
        for value in grid:
            ConnectionlessScenario(*_scenario_fields(base, (name,), (value,)),
                                   base.uplink_bps, base.downlink_bps)

    rtt_edge = spec.base_edge.rtt
    edges: dict[tuple[float, ...], tuple] = {}
    cells = []
    for values in itertools.product(*grids):
        t_i, t_elab, rtt, b_tx, b_rx = _scenario_fields(base, names, values)
        key = (t_i, t_elab, b_tx, b_rx)
        edge = edges.get(key)
        if edge is None:
            t_tx = transfer_time(b_tx, base.uplink_bps)
            t_rx = transfer_time(b_rx, base.downlink_bps)
            priced = _cycle(t_tx, t_elab + rtt_edge, t_rx, t_i, profile)
            edge = edges[key] = (t_tx, t_rx, *priced)
        t_tx, t_rx, edge_mj, error = edge
        if error is None:
            cloud_mj, error = _cycle(t_tx, t_elab + rtt, t_rx, t_i, profile)
        if error is None:
            cells.append(SweepCell(
                values, edge_mj, cloud_mj,
                energy_ratio(edge_mj[-1], cloud_mj[-1]), rtt - rtt_edge))
        else:
            cells.append(SweepCell(values, None, None, None, None, error))
    return SweepResult(spec=spec, cells=tuple(cells))


def per_cycle_payload(hourly_bytes: float, t_i: float) -> int:
    """Bytes each request must carry so that ``hourly_bytes`` leave per hour.

    ``hourly_bytes * t_i / 3_600_000`` rounded to the nearest byte (halves
    away from zero).
    """
    if t_i <= 0:
        raise ValueError("t_i must be strictly positive")
    payload = hourly_bytes * t_i / MS_PER_HOUR
    if not math.isfinite(payload):
        raise ValueError(f"hourly_bytes {hourly_bytes!r} at t_i {t_i!r} ms "
                         "gives a per-cycle payload that is not finite")
    return int(math.floor(payload + 0.5))


@_checked
class CostSpec(NamedTuple):
    """Configuration of a batching-cost evaluation.

    ``alpha`` weighs energy against delay; ``hourly_bytes`` is the data the
    node produces per hour; the reply is a short confirmation.
    """

    alpha: float
    hourly_bytes: float
    rtt: float
    t_i_grid: tuple[float, ...]
    reply_bytes: float = 1.0

    def _check(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("hourly_bytes", "rtt", "reply_bytes"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.hourly_bytes <= 0:
            raise ValueError("hourly_bytes must be strictly positive")
        for name in ("rtt", "reply_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if len(self.t_i_grid) == 0:
            raise ValueError("empty grid: no period values given")
        if not all(0 < t < math.inf for t in self.t_i_grid):
            raise ValueError(
                "grid periods must be finite and strictly positive")


class CostPoint(NamedTuple):
    """Cost evaluation at one period."""

    t_i: float  # ms
    e_total: float  # energy per hour, mJ
    d: float  # delay component (the period itself), ms
    c: float  # normalised combined cost


class CostCurve(NamedTuple):
    points: tuple[CostPoint, ...]
    argmin_t_i: float
    e_max: float
    d_max: float


def cost_curve(spec: CostSpec, profile: PowerProfile) -> CostCurve:
    """Evaluate the batching cost over the period grid and find its argmin.

    Hourly energy multiplies one cycle's energy by the (possibly
    fractional) number of cycles per hour; no partial final cycle is
    modelled.  A period too short for its own payload raises, as does an
    hourly energy that overflows a float.
    """
    t_rx = transfer_time(spec.reply_bytes, DEFAULT_DOWNLINK_BPS)
    energies = []
    for t_i in spec.t_i_grid:
        t_tx = transfer_time(per_cycle_payload(spec.hourly_bytes, t_i),
                             DEFAULT_UPLINK_BPS)
        timing = quiet_time(t_tx, spec.rtt, t_rx, t_i, profile)
        e_cycle = energy_parts(t_tx, spec.rtt, t_rx, *timing, profile)[-1]
        energies.append(e_cycle * (MS_PER_HOUR / t_i))

    if not all(e < math.inf for e in energies):  # nan fails too
        raise ValueError("hourly energy overflows a float")
    e_max = max(energies)
    d_max = max(spec.t_i_grid)
    points = tuple(
        CostPoint(
            t_i=t_i,
            e_total=e,
            d=t_i,
            c=spec.alpha * e / e_max + (1.0 - spec.alpha) * t_i / d_max,
        )
        for t_i, e in zip(spec.t_i_grid, energies)
    )
    best = min(points, key=lambda p: (p.c, p.t_i))
    return CostCurve(points=points, argmin_t_i=best.t_i,
                     e_max=e_max, d_max=d_max)
