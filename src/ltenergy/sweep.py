"""Parameter sweeps over placement scenarios and batching-cost curves.

``sweep_cells`` is the one sweep kernel: a generator of the edge/cloud
energy ratio at each point of a dense grid of scenario parameters, one
dimension per swept axis.  It binds the per-cycle core of
:func:`ltenergy.analytic.cycle_pricer` once per sweep and prices plain
floats through it, so every cell equals :func:`ltenergy.analytic.compare`;
scenario checks run once per axis value, a cycle that overruns its period
is an error cell, and an overflowing energy aborts the stream.  With
``rtt_cloud`` innermost, as in the paper's figures, each row prices its
shared edge once and its cloud waits in one ``price.row`` call; other axis
orders price cell by cell, the edge again whenever a field other than the
cloud RTT changes.  Only the last edge and the wait energies of one
``t_elab`` are kept, so the caches grow with the axes, not the cells.  Two
renderers turn any stream of cells into an artifact, ``csv_rows`` as CSV
text lines and ``json_text`` as the indent-2 JSON layout, each formatting a
row's invariants (outer axis texts, ``delta_rtt``, a shared edge's ``e_i``)
once, not per cell.  The CLI feeds the stream straight into them;
``run_sweep`` collects it.

``cost_curve`` trades energy against data freshness for a node that
produces a fixed amount of data per hour: batching more data per request
(a larger period) amortises the radio's quiet-time tail energy but delays
the data.  The combined cost ``c = alpha * E/E_max + (1-alpha) * D/D_max``,
whose delay ``D`` is the period, is normalised by the maxima over the
evaluated grid; each period is priced once, whatever the alphas.

The value types are checked tuples (see :mod:`ltenergy.power_model`), so a
spec compares equal to a plain tuple of its fields.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .analytic import (
    ComparisonResult,
    ConnectionlessScenario,
    EnergyBreakdown,
    PeriodOverrunError,
    DEFAULT_DOWNLINK_BPS,
    DEFAULT_UPLINK_BPS,
    compare,  # noqa: F401  bench/spans.py times ltenergy.sweep.compare
    cycle_pricer,
    energy_ratio,
    transfer_time,
)
from ._fmt import csv_line, fmt_axis
from .power_model import PowerProfile, _check_finite, _checked, _number

__all__ = [
    "SWEEP_AXES",
    "MAX_GRID_CELLS",
    "SweepAxis",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "sweep_cells",
    "run_sweep",
    "per_cycle_payload",
    "CostSpec",
    "CostPoint",
    "CostCurve",
    "cost_curve",
]

# Scenario parameters a sweep may vary, each with the fields of ``(t_i,
# t_elab, rtt, b_tx, b_rx)`` that it sets: "payload" sets both byte counts.
_AXIS_FIELDS = {"t_i": (0,), "rtt_cloud": (2,), "payload": (3, 4),
                "t_elab": (1,)}
SWEEP_AXES = tuple(_AXIS_FIELDS)

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
        if not all(math.isfinite(_number(value, f"axis {self.name} {name}"))
                   for name, value in zip(self._fields[1:], self[1:])):
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
    """The edge's base scenario, the cloud's RTT and the axes to vary.

    The cloud placement is the base scenario with ``rtt_cloud`` as its RTT,
    the one field in which the two placements differ.
    """

    base: ConnectionlessScenario
    rtt_cloud: float
    axes: tuple[SweepAxis, ...]

    def _check(self) -> None:
        _check_finite("rtt_cloud", self.rtt_cloud)
        if self.rtt_cloud < 0:
            raise ValueError("rtt_cloud must be non-negative")
        if len(self.axes) == 0:
            raise ValueError("empty grid: no sweep axes given")
        cells = math.prod(axis.n_values for axis in self.axes)
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid has {cells} cells, more than {MAX_GRID_CELLS}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("sweep axes must be distinct")

    @property
    def columns(self) -> list[str]:
        """The artifact's columns: the swept axes, then the comparison."""
        return [axis.name for axis in self.axes] + [
            "rho", "e_i_edge_mj", "e_i_cloud_mj", "delta_rtt_ms", "error"]


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

    def rows(self) -> list[str]:
        """The :func:`csv_rows` lines of the cells, collected."""
        return list(csv_rows(self.spec, self.cells))

    def to_json_obj(self) -> dict:
        """The JSON artifact as plain data: what :func:`json_text` renders.
        Kept for the tests and ``bench/spans.py``, its only callers."""
        columns = self.spec.columns
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
        return {"axes": _axes_obj(self.spec), "cells": cells}


def csv_rows(spec: SweepSpec, cells: Iterable[tuple]) -> Iterator[str]:
    """One CSV line per cell, in ``spec.columns`` order, as :func:`csv_line`
    writes it; numbers follow ``_fmt``.  Axis values, ``delta_rtt`` values,
    a row's outer axis texts and a shared edge's ``e_i`` are formatted once,
    not per cell."""
    texts = [{v: fmt_axis(v) for v in a.values()} for a in spec.axes]
    deltas, last_edge, outer = {}, None, None
    for values, edge, cloud, rho, delta_rtt, error in cells:
        if error is not None:
            yield csv_line([*map(dict.__getitem__, texts, values),
                            "", "", "", "", error])
            continue
        if values[:-1] != outer:
            outer = values[:-1]
            head = "".join(f"{text[v]}," for text, v in zip(texts, outer))
        if edge is not last_edge:
            last_edge, edge_text = edge, f"{edge[-1]:.1f}"
        if delta_rtt not in deltas:
            deltas[delta_rtt] = f"{delta_rtt:.3f},\n"
        yield (f"{head}{texts[-1][values[-1]]},{rho:.3f},{edge_text},"
               f"{cloud[-1]:.1f},{deltas[delta_rtt]}")


def json_text(spec: SweepSpec, cells: Iterable[tuple]) -> str:
    """``json.dumps(to_json_obj(), indent=2)`` of the cells, from one
    template of the indent-2 layout per cell.  Its numbers are the ``repr``
    of the values ``to_json_obj`` holds, all finite, which is what ``json``
    writes for them; row invariants are rendered once, as by ``csv_rows``."""
    texts = [{v: f"      {json.dumps(a.name)}: {_round6(v)!r},\n"
              for v in a.values()} for a in spec.axes]
    parts, deltas, last_edge, outer = [], {}, None, None
    for values, edge, cloud, rho, delta_rtt, error in cells:
        if values[:-1] != outer:
            outer = values[:-1]
            head = "    {\n" + "".join(map(dict.__getitem__, texts, outer))
        if error is not None:
            parts.append(f'{head}{texts[-1][values[-1]]}      "error": '
                         f'{json.dumps(error)}\n    }}')
            continue
        if edge is not last_edge:
            last_edge, edge_text = edge, (
                f'      "e_i_edge_mj": {round(edge[-1], 1)!r},\n'
                f'      "e_i_cloud_mj": ')
        if delta_rtt not in deltas:
            deltas[delta_rtt] = (f',\n      "delta_rtt_ms": '
                                 f'{_round6(delta_rtt)!r}\n    }}')
        parts.append(f'{head}{texts[-1][values[-1]]}      "rho": '
                     f'{round(rho, 3)!r},\n{edge_text}{round(cloud[-1], 1)!r}'
                     f'{deltas[delta_rtt]}')
    axes = json.dumps({"axes": _axes_obj(spec)}, indent=2)
    return (axes[:-len("\n}")] + ',\n  "cells": [\n'
            + ",\n".join(parts) + "\n  ]\n}")


def _axes_obj(spec: SweepSpec) -> list[dict]:
    return [{k: v if k == "name" else _round6(v)
             for k, v in a._asdict().items()} for a in spec.axes]


def _round6(x: float) -> float | int:
    return int(x) if float(x).is_integer() else round(x, 6)


def _field_picker(base: ConnectionlessScenario, names: Sequence[str]
                     ) -> tuple[Callable, tuple[float, ...]]:
    """``(pick, fields)``: ``pick(values + fields)`` is ``(t_i, t_elab,
    rtt, b_tx, b_rx)`` of ``base`` with the named axes set to ``values``."""
    picks = list(range(len(names), len(names) + 5))
    for i, name in enumerate(names):
        for field in _AXIS_FIELDS[name]:
            picks[field] = i
    return operator.itemgetter(*picks), tuple(base[:5])


def sweep_cells(spec: SweepSpec, profile: PowerProfile) -> Iterator[tuple]:
    """Each grid point's cell, row-major in axis order, as a plain tuple
    in :class:`SweepCell` field order.

    Every cell equals :func:`ltenergy.analytic.compare` on the grid point's
    edge and cloud scenarios, and an axis value those scenarios would
    reject raises the same ``ValueError`` before any cell is priced.  A
    period overrun becomes an error cell carrying the diagnostic, the
    edge's when both placements overrun.  An energy or ratio that overflows
    a float raises ``ValueError`` at its cell, as ``compare`` does.
    """
    names = [axis.name for axis in spec.axes]
    grids = [axis.values() for axis in spec.axes]
    base = spec.base._replace(rtt=spec.rtt_cloud + 0.0)  # -0.0 as 0.0
    # The scenario checks are per field, so checking every axis value once
    # against the base covers every cell the loop below prices as floats.
    for name, grid in zip(names, grids):
        pick, fields = _field_picker(base, (name,))
        for value in grid:
            ConnectionlessScenario(*pick((value, *fields)),
                                   base.uplink_bps, base.downlink_bps)

    price = cycle_pricer(profile)
    rtt_edge = spec.base.rtt
    rtts = grids.pop() if names[-1] == "rtt_cloud" else []
    tails = [(rtt,) for rtt in rtts]  # each cell's last axis value
    deltas = [rtt - rtt_edge for rtt in rtts]
    pick, fields = _field_picker(base, names[:len(grids)])
    edge_key = None
    for outer in itertools.product(*grids):
        t_i, t_elab, rtt, b_tx, b_rx = pick(outer + fields)
        key = t_i, t_elab, b_tx, b_rx
        if key != edge_key:
            # Only the last edge is kept, and only the waits of one t_elab.
            if edge_key is None or t_elab != edge_key[1]:
                price.cache_clear()
                t_ws = rtts and [t_elab + rtt for rtt in rtts]
            edge_key = key
            t_tx = transfer_time(b_tx, base.uplink_bps)
            t_rx = transfer_time(b_rx, base.downlink_bps)
            edge = error = None
            try:
                edge = price(t_tx, t_elab + rtt_edge, t_rx, t_i)[3:]
            except PeriodOverrunError as exc:
                error = exc
        if rtts:
            clouds = (price.row(t_tx, t_ws, t_rx, t_i) if error is None
                      else itertools.repeat(error))
            for tail, delta, cloud in zip(tails, deltas, clouds):
                if isinstance(cloud, PeriodOverrunError):
                    yield outer + tail, None, None, None, None, str(cloud)
                else:
                    cloud = cloud[3:]
                    yield (outer + tail, edge, cloud,
                           energy_ratio(edge[-1], cloud[-1]), delta, None)
            continue
        if error is not None:
            yield outer, None, None, None, None, str(error)
            continue
        try:
            cloud = price(t_tx, t_elab + rtt, t_rx, t_i)[3:]
        except PeriodOverrunError as exc:
            yield outer, None, None, None, None, str(exc)
            continue
        yield (outer, edge, cloud, energy_ratio(edge[-1], cloud[-1]),
               rtt - rtt_edge, None)


def run_sweep(spec: SweepSpec, profile: PowerProfile) -> SweepResult:
    """The cells of :func:`sweep_cells`, collected."""
    return SweepResult(spec, tuple(map(SweepCell._make,
                                       sweep_cells(spec, profile))))


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

    Each of ``alphas`` weighs energy against delay, in the given order,
    duplicates kept; ``hourly_bytes`` is the data the node produces per
    hour; ``periods`` is the grid of periods (ms), whose values are built
    only by :func:`cost_curve`; the reply is a short confirmation.
    """

    alphas: tuple[float, ...]
    hourly_bytes: float
    rtt: float
    periods: SweepAxis
    reply_bytes: float = 1.0

    def _check(self) -> None:
        if len(self.alphas) == 0:
            raise ValueError("alphas must be a non-empty list of numbers")
        if not all(0.0 <= alpha <= 1.0 for alpha in self.alphas):
            raise ValueError("alpha must lie in [0, 1]")
        for name in ("hourly_bytes", "rtt", "reply_bytes"):
            _check_finite(name, getattr(self, name))
        if self.hourly_bytes <= 0:
            raise ValueError("hourly_bytes must be strictly positive")
        for name in ("rtt", "reply_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        # The axis is finite and ascending: a positive start is enough.
        if self.periods.start <= 0:
            raise ValueError("grid periods must be strictly positive")
        points = len(self.alphas) * self.periods.n_values
        if points > MAX_GRID_CELLS:
            raise ValueError(
                f"cost has {points} points, more than {MAX_GRID_CELLS}")


class CostPoint(NamedTuple):
    """Cost of one alpha at one period, which is also the delay (ms)."""

    alpha: float
    t_i: float  # ms
    e_total: float  # energy per hour, mJ
    c: float  # normalised combined cost


class CostCurve(NamedTuple):
    """The cost of each alpha over the period grid.  ``points`` holds one
    point per alpha and period, alpha-major in the spec's orders, and
    ``argmin_t_i`` the least-cost period of each alpha."""

    points: tuple[CostPoint, ...]
    argmin_t_i: tuple[float, ...]
    e_max: float
    d_max: float


def cost_curve(spec: CostSpec, profile: PowerProfile) -> CostCurve:
    """Evaluate the batching cost of each alpha over the period grid and
    find each argmin; every period is priced once, whatever the alphas.

    Hourly energy multiplies one cycle's energy by the (possibly
    fractional) number of cycles per hour; no partial final cycle is
    modelled.  A period too short for its own payload raises, as does an
    hourly energy that overflows a float.
    """
    price = cycle_pricer(profile)
    t_rx = transfer_time(spec.reply_bytes, DEFAULT_DOWNLINK_BPS)
    periods = spec.periods.values()
    energies = []
    for t_i in periods:
        t_tx = transfer_time(per_cycle_payload(spec.hourly_bytes, t_i),
                             DEFAULT_UPLINK_BPS)
        e_cycle = price(t_tx, spec.rtt, t_rx, t_i)[-1]
        energies.append(e_cycle * (MS_PER_HOUR / t_i))

    if not all(e < math.inf for e in energies):  # nan fails too
        raise ValueError("hourly energy overflows a float")
    e_max = max(energies)
    d_max = max(periods)
    points: list[CostPoint] = []
    argmins = []
    for alpha in spec.alphas:
        curve = [CostPoint(alpha, t_i, e,
                           alpha * e / e_max + (1.0 - alpha) * t_i / d_max)
                 for t_i, e in zip(periods, energies)]
        argmins.append(min(curve, key=lambda p: (p.c, p.t_i)).t_i)
        points += curve
    return CostCurve(points=tuple(points), argmin_t_i=tuple(argmins),
                     e_max=e_max, d_max=d_max)
