"""Parameter sweeps over placement scenarios and batching-cost curves.

``sweep_rows`` is the one sweep kernel: a generator of the rows of a
dense grid of scenario parameters, one dimension per swept axis.  It
checks each axis value once, binds :func:`ltenergy.analytic.cycle_pricer`
once and prices each row with two ``price.row`` calls, its edge, then its
clouds; an edge that overruns or overflows prices no cloud.  With
``rtt_cloud`` innermost, as in the paper's figures, a row is the cloud RTT
axis, whose waits are priced once per ``t_elab``; any other axis order
makes each cell a row of one.  ``csv_rows`` and ``json_text`` render a
stream of rows, one string per row, and ``sweep_cells`` flattens it into
cells, each equal to :func:`ltenergy.analytic.compare`; a cycle that
overruns its period is an error cell, and an energy or ratio that
overflows a float ends the stream at its cell.  The CLI feeds the rows
straight into a renderer; ``run_sweep`` collects the cells.

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
from ._fmt import csv_line, fmt_axis, fmt_mj, fmt_ms, fmt_rho
from .power_model import PowerProfile, _check_finite, _checked, _number

__all__ = [
    "SWEEP_AXES",
    "MAX_GRID_CELLS",
    "SweepAxis",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "sweep_rows",
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
    the six per-phase parts (mJ) followed by their total; the cells of one
    sweep row share its edge tuple.  An error cell holds only ``values``
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
        """The CSV lines that :func:`csv_rows` writes, cell by cell: kept, as
        :meth:`to_json_obj` is, for the tests and ``bench/spans.py``."""
        return [csv_line([*map(fmt_axis, c.values), *(
            ("", "", "", "", c.error) if c.error is not None else
            (fmt_rho(c.rho), fmt_mj(c.edge[-1]), fmt_mj(c.cloud[-1]),
             fmt_ms(c.delta_rtt), ""))]) for c in self.cells]

    def to_json_obj(self) -> dict:
        """The JSON artifact as plain data: what :func:`json_text` renders.
        Kept for the tests and ``bench/spans.py``, its only callers."""
        names = self.spec.columns
        return {"axes": _axes_obj(self.spec), "cells": [
            {**{name: _round6(v) for name, v in zip(names, c.values)}, **(
                {"error": c.error} if c.error is not None else
                {"rho": round(c.rho, 3), "e_i_edge_mj": round(c.edge[-1], 1),
                 "e_i_cloud_mj": round(c.cloud[-1], 1),
                 "delta_rtt_ms": _round6(c.delta_rtt)})}
            for c in self.cells]}


def csv_rows(spec: SweepSpec, rows: Iterable[tuple]) -> Iterator[str]:
    """The CSV lines of the rows of :func:`sweep_rows` as :func:`csv_line`
    writes them, one string per row; numbers follow ``_fmt``.  A run of
    priced cells maps one ``str.format``, bound to its head and edge."""
    for head, tails, deltas, edge, runs in _texts(
            spec, rows, lambda name, v: fmt_axis(v) + ",", "{:.3f},\n".format):
        if isinstance(edge, tuple):
            line = f"{head}{{}}{{:.3f}},{edge[-1]:.1f},{{:.1f}},{{}}".format
        yield "".join(
            f"{head}{tails[a]},,,,{csv_line([error])}" if error else
            "".join(map(line, tails[a:b], rhos, e_clouds, deltas[a:b]))
            for a, b, rhos, e_clouds, error in runs)


def json_text(spec: SweepSpec, rows: Iterable[tuple]) -> str:
    """``json.dumps(to_json_obj(), indent=2)`` of the rows of
    :func:`sweep_rows`, one template of the indent-2 layout per cell, whose
    numbers are the ``repr`` that ``json`` writes of each value held."""
    parts = []
    for head, tails, deltas, edge, runs in _texts(
            spec, rows, lambda name, v: f"      {json.dumps(name)}: "
                                        f"{_round6(v)!r},\n",
            lambda d: f',\n      "delta_rtt_ms": {_round6(d)!r}\n    }}'):
        if isinstance(edge, tuple):
            e_edge = (f',\n      "e_i_edge_mj": {round(edge[-1], 1)!r},\n'
                      '      "e_i_cloud_mj": ')
        parts.append(",\n".join(
            f'    {{\n{head}{tails[a]}      "error": {json.dumps(error)}\n'
            '    }' if error else ",\n".join([
                f'    {{\n{head}{tail}      "rho": {round(rho, 3)!r}{e_edge}'
                f'{round(e, 1)!r}{d}' for tail, rho, e, d in zip(
                    tails[a:b], rhos, e_clouds, deltas[a:b])])
            for a, b, rhos, e_clouds, error in runs))
    axes = json.dumps({"axes": _axes_obj(spec)}, indent=2)
    return (axes[:-len("\n}")] + ',\n  "cells": [\n'
            + ",\n".join(parts) + "\n  ]\n}")


def _texts(spec: SweepSpec, rows: Iterable[tuple], axis_text: Callable,
           delta_text: Callable) -> Iterator[tuple]:
    """Each row as ``(head, tails, deltas, edge, runs)``: the texts of its
    head, tails and deltas, the latter two built once per distinct list."""
    texts = [{v: axis_text(a.name, v) for v in a.values()} for a in spec.axes]
    last = None, None
    for head, tails, edge, clouds, deltas in rows:
        if tails is not last[0]:
            tail_texts = [*map(texts[-1].__getitem__, tails)]
        if deltas is not last[1]:
            delta_texts = [*map(delta_text, deltas)]
        last = tails, deltas
        yield ("".join(map(dict.__getitem__, texts, head)), tail_texts,
               delta_texts, edge, _runs(edge, clouds))


def _runs(edge: tuple | ValueError, clouds: list) -> Iterator[tuple]:
    """A row's cells as runs ``(start, stop, ratios, cloud energies, None)``
    of priced cells, one ratio check per run, and ``(k, k + 1, None, None,
    message)`` of overrun cells, in order, up to a bad cell, which raises."""
    stops = [k for k, cloud in enumerate(clouds)
             if not isinstance(cloud, tuple)] + [len(clouds)]
    start = 0
    for stop in stops:
        if start < stop:
            e_clouds = [cloud[-1] for cloud in clouds[start:stop]]
            rhos = [edge[-1] / e if e else math.inf for e in e_clouds]
            if not max(rhos) < math.inf:
                for e in e_clouds:  # raises at the first bad ratio
                    energy_ratio(edge[-1], e)
            yield start, stop, rhos, e_clouds, None
        if stop < len(clouds):
            if not isinstance(clouds[stop], PeriodOverrunError):
                raise clouds[stop]
            yield stop, stop + 1, None, None, str(clouds[stop])
        start = stop + 1


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


def sweep_rows(spec: SweepSpec, profile: PowerProfile) -> Iterator[tuple]:
    """The grid's rows, row-major, as ``(head, tails, edge, clouds,
    deltas)``: a cell per tail, valued ``head + (tail,)``, with the shared
    ``edge`` and the cloud and ``delta_rtt`` at the tail's index.  A row's
    edge is priced first and its clouds in one ``price.row`` call after it,
    only if the edge is a cycle: an edge's error fills its every cloud.
    A row is the ``rtt_cloud`` axis when innermost, else one cell.  An axis
    value that the scenarios reject raises before any row is priced."""
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
    rtts = grids.pop() if names[-1] == "rtt_cloud" else None
    pick, fields = _field_picker(base, names[:len(grids)])
    wait_key = None
    for outer in itertools.product(*grids):
        t_i, t_elab, rtt, b_tx, b_rx = pick(outer + fields)
        if (t_elab, rtt) != wait_key:  # only the last waits are kept
            wait_key, cloud_rtts = (t_elab, rtt), rtts or (rtt,)
            edge_wait, *waits = price.waits(
                [t_elab + r for r in (rtt_edge, *cloud_rtts)])
            deltas = [r - rtt_edge for r in cloud_rtts]
        t_tx = transfer_time(b_tx, base.uplink_bps)
        t_rx = transfer_time(b_rx, base.downlink_bps)
        edge, = price.row(t_tx, (edge_wait,), t_rx, t_i)
        clouds = (price.row(t_tx, waits, t_rx, t_i) if isinstance(edge, tuple)
                  else [edge] * len(deltas))
        yield ((outer, rtts, edge, clouds, deltas) if rtts else
               (outer[:-1], outer[-1:], edge, clouds, deltas))


def sweep_cells(spec: SweepSpec, profile: PowerProfile) -> Iterator[tuple]:
    """The cells of the rows of :func:`sweep_rows`, each a plain tuple in
    :class:`SweepCell` field order.  Every cell equals
    :func:`ltenergy.analytic.compare` at its grid point, an overrun is an
    error cell, the edge's when both overrun, and an energy or ratio that
    overflows a float raises ``ValueError`` at its cell."""
    for head, tails, edge, clouds, deltas in sweep_rows(spec, profile):
        parts = edge[3:] if isinstance(edge, tuple) else None  # shared
        for a, b, rhos, _, error in _runs(edge, clouds):
            if error:
                yield head + (tails[a],), None, None, None, None, error
                continue
            for tail, cloud, rho, delta in zip(tails[a:b], clouds[a:b], rhos,
                                               deltas[a:b]):
                yield head + (tail,), parts, cloud[3:], rho, delta, None


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
