"""Parameter sweeps over placement scenarios and batching-cost curves.

``sweep_rows`` is the one sweep kernel: a generator of the rows of a dense
grid of scenario parameters, one dimension per swept axis.  A row is a run
of at most ``ROW_CELLS`` values of the innermost axis, whatever its name: a
cloud per cell, and an edge and a delta per cell or one that all share.  It
binds :func:`ltenergy.analytic.cycle_pricer` once and prices each row with
two ``price.row`` calls, its edges, then its clouds; an edge that overruns
or overflows prices no cloud.  ``csv_rows`` and ``json_text`` render a
stream of rows as chunks, one per row, that the CLI's ``_write`` alone
collects.  A run's ratios and energies, with the ``n`` decimals that
``_fmt`` gives each, take one ``%`` call; JSON drops up to n - 1 trailing
zeros below 10**(15 - n), where a text of at most 15 significant digits is
the shortest ``repr`` of its nearest double, and else writes
``repr(round(x, n))`` for the run.
``run_sweep`` is the reference that the kernel is held to: it prices each
grid point with :func:`ltenergy.analytic.compare`, none of it as
``sweep_rows`` does.

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
    PeriodOverrunError,
    DEFAULT_DOWNLINK_BPS,
    DEFAULT_UPLINK_BPS,
    compare,
    cycle_pricer,
    energy_ratio,
    transfer_time,
)
from ._fmt import (MJ, MS, RHO, csv_line, fixed, fixed_texts, fmt_axis,
                   trimmed)
from .power_model import PowerProfile, _check_finite, _checked, _number

__all__ = [
    "SWEEP_AXES",
    "MAX_GRID_CELLS",
    "ROW_CELLS",
    "SweepAxis",
    "SweepSpec",
    "SweepCell",
    "SweepResult",
    "sweep_rows",
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

# Most cells a grid may have, checked before any grid value is built: 4x the
# north-star grid's 498,486, whose CLI run peaks at 92.6 MB JSON, 33.3 MB CSV.
MAX_GRID_CELLS = 2_000_000
# Most cells of a sweep row, which holds its cells' cycles and texts at once:
# rows of 512 keep a drained 10^4-value t_elab axis within 1 MiB, and rows
# of 500 or fewer values, as in the figures, whole.
ROW_CELLS = 512


@_checked
class SweepAxis(NamedTuple):
    """One swept parameter with an inclusive arithmetic grid, whose last
    value, ``start + (n_values - 1) * step``, can pass ``stop`` by up to
    1e-9 * ``step`` and can overflow to ``inf``."""

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
    the one field in which the two placements differ.  Every cell is a valid
    scenario, checked by field at each axis's two ends, since an axis ascends.
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
        base = self.base._replace(rtt=self.rtt_cloud)
        for axis in self.axes:
            pick, fields = _field_picker(base, (axis.name,))
            for value in (axis.start,
                          axis.start + (axis.n_values - 1) * axis.step):
                ConnectionlessScenario(*pick((value, *fields)), *base[5:])

    @property
    def columns(self) -> list[str]:
        """The artifact's columns: the swept axes, then the comparison."""
        return [axis.name for axis in self.axes] + [
            "rho", "e_i_edge_mj", "e_i_cloud_mj", "delta_rtt_ms", "error"]


class SweepCell(NamedTuple):
    """One grid point: what :func:`ltenergy.analytic.compare` returns
    there, or, with ``result`` ``None``, the message of its overrun."""

    values: tuple[float, ...]
    result: ComparisonResult | None
    error: str | None = None


class SweepResult(NamedTuple):
    """The cells of :func:`run_sweep`, row-major in axis order."""

    spec: SweepSpec
    cells: tuple[SweepCell, ...]

    def rows(self) -> list[str]:
        """The CSV lines that :func:`csv_rows` writes, cell by cell: kept, as
        :meth:`to_json_obj` is, for the tests and ``bench/spans.py``."""
        return [csv_line([*map(fmt_axis, c.values), *(
            ("", "", "", "", c.error) if c.result is None else
            (fixed(c.result.rho, RHO), fixed(c.result.edge.e_i, MJ),
             fixed(c.result.cloud.e_i, MJ), fixed(c.result.delta_rtt, MS),
             ""))])
            for c in self.cells]

    def to_json_obj(self) -> dict:
        """The JSON artifact as plain data: what :func:`json_text` renders.
        Kept for the tests and ``bench/spans.py``, its only callers."""
        names = self.spec.columns
        return {"axes": _axes_obj(self.spec), "cells": [
            {**{name: trimmed(v) for name, v in zip(names, c.values)}, **(
                {"error": c.error} if c.result is None else
                {"rho": round(c.result.rho, RHO),
                 "e_i_edge_mj": round(c.result.edge.e_i, MJ),
                 "e_i_cloud_mj": round(c.result.cloud.e_i, MJ),
                 "delta_rtt_ms": trimmed(c.result.delta_rtt, MS)})}
            for c in self.cells]}


def csv_rows(spec: SweepSpec, rows: Iterable[tuple]) -> Iterator[str]:
    """The CSV lines of the rows of :func:`sweep_rows` as :func:`csv_line`
    writes them, one chunk per row; numbers follow ``_fmt``, a run's
    ratios and energies included, at any size."""
    for head, tails, deltas, runs in _texts(
            spec, rows, lambda name, v: fmt_axis(v) + ",",
            lambda d: fixed(d, MS) + ",\n", False):
        yield "".join(
            f"{head}{tails[a]},,,,{csv_line([error])}" if error else
            "".join([f"{head}{tail}{rho},{edge},{e},{d}"
                     for tail, rho, edge, e, d in zip(
                         tails[a:b], rhos, e_edges, e_clouds, deltas[a:b])])
            for a, b, rhos, e_edges, e_clouds, error in runs)


def json_text(spec: SweepSpec, rows: Iterable[tuple]) -> Iterator[str]:
    """The chunks of ``json.dumps(to_json_obj(), indent=2)`` of the rows of
    :func:`sweep_rows`: the axes head, each row's text after its ``,\\n``
    separator, then the closing brackets.  Each cell fills one template with
    the ``repr`` of each value, a ratio's or energy's from :func:`_runs`."""
    axes = json.dumps({"axes": _axes_obj(spec)}, indent=2)
    yield axes[:-len("\n}")] + ',\n  "cells": [\n'
    separator = ""
    for head, tails, deltas, runs in _texts(  # axis names need no escapes
            spec, rows, lambda name, v: f'      "{name}": {trimmed(v)!r},\n',
            lambda d: f',\n      "delta_rtt_ms": {trimmed(d, MS)!r}\n    }}',
            True):
        yield separator + ",\n".join(
            f'    {{\n{head}{tails[a]}      "error": {json.dumps(error)}\n'
            '    }' if error else ",\n".join([
                f'    {{\n{head}{tail}      "rho": {rho},\n'
                f'      "e_i_edge_mj": {edge},\n'
                f'      "e_i_cloud_mj": {e}{d}'
                for tail, rho, edge, e, d in zip(
                    tails[a:b], rhos, e_edges, e_clouds, deltas[a:b])])
            for a, b, rhos, e_edges, e_clouds, error in runs)
        separator = ",\n"
    yield "\n  ]\n}"


def _texts(spec: SweepSpec, rows: Iterable[tuple], axis_text: Callable,
           delta_text: Callable, as_json: bool) -> Iterator[tuple]:
    """Each row as ``(head, tails, deltas, runs)``: the texts of its head,
    made per row, and of its tails and deltas, made once per distinct list
    and a shared delta's repeated per cell, and its :func:`_runs`."""
    *outer, inner = [axis.name for axis in spec.axes]
    last = None, None
    for head, tails, edges, clouds, deltas in rows:
        if tails is not last[0]:
            tail_texts = [axis_text(inner, v) for v in tails]
        if deltas is not last[1]:
            delta_texts = [*map(delta_text, deltas)]
        last = tails, deltas
        yield ("".join(map(axis_text, outer, head)), tail_texts,
               delta_texts * len(tails) if len(deltas) == 1 else delta_texts,
               _runs(edges, clouds, as_json))


def _runs(edges: Sequence, clouds: Sequence, as_json: bool) -> Iterator[tuple]:
    """A row's cells as runs of priced cells, ``(start, stop, ratio texts,
    edge energy texts, cloud energy texts, None)``, each run with one ratio
    check and one ``fixed_texts`` call per kind of number (JSON's ``repr``
    from 10**(15 - n) up; the one edge of a row that shares it formatted
    once), and ``(k, k + 1, None, None, None, message)`` of overrun cells,
    in order, up to a bad cell, which raises."""
    stops = [k for k, cloud in enumerate(clouds)
             if not isinstance(cloud, tuple)] + [len(clouds)]
    start, shared = 0, len(edges) == 1
    for stop in stops:
        if start < stop:
            e_edges = ([edges[0][-1]] * (stop - start) if shared else
                       [edge[-1] for edge in edges[start:stop]])
            e_clouds = [cloud[-1] for cloud in clouds[start:stop]]
            try:
                rhos = [*map(operator.truediv, e_edges, e_clouds)]
            except ZeroDivisionError:
                rhos = [math.inf]
            if not max(rhos) < math.inf:
                for e, c in zip(e_edges, e_clouds):  # raises at the first
                    energy_ratio(e, c)
            yield (start, stop, fixed_texts(rhos, RHO, as_json),
                   (fixed_texts(e_edges[:1], MJ, as_json) * (stop - start)
                    if shared else fixed_texts(e_edges, MJ, as_json)),
                   fixed_texts(e_clouds, MJ, as_json), None)
        if stop < len(clouds):
            if not isinstance(clouds[stop], PeriodOverrunError):
                raise clouds[stop]
            yield stop, stop + 1, None, None, None, str(clouds[stop])
        start = stop + 1


def _axes_obj(spec: SweepSpec) -> list[dict]:
    return [{k: v if k == "name" else trimmed(v)
             for k, v in a._asdict().items()} for a in spec.axes]


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
    """The grid's rows, row-major, as ``(head, tails, edges, clouds,
    deltas)``: a row is at most ``ROW_CELLS`` consecutive ``tails`` of the
    innermost axis, whatever its name, after the ``head`` of the outer
    axes, and holds a cell per tail, valued ``head + (tail,)``, and a cloud
    per cell; ``edges`` and ``deltas`` (``delta_rtt``) hold one per cell or
    one that all share, the edge with ``rtt_cloud`` innermost, else the
    delta.  Each list is kept, the same object, while the next row repeats
    it.  A row's edges are one ``price.row`` call and its clouds another:
    no cloud whose edge is an error is priced, that error is its cloud."""
    *outer, inner = spec.axes
    base = spec.base._replace(rtt=spec.rtt_cloud + 0.0)  # -0.0 as 0.0
    pick, fields = _field_picker(base, [axis.name for axis in spec.axes])
    price = cycle_pricer(profile)
    up, down, rtt_edge = base.uplink_bps, base.downlink_bps, spec.base.rtt
    n, last = inner.n_values, {}  # per name: its last arguments and value

    def cells(name: str, f: Callable, *args) -> list:
        """``f`` on ``args``, made again only when they change.  Each is a
        list, of one value per cell or of one that all cells share, or a
        float that all share, which ``f``, mapping lists to a list, gets as
        a list as long as the longest argument, or of one."""
        made = last.get(name)
        if made is None or made[0] != args:
            m = max([len(a) for a in args if type(a) is list], default=1)
            made = last[name] = args, f(
                *[a if type(a) is list else [a] * m for a in args])
        return made[1]

    def legs(t_is, b_txs, b_rxs):
        return price.legs([transfer_time(b, up) for b in b_txs],
                          [transfer_time(b, down) for b in b_rxs], t_is)

    def waits(t_elabs, rtts):
        return price.waits(map(operator.add, t_elabs, rtts))

    def delta_row(rtts):
        return [rtt - rtt_edge for rtt in rtts]

    def block(inputs, edges):  # an edge's error for its cloud's input
        return [x if isinstance(edge, tuple) else edge
                for x, edge in zip(inputs, edges)]

    for head in itertools.product(*(axis.values() for axis in outer)):
        for start in range(0, n, ROW_CELLS):
            if last.get("start") != start:
                last["start"], tails = start, [
                    inner.start + k * inner.step
                    for k in range(start, min(start + ROW_CELLS, n))]
            # The inner axis's fields are the list ``tails``, others floats,
            # so each value below is a list of one per cell or of one.
            t_i, t_elab, rtt, b_tx, b_rx = pick(head + (tails,) + fields)
            row_legs = cells("legs", legs, t_i, b_tx, b_rx)
            edges = cells("edges", price.row, row_legs,
                          cells("edge waits", waits, t_elab, rtt_edge))
            row_waits = cells("waits", waits, t_elab, rtt)
            deltas = cells("deltas", delta_row, rtt)
            # Legs or waits vary, never both: errors go where edges vary.
            if len(row_legs) == len(edges):
                row_legs = cells("blocked", block, row_legs, edges)
            else:
                row_waits = cells("blocked", block, row_waits, edges)
            yield head, tails, edges, price.row(row_legs, row_waits), deltas


def run_sweep(spec: SweepSpec, profile: PowerProfile) -> SweepResult:
    """Each grid point, row-major, priced by one
    :func:`ltenergy.analytic.compare` call: an overrun is an error cell,
    the edge's when both overrun, and an energy or ratio that overflows a
    float raises ``ValueError`` at its cell."""
    cloud_base = spec.base._replace(rtt=spec.rtt_cloud + 0.0)  # -0.0 as 0.0
    pick, fields = _field_picker(cloud_base, [a.name for a in spec.axes])
    cells = []
    for values in itertools.product(*(axis.values() for axis in spec.axes)):
        cloud = ConnectionlessScenario(*pick(values + fields), *cloud_base[5:])
        try:
            cells.append(SweepCell(values, compare(
                cloud._replace(rtt=spec.base.rtt), cloud, profile)))
        except PeriodOverrunError as exc:
            cells.append(SweepCell(values, None, str(exc)))
    return SweepResult(spec, tuple(cells))


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
