import contextlib
import csv
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ltenergy import cli, sweep
from ltenergy.analytic import (
    ComparisonResult,
    ConnectionlessScenario,
    EnergyBreakdown,
    PeriodOverrunError,
    compare,
    price_scenario,
)
from ltenergy.power_model import default_profile
from ltenergy.sweep import (
    MAX_GRID_CELLS,
    ROW_CELLS,
    CostSpec,
    SweepAxis,
    SweepCell,
    SweepSpec,
    cost_curve,
    json_text,
    per_cycle_payload,
    run_sweep,
    sweep_rows,
)
from ltenergy._fmt import (MJ, MS, RHO, csv_line, fixed, fixed_texts,
                           fmt_axis)
from _goldens import reference_scenarios

PROFILE = default_profile()


def make_spec(axes, t_i=750, rtt_cloud=50):
    edge, cloud = reference_scenarios(t_i, rtt_cloud)
    return SweepSpec(base=edge, rtt_cloud=cloud.rtt, axes=axes)


class TestAxis:
    def test_values_inclusive(self):
        axis = SweepAxis("t_i", 750, 5000, 250)
        values = axis.values()
        assert values[0] == 750
        assert values[-1] == 5000
        assert len(values) == 18

    def test_single_value(self):
        assert SweepAxis("t_i", 750, 750, 1).values() == [750]

    def test_bad_axis_name(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepAxis("rtt_edge", 1, 2, 1)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="empty grid"):
            SweepAxis("t_i", 100, 50, 1)

    def test_no_axes(self):
        with pytest.raises(ValueError, match="empty grid"):
            make_spec(())

    def test_cloud_rtt_beyond_float_range(self):
        """An int cloud RTT that no float holds is named, not an
        ``OverflowError`` of the first cell."""
        base, _ = reference_scenarios(750, 50)
        with pytest.raises(ValueError,
                           match="^rtt_cloud is too large for a float$"):
            SweepSpec(base, 10 ** 400, (SweepAxis("t_i", 750, 1000, 250),))

    @pytest.mark.parametrize("bounds", [
        (float("nan"), 2, 1), (1, float("inf"), 1), (1, 2, float("nan")),
    ])
    def test_non_finite_bounds(self, bounds):
        with pytest.raises(ValueError, match="must be finite"):
            SweepAxis("t_i", *bounds)

    def test_bounds_beyond_float_range(self):
        """An int bound that no float holds is named with its axis, not an
        ``OverflowError``."""
        with pytest.raises(ValueError,
                           match="^axis t_i start is too large for a float$"):
            SweepAxis("t_i", 10 ** 400, 10 ** 401, 1)

    @pytest.mark.parametrize("step", [0, -1])
    def test_step_message_names_axis(self, step):
        with pytest.raises(ValueError,
                           match="axis payload step must be strictly"):
            SweepAxis("payload", 0, 10, step)

    @pytest.mark.parametrize("start, stop, step", [
        (750, 5000, 250), (0.1, 0.7, 0.1), (1000.1, 1000.5, 0.1), (5, 5, 3),
        (0, 1, 0.3),
    ])
    def test_count_is_len_of_values(self, start, stop, step):
        axis = SweepAxis("t_i", start, stop, step)
        assert axis.n_values == len(axis.values())


class TestGridBound:
    """Grids beyond ``MAX_GRID_CELLS`` cells are rejected from the axis
    counts alone; no grid is built, only the last value of each axis of a
    grid within the bound, which ``SweepSpec`` checks."""

    @pytest.fixture(autouse=True)
    def no_values(self, monkeypatch):
        values = SweepAxis.values

        def last_value_only(self, indices=None):
            if indices is None or len(indices) > 1:
                raise AssertionError("grid values built")
            return values(self, indices)

        monkeypatch.setattr(SweepAxis, "values", last_value_only)

    def test_axis_at_the_limit(self):
        assert SweepAxis("t_i", 1, MAX_GRID_CELLS, 1).n_values == MAX_GRID_CELLS

    @pytest.mark.parametrize("start, stop, step", [
        (0, MAX_GRID_CELLS, 1), (0, 1, 1e-300), (0, 1, 5e-324),
        (-1e308, 1e308, 1),
    ])
    def test_axis_beyond_the_limit(self, start, stop, step):
        with pytest.raises(ValueError, match="axis t_i has more than 2000000"):
            SweepAxis("t_i", start, stop, step)

    def test_grid_at_the_limit(self):
        spec = make_spec((SweepAxis("t_i", 1000, 2999, 1),
                          SweepAxis("rtt_cloud", 1, 1000, 1)))
        assert len(spec.axes) == 2

    def test_grid_beyond_the_limit(self):
        with pytest.raises(ValueError,
                           match="grid has 2001000 cells, more than 2000000"):
            make_spec((SweepAxis("t_i", 1000, 3000, 1),
                       SweepAxis("rtt_cloud", 1, 1000, 1)))


class TestRunSweep:
    def test_single_cell_equals_compare(self):
        spec = make_spec((SweepAxis("rtt_cloud", 300, 300, 1),), t_i=750)
        result = run_sweep(spec, PROFILE)
        assert len(result.cells) == 1
        edge, cloud = reference_scenarios(750, 300)
        assert result.cells[0].result == compare(edge, cloud, PROFILE)

    def test_pointwise_identical_to_compare(self):
        spec = make_spec((
            SweepAxis("t_i", 750, 1250, 250),
            SweepAxis("rtt_cloud", 50, 300, 50),
        ))
        result = run_sweep(spec, PROFILE)
        for cell in result.cells:
            t_i, rtt_cloud = cell.values
            edge, cloud = reference_scenarios(t_i, rtt_cloud)
            assert cell.result == compare(edge, cloud, PROFILE)

    def test_period_sweep_sign_structure(self):
        spec = make_spec((
            SweepAxis("t_i", 750, 5000, 250),
            SweepAxis("rtt_cloud", 50, 300, 25),
        ))
        result = run_sweep(spec, PROFILE)
        by_point = {cell.values: cell.result.rho for cell in result.cells}
        assert by_point[(750.0, 300.0)] > 1
        assert by_point[(1000.0, 300.0)] < 1
        cloud_wins = [cell.values for cell in result.cells
                      if cell.result.rho > 1]
        assert cloud_wins
        assert all(t_i < 1000 and rtt > 100 for t_i, rtt in cloud_wins)

    def test_payload_sweep_small_payloads_favor_edge(self):
        spec = make_spec((
            SweepAxis("payload", 2048, 262144, 2048),
            SweepAxis("rtt_cloud", 50, 300, 25),
        ), t_i=5000)
        result = run_sweep(spec, PROFILE)
        small = [c for c in result.cells if c.values[0] <= 16384]
        assert small and all(c.result.rho < 1 for c in small)
        # oversized payloads cannot fit the period against a distant
        # cloud; those cells are recorded as errors, not dropped
        errors = [c for c in result.cells if c.error is not None]
        assert errors
        assert all(c.values[0] > 200000 for c in errors)
        assert len(result.cells) == 128 * 11

    def test_elaboration_sweep_converges_to_parity(self):
        spec = make_spec((
            SweepAxis("t_elab", 0, 1500, 100),
            SweepAxis("rtt_cloud", 50, 300, 25),
        ), t_i=5000)
        result = run_sweep(spec, PROFILE)
        by_point = {cell.values: cell.result.rho for cell in result.cells}
        assert abs(by_point[(1500.0, 50.0)] - 1) < 0.02
        assert by_point[(0.0, 300.0)] < by_point[(1500.0, 300.0)] <= 1.0


def scenarios_at(spec, values):
    """Edge and cloud scenarios of one grid point, built field by field."""
    edge, cloud = spec.base, spec.base._replace(rtt=spec.rtt_cloud)
    for axis, value in zip(spec.axes, values):
        if axis.name == "rtt_cloud":
            cloud = cloud._replace(rtt=value)
            continue
        fields = {"t_i": {"t_i": value}, "t_elab": {"t_elab": value},
                  "payload": {"b_tx": value, "b_rx": value}}[axis.name]
        edge, cloud = edge._replace(**fields), cloud._replace(**fields)
    return edge, cloud


# Ranges wide enough for overruns (short periods, large payloads) and for
# both IDLE promotions: waits beyond the 11.6 s IDLE entry charge the
# response promotion, quiet times beyond it the request promotion.
AXIS_RANGES = {
    "t_i": (100.0, 40000.0),
    "rtt_cloud": (0.0, 15000.0),
    "payload": (0.0, 300000.0),
    "t_elab": (0.0, 13000.0),
}


@st.composite
def sweep_specs(draw):
    def value(name):
        return draw(st.floats(*AXIS_RANGES[name]))

    payload = value("payload")
    common = dict(t_i=value("t_i"), t_elab=value("t_elab"),
                  b_tx=payload, b_rx=payload)
    edge = ConnectionlessScenario(
        rtt=draw(st.floats(0.0, 500.0)), **common)
    cloud = ConnectionlessScenario(rtt=value("rtt_cloud"), **common)
    names = draw(st.lists(st.sampled_from(sorted(AXIS_RANGES)),
                          min_size=1, max_size=2, unique=True))
    axes = []
    for name in names:
        low, high = AXIS_RANGES[name]
        start = value(name)
        step = draw(st.floats(1.0, (high - low) / 2))
        count = draw(st.integers(1, 6))
        axes.append(SweepAxis(name, start, start + (count - 1) * step, step))
    return SweepSpec(base=edge, rtt_cloud=cloud.rtt, axes=tuple(axes))


def kernel_cells(spec, profile):
    """The rows of ``sweep_rows``, drawn as they are needed and flattened
    into cells ``(values, edge, cloud, delta_rtt)`` as each row holds them:
    a priced cycle, or the error in its place, which is the edge's in both
    places when the edge fails.  An edge or delta list of one is the row's
    shared value, repeated to each cell."""
    for head, tails, edges, clouds, deltas in sweep_rows(spec, profile):
        m = len(tails)
        for tail, *cell in zip(tails, edges * m if len(edges) == 1 else edges,
                               clouds, deltas * m if len(deltas) == 1
                               else deltas, strict=True):
            yield (head + (tail,), *cell)


def assert_kernel_cell_is(cell, expected):
    """The kernel's ``cell`` holds what the :class:`SweepCell` ``expected``
    holds: both placements' energies, the ratio of their totals and the
    RTT difference, or an overrun with the same message.  ``repr`` tells
    apart every pair of floats that differ in a bit, sign included."""
    values, edge, cloud, delta_rtt = cell
    assert values == expected.values
    if expected.result is None:
        assert isinstance(cloud, PeriodOverrunError)
        assert str(cloud) == expected.error
    else:
        r = expected.result
        assert repr((edge[3:], cloud[3:], edge[-1] / cloud[-1], delta_rtt)) \
            == repr((tuple(r.edge), tuple(r.cloud), r.rho, r.delta_rtt))


def reference_spec(axes, t_i=5000.0):
    common = dict(t_i=t_i, b_tx=16000.0, b_rx=16000.0)
    return SweepSpec(
        base=ConnectionlessScenario(rtt=20.0, **common),
        rtt_cloud=100.0,
        axes=axes)


def across_row_boundary(test):
    """``test`` with examples whose innermost axis has ``ROW_CELLS + 1``
    values, so two rows, and overrun cells on both sides of the boundary:
    of the edge as t_elab or the payload grows, of the cloud alone as
    rtt_cloud grows."""
    for axes in [(SweepAxis("t_elab", 4200, 4200 + ROW_CELLS, 1),),
                 (SweepAxis("t_i", 5000, 6000, 1000),
                  SweepAxis("payload", 270000, 270000 + 20 * ROW_CELLS, 20)),
                 (SweepAxis("rtt_cloud", 4300, 4300 + ROW_CELLS, 1),)]:
        test = example(spec=reference_spec(axes))(test)
    return test


class TestSweepMatchesCompare:
    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(spec=sweep_specs())
    # overruns of the edge alone (t_i 300, rtt_cloud 0), of the cloud
    # alone, and of both
    @example(spec=reference_spec((SweepAxis("t_i", 100, 1100, 200),
                                  SweepAxis("rtt_cloud", 0, 1000, 250))))
    # response promotion (long cloud wait) and request promotion (long
    # quiet time), each on its own and together
    @example(spec=reference_spec((SweepAxis("t_i", 10000, 40000, 10000),
                                  SweepAxis("rtt_cloud", 100, 15100, 5000))))
    @example(spec=reference_spec((SweepAxis("t_elab", 0, 13000, 6500),),
                                 t_i=30000.0))
    # rtt_cloud alone: one row that charges the request promotion, then
    # both, then the response promotion alone, and ends in overruns
    @example(spec=reference_spec((SweepAxis("rtt_cloud", 0, 36000, 3000),),
                                 t_i=30000.0))
    # an outer t_elab: each row's cloud waits change while its rtts repeat
    @example(spec=reference_spec((SweepAxis("t_elab", 0, 1000, 500),
                                  SweepAxis("rtt_cloud", 50, 150, 50))))
    @across_row_boundary
    def test_every_cell_equals_compare(self, spec):
        """Each cell of ``run_sweep`` is ``compare`` at its point, and each
        cell of the rows of ``sweep_rows`` is the cell of ``run_sweep``."""
        result = run_sweep(spec, PROFILE)
        grids = [axis.values() for axis in spec.axes]
        points = [(v,) for v in grids[0]] if len(grids) == 1 else [
            (a, b) for a in grids[0] for b in grids[1]]
        assert [cell.values for cell in result.cells] == points
        for cell in result.cells:
            edge, cloud = scenarios_at(spec, cell.values)
            try:
                expected = compare(edge, cloud, PROFILE)
            except PeriodOverrunError as exc:
                assert cell.result is None
                assert cell.error == str(exc)
            else:
                assert cell.error is None
                assert cell.result == expected
        kernel = list(kernel_cells(spec, PROFILE))
        assert len(kernel) == len(result.cells)
        for mine, expected in zip(kernel, result.cells):
            assert_kernel_cell_is(mine, expected)

    def test_examples_reach_every_branch(self):
        overrun = prom_tx = prom_rx = False
        for axes in [
            (SweepAxis("t_i", 100, 1100, 200),
             SweepAxis("rtt_cloud", 0, 1000, 250)),
            (SweepAxis("t_i", 10000, 40000, 10000),
             SweepAxis("rtt_cloud", 100, 15100, 5000)),
        ]:
            for cell in run_sweep(reference_spec(axes), PROFILE).cells:
                if cell.result is None:
                    overrun = True
                    continue
                prom_tx |= cell.result.cloud.e_prom_tx > 0
                prom_rx |= cell.result.cloud.e_prom_rx > 0
        assert overrun and prom_tx and prom_rx

    def test_row_overflowing_part_way_raises_at_its_cell(self):
        """A row whose waits grow until a gap's energy overflows holds the
        cells before that one, each equal to ``compare``, then the error
        that ``compare`` raises there, which each renderer and
        ``run_sweep`` raise."""
        spec = SweepSpec(ConnectionlessScenario(t_i=2e307, rtt=1e307), 0.0,
                         (SweepAxis("t_i", 2e307, 2e307, 1),
                          SweepAxis("rtt_cloud", 8e306, 1.4e307, 1e306)))
        cells = list(kernel_cells(spec, PROFILE))
        points = list(itertools.product(*(a.values() for a in spec.axes)))
        assert [cell[0] for cell in cells] == points and len(points) == 7
        for cell, point in zip(cells[:5], points):
            assert_kernel_cell_is(cell, SweepCell(point, compare(
                *scenarios_at(spec, point), PROFILE)))
        with pytest.raises(ValueError, match="cycle energy overflows") as info:
            compare(*scenarios_at(spec, points[5]), PROFILE)
        bad, message = cells[5][2], str(info.value)
        assert (type(bad), str(bad)) == (ValueError, message)
        for render in (sweep.csv_rows, json_text):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                "".join(render(spec, sweep_rows(spec, PROFILE)))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_sweep(spec, PROFILE)

    def test_invalid_axis_value_raises_scenario_error(self):
        with pytest.raises(ValueError, match="t_i must be strictly positive"):
            make_spec((SweepAxis("t_i", -250, 750, 250),))


@st.composite
def checked_axes(draw):
    """An axis of at most 50 values from any finite start, negative, -0.0,
    0 or positive; its stop may fall just short of its last value, which
    may then overflow."""
    start = draw(st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e5, 1e5),
                           st.floats(allow_nan=False, allow_infinity=False)))
    step = draw(st.one_of(st.floats(1e-3, 1e4), st.floats(
        0.0, exclude_min=True, allow_infinity=False)))
    span = (draw(st.integers(1, 50)) - 1) * step
    stop = start + span * draw(st.sampled_from([1.0, 1 - 1e-12]))
    assume(math.isfinite(stop))
    name = draw(st.sampled_from(sweep.SWEEP_AXES))
    return SweepAxis(name, start, stop, step)


class TestSpecChecksEveryCell:
    """``SweepSpec`` checks each axis at its first and last values, which
    stand for all of its values."""

    BASE = reference_scenarios(750, 50)[0]

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(axis=checked_axes(),
           base=st.builds(ConnectionlessScenario, t_i=st.floats(1e-3, 1e6),
                          t_elab=st.floats(0.0, 1e6), rtt=st.floats(0.0, 1e3),
                          b_tx=st.floats(0.0, 1e6), b_rx=st.floats(0.0, 1e6),
                          uplink_bps=st.floats(1.0, 1e9),
                          downlink_bps=st.floats(1.0, 1e9)),
           rtt_cloud=st.floats(0.0, 1e4))
    @example(axis=SweepAxis("t_i", 0, 1000, 250), base=BASE, rtt_cloud=50.0)
    @example(axis=SweepAxis("t_i", -0.0, 1000, 250), base=BASE,
             rtt_cloud=50.0)
    @example(axis=SweepAxis("payload", -100, 1000, 250), base=BASE,
             rtt_cloud=50.0)
    @example(axis=SweepAxis("rtt_cloud", -100, 1000, 250), base=BASE,
             rtt_cloud=50.0)
    # the last value, start + 3 * step, overflows to inf
    @example(axis=SweepAxis("t_elab", 0.0, sys.float_info.max,
                            sys.float_info.max / 3 * (1 + 1e-12)),
             base=BASE, rtt_cloud=50.0)
    def test_raises_at_the_first_failing_value(self, axis, base, rtt_cloud):
        # the fields scenarios_at reads, unchecked: SweepSpec would raise
        unchecked = SimpleNamespace(base=base, rtt_cloud=rtt_cloud,
                                    axes=(axis,))
        expected = None
        for value in axis.values():
            try:
                scenarios_at(unchecked, (value,))
            except ValueError as exc:
                expected = str(exc)
                break
        if expected is None:
            SweepSpec(base, rtt_cloud, (axis,))
        else:
            with pytest.raises(ValueError) as info:
                SweepSpec(base, rtt_cloud, (axis,))
            assert str(info.value) == expected


def csv_artifact(spec, rows):
    """The sweep CSV artifact as the CLI writes it: the header line, then
    the ``csv_rows`` strings of ``rows``."""
    return csv_line(spec.columns) + "".join(sweep.csv_rows(spec, rows))


def collected_csv(result):
    """The CSV artifact of a collected sweep: the header line, then the
    cell-by-cell lines of ``SweepResult.rows``."""
    return csv_line(result.spec.columns) + "".join(result.rows())


def reference_csv(result):
    """The sweep CSV artifact as ``csv.writer`` writes the header and the
    :func:`reference_rows`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(result.spec.columns)
    writer.writerows(reference_rows(result))
    return buf.getvalue()


# Fields that csv.writer quotes, doubles or writes as they are.
csv_fields = st.one_of(st.just(""), st.text(',"\r\n a', max_size=5),
                       st.text(max_size=5))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(row=st.lists(csv_fields, max_size=6))
@example(row=[""])
@example(row=["", ""])
@example(row=['"'])
@example(row=["a,b", "c\r\nd", 'say "hi"'])
def test_csv_line_equals_csv_writer(row):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(row)
    assert csv_line(row) == buf.getvalue()


def number_texts_cases(test):
    """``test`` with values that the fixed-point rule must get right, for
    ``n`` 1 and 3: zero, half-way decimals and their neighbours, the bound
    10**(15 - n), its neighbours, and values above it, alone and in a list
    of smaller values."""
    for n in (1, 3):
        bound = 10.0 ** (15 - n)
        half = 0.25 if n == 1 else 1.0005  # halfway between two n-decimals
        for xs in ([0.0], [half], [math.nextafter(half, 0)],
                   [math.nextafter(half, 2)], [2.5 * 10 ** -n],
                   [math.nextafter(bound, 0)], [bound],
                   [math.nextafter(bound, math.inf)],
                   [bound * 1.2345678901234567], [1e15 + 0.25], [1e16],
                   [1.0, 0.5, 1e16], [7.0, bound]):
            test = example(run=(xs, n))(test)
    return test


@st.composite
def fixed_point_runs(draw):
    """``(xs, n)``: up to 8 floats in [0, 10**(15 - n)), arbitrary or
    half-way between two ``n``-decimal numbers."""
    n = draw(st.sampled_from([1, 3]))
    bound = 10 ** (15 - n)
    xs = draw(st.lists(st.one_of(
        st.floats(0.0, bound, exclude_max=True),
        st.integers(0, bound * 10 ** n - 1).map(
            lambda k: (k + 0.5) / 10 ** n)), max_size=8))
    return xs, n


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(run=fixed_point_runs())
@number_texts_cases
def test_number_texts_equal_format_and_repr(run):
    """The texts of a run's numbers, from one ``%`` call: for CSV as
    ``f"{x:.{n}f}"`` writes each value, and for JSON as ``json`` writes
    ``round(x, n)``, also where a list holds a value at or above
    10**(15 - n), whose fixed-point text can have more than 15 significant
    digits."""
    xs, n = run
    assert fixed_texts(xs, n, False) == [f"{x:.{n}f}" for x in xs]
    assert fixed_texts(xs, n, True) == [json.dumps(round(x, n)) for x in xs]


def reference_rows(result):
    """CSV fields of a sweep, built cell by cell from the ``_fmt`` rules."""
    rows = []
    for cell in result.cells:
        row = [fmt_axis(v) for v in cell.values]
        if cell.result is None:
            row += ["", "", "", "", cell.error]
        else:
            r = cell.result
            row += [fixed(r.rho, RHO), fixed(r.edge.e_i, MJ),
                    fixed(r.cloud.e_i, MJ), fixed(r.delta_rtt, MS), ""]
        rows.append(row)
    return rows


def grid_numbers(low, high):
    """Arbitrary, integer-valued and whole-tenth floats in [low, high]."""
    return st.one_of(
        st.floats(low, high),
        st.integers(int(low), int(high)).map(float),
        st.integers(int(low * 10), int(high * 10)).map(lambda n: n / 10))


@st.composite
def render_specs(draw):
    """Specs of one to three axes whose values need rounding to print."""
    def value(name):
        return draw(grid_numbers(*AXIS_RANGES[name]))

    payload = value("payload")
    common = dict(t_i=value("t_i"), t_elab=value("t_elab"),
                  b_tx=payload, b_rx=payload)
    edge = ConnectionlessScenario(rtt=draw(grid_numbers(0.0, 500.0)),
                                  **common)
    cloud = ConnectionlessScenario(rtt=value("rtt_cloud"), **common)
    names = draw(st.lists(st.sampled_from(sorted(AXIS_RANGES)),
                          min_size=1, max_size=3, unique=True))
    axes = []
    for name in names:
        start = value(name)
        step = draw(st.one_of(st.just(0.1), st.floats(0.01, 1.0),
                              grid_numbers(1.0, 5000.0)))
        count = draw(st.integers(1, 4))
        axes.append(SweepAxis(name, start, start + (count - 1) * step, step))
    return SweepSpec(base=edge, rtt_cloud=cloud.rtt, axes=tuple(axes))


class TestFastRenderers:
    """``json_text`` and ``csv_rows`` of the rows of ``sweep_rows``, and
    ``SweepResult.rows``, against their cell-by-cell references: the JSON
    of ``to_json_obj`` and ``csv.writer`` on ``reference_rows``, each of
    the cells of ``run_sweep``, which prices each with ``compare``, or of
    cells built by hand."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(spec=render_specs())
    # overrun cells among priced ones
    @example(spec=reference_spec((SweepAxis("t_i", 100, 1100, 200),
                                  SweepAxis("rtt_cloud", 0, 1000, 250))))
    # tenths that sum to unrounded floats, on all three grid kinds
    @example(spec=reference_spec((SweepAxis("t_i", 1000.1, 1000.5, 0.1),
                                  SweepAxis("payload", 0, 20000, 10000),
                                  SweepAxis("t_elab", 0.5, 2.5, 1))))
    # 1e308 bytes take forever to send: an overrun "by inf ms", a string
    @example(spec=reference_spec((SweepAxis("payload", 0, 1e308, 1e308),)))
    # energies on both sides of 10**14 in one run, and all above 10**16,
    # where repr writes an exponent
    @example(spec=reference_spec((SweepAxis("rtt_cloud", 100, 300, 100),
                                  SweepAxis("t_i", 7e15, 7.1e15, 5e13))))
    @example(spec=reference_spec((SweepAxis("t_elab", 0, 20, 10),),
                                 t_i=1e18))
    @across_row_boundary
    def test_equal_reference(self, spec):
        result = run_sweep(spec, PROFILE)
        rows = list(sweep_rows(spec, PROFILE))
        assert "".join(json_text(spec, rows)) == json.dumps(
            result.to_json_obj(), indent=2)
        assert (csv_artifact(spec, rows) == collected_csv(result)
                == reference_csv(result))

    @pytest.mark.parametrize("arrange", ["copies", "interleaved"])
    def test_edges_not_shared_in_runs(self, arrange):
        """The renderers take each row's texts from the row itself, and
        reuse the texts of its tails and deltas only for the same list:
        rows built by hand from equal copies of those lists and of the
        edge, and one-cell rows whose heads and edges alternate (A, B, A),
        are rendered as the cells they hold."""
        spec = reference_spec((SweepAxis("t_i", 900, 1100, 200),
                               SweepAxis("rtt_cloud", 0, 1000, 250)))
        rows = list(sweep_rows(spec, PROFILE))
        cells = run_sweep(spec, PROFILE).cells
        assert rows[0][1] is rows[1][1] and rows[0][4] is rows[1][4]
        if arrange == "copies":
            rows = [(head, list(tails), tuple(list(edge)), clouds,
                     list(deltas))
                    for head, tails, edge, clouds, deltas in rows]
            assert rows[0][1] == rows[1][1] and rows[0][4] == rows[1][4]
            assert rows[0][1] is not rows[1][1]
        else:
            # the cells of t_i 900 and 1100 alternate: edges A, B, A, ...
            rows = [(head, tails[k:k + 1], edge, clouds[k:k + 1],
                     deltas[k:k + 1])
                    for k in range(5)
                    for head, tails, edge, clouds, deltas in rows]
            cells = [cell for pair in zip(cells[:5], cells[5:])
                     for cell in pair]
            assert rows[0][2] is rows[2][2]
            assert rows[0][2][-1] != rows[1][2][-1]
        result = sweep.SweepResult(spec, tuple(cells))
        assert any(cell.error for cell in cells)
        assert "".join(json_text(spec, rows)) == json.dumps(
            result.to_json_obj(), indent=2)
        assert csv_artifact(spec, rows) == reference_csv(result)

    @pytest.mark.parametrize("render", [
        lambda spec, rows: "".join(json_text(spec, rows)),
        lambda spec, rows: "".join(sweep.csv_rows(spec, rows))],
        ids=["json", "csv"])
    @pytest.mark.parametrize("e_clouds, first_bad", [
        ((1.0, 1e-300, 0.0, 2.0), "1e+300/1e-300"),
        ((1.0, 0.0, 1e-300, 2.0), "1e+300/0.0"),
        ((1.0, None, 2.0, 0.0), "1e+300/0.0"),
    ], ids=["overflow", "zero", "after-overrun"])
    def test_first_non_finite_ratio_raises(self, render, e_clouds,
                                           first_bad):
        """A row whose ratios are not all finite, built by hand, raises the
        error of its first bad cell, as ``energy_ratio`` does: a ratio that
        overflows or a zero cloud energy, also in a run of priced cells
        after an overrun cell (``None``)."""
        spec = reference_spec((SweepAxis("rtt_cloud", 0, 3, 1),))
        parts = (0.0, False, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        tails = [0.0, 1.0, 2.0, 3.0]
        row = ((), tails, [parts + (1e300,)] * 4,
               [PeriodOverrunError(1.0) if e is None else parts + (e,)
                for e in e_clouds], tails)
        with pytest.raises(ValueError,
                           match=f"^rho = {re.escape(first_bad)} is not"):
            render(spec, [row])

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(e_edge=st.floats(1e-3, 1e20),
           e_clouds=st.lists(st.floats(1e-6, 1e20), min_size=1, max_size=4))
    # ratios of 10**12 and above, which no sweep of one profile reaches
    @example(e_edge=1e15, e_clouds=[1e3, 1e-3, 7.0, 1e15])
    @example(e_edge=1e12 - 0.25, e_clouds=[1.0, 1.0 + 2 ** -52, 0.5])
    @example(e_edge=1e14, e_clouds=[1e-6, 99999999999999.95, 1e14])
    def test_large_values_equal_reference(self, e_edge, e_clouds):
        """A row built by hand whose ratios or energies reach 10**(15 - n)
        renders as the cell-by-cell references do: JSON holds
        ``repr(round(x, n))`` for each value of such a run."""
        tails = [float(k) for k in range(len(e_clouds))]
        spec = reference_spec((SweepAxis("rtt_cloud", 0, tails[-1], 1),))
        parts = (0.0, False, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        edge, clouds = parts + (e_edge,), [parts + (e,) for e in e_clouds]
        deltas = [tail - spec.base.rtt for tail in tails]
        rows = [((), tails, [edge] * len(tails), clouds, deltas)]
        result = sweep.SweepResult(spec, tuple(
            SweepCell((tail,), ComparisonResult(
                EnergyBreakdown(*edge[3:]), EnergyBreakdown(*cloud[3:]),
                e_edge / cloud[-1], delta))
            for tail, cloud, delta in zip(tails, clouds, deltas)))
        assert "".join(json_text(spec, rows)) == json.dumps(
            result.to_json_obj(), indent=2)
        assert csv_artifact(spec, rows) == reference_csv(result)

    @pytest.mark.parametrize("overrun", [False, True],
                             ids=["priced", "overrun"])
    def test_shared_lists_equal_copies(self, overrun):
        """Rows built by hand whose ``edges`` and ``deltas`` are lists of
        one, which every cell shares, render as the same rows with a copy
        per cell, and as their cells: priced, or, when the shared edge
        overruns, each cell that edge's error.  Both rows hold the same
        tail and delta lists, as ``sweep_rows`` repeats them."""
        spec = reference_spec((SweepAxis("t_i", 1000, 2000, 1000),
                               SweepAxis("rtt_cloud", 0, 3, 1)))
        parts = (0.0, False, False, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        tails, deltas = [0.0, 1.0, 2.0, 3.0], [-20.5]
        edge = PeriodOverrunError(7.0) if overrun else parts + (10.0,)
        clouds = ([edge] * 4 if overrun else
                  [parts + (e,) for e in (5.0, 10.0, 20.0, 40.0)])
        shared = [((t_i,), tails, [edge], clouds, deltas)
                  for t_i in (1000.0, 2000.0)]
        copies = [(head, tails, [edge] * 4, clouds, deltas * 4)
                  for head, tails, _, clouds, _ in shared]
        result = sweep.SweepResult(spec, tuple(
            SweepCell((t_i, tail), None, str(edge)) if overrun else
            SweepCell((t_i, tail), ComparisonResult(
                EnergyBreakdown(*edge[3:]), EnergyBreakdown(*cloud[3:]),
                edge[-1] / cloud[-1], deltas[0]))
            for t_i in (1000.0, 2000.0)
            for tail, cloud in zip(tails, clouds)))
        for rows in (shared, copies):
            assert "".join(json_text(spec, rows)) == json.dumps(
                result.to_json_obj(), indent=2)
            assert csv_artifact(spec, rows) == reference_csv(result)

    def test_overflowing_energies_raise_before_rendering(self):
        # p_tx * t_tx overflows, so no cell has a finite energy to render
        profile = PROFILE._replace(p_tx=1e308)
        spec = reference_spec((SweepAxis("rtt_cloud", 50, 100, 50),))
        with pytest.raises(ValueError, match="cycle energy overflows"):
            run_sweep(spec, profile)
        for render in (sweep.csv_rows, json_text):
            with pytest.raises(ValueError, match="cycle energy overflows"):
                "".join(render(spec, sweep_rows(spec, profile)))

    def test_three_axes(self):
        spec = reference_spec((SweepAxis("t_i", 300, 30300, 10000),
                               SweepAxis("rtt_cloud", 0, 15000, 5000),
                               SweepAxis("payload", 0, 40000, 20000)))
        result = run_sweep(spec, PROFILE)
        assert [cell.values for cell in result.cells] == list(
            itertools.product(*(axis.values() for axis in spec.axes)))
        errors = 0
        for cell in result.cells:
            edge, cloud = scenarios_at(spec, cell.values)
            try:
                expected = compare(edge, cloud, PROFILE)
            except PeriodOverrunError as exc:
                errors += 1
                assert cell.error == str(exc)
            else:
                assert cell.result == expected
        assert 0 < errors < len(result.cells)
        rows = list(sweep_rows(spec, PROFILE))
        assert "".join(json_text(spec, rows)) == json.dumps(
            result.to_json_obj(), indent=2)
        assert csv_artifact(spec, rows) == reference_csv(result)


def cli_artifacts(spec, config_path):
    """stdout of ``ltenergy sweep`` on ``spec`` in CSV and in JSON."""
    edge, cloud = spec.base, spec.base._replace(rtt=spec.rtt_cloud)
    base = {**edge._asdict(), "rtt_edge": edge.rtt, "rtt_cloud": cloud.rtt}
    del base["rtt"]
    config_path.write_text(json.dumps({
        "base": base, "axes": [axis._asdict() for axis in spec.axes]}))
    texts = []
    for fmt in ("csv", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["sweep", "--config", str(config_path),
                             "--format", fmt]) == 0
        texts.append(out.getvalue())
    return texts


class TestStreamedArtifacts:
    """The CLI renders the row stream as it comes; its bytes equal the
    cell-by-cell renderers of ``run_sweep`` and the reference CSV."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(spec=render_specs())
    # overrun cells among priced ones, on two and on three axes
    @example(spec=reference_spec((SweepAxis("t_i", 100, 1100, 200),
                                  SweepAxis("rtt_cloud", 0, 1000, 250))))
    @example(spec=reference_spec((SweepAxis("t_i", 300, 30300, 10000),
                                  SweepAxis("rtt_cloud", 0, 15000, 5000),
                                  SweepAxis("payload", 0, 40000, 20000))))
    @example(spec=reference_spec((SweepAxis("payload", 0, 1e308, 1e308),)))
    @across_row_boundary
    def test_cli_equals_collected(self, tmp_path_factory, spec):
        streamed_csv, streamed_json = cli_artifacts(
            spec, tmp_path_factory.mktemp("sweep") / "config.json")
        result = run_sweep(spec, PROFILE)
        assert streamed_csv == collected_csv(result) == reference_csv(result)
        assert streamed_json == json.dumps(result.to_json_obj(),
                                           indent=2) + "\n"


class TestBoundedCaches:
    """A drained ``sweep_rows`` holds memory per axis value, not per cell:
    it keeps only the last edge and the waits of one ``t_elab``."""

    @pytest.mark.parametrize("axes", [
        (SweepAxis("t_i", 30000, 40000, 10000),
         SweepAxis("t_elab", 0, 9999, 1)),
        (SweepAxis("rtt_cloud", 0, 99, 1),
         SweepAxis("t_i", 1000, 20950, 100)),
    ], ids=["t_i-t_elab", "rtt_cloud-t_i"])
    def test_traced_peak_stays_under_one_mib(self, axes):
        spec = make_spec(axes)
        assert math.prod(axis.n_values for axis in axes) == 20_000
        tracemalloc.start()
        try:
            for _ in sweep_rows(spec, PROFILE):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestSweepOutput:
    def test_csv_columns_and_sentinel(self):
        spec = make_spec((
            SweepAxis("payload", 262144, 262144, 1),
            SweepAxis("rtt_cloud", 50, 300, 250),
        ), t_i=5000)
        result = run_sweep(spec, PROFILE)
        text = csv_artifact(spec, sweep_rows(spec, PROFILE))
        assert text == reference_csv(result)
        lines = text.splitlines()
        assert lines[0] == ("payload,rtt_cloud,rho,e_i_edge_mj,"
                            "e_i_cloud_mj,delta_rtt_ms,error")
        good = lines[1].split(",")
        assert good[2] != ""
        bad = lines[2].split(",")
        assert bad[2] == "" and "exceed" in bad[6]

    def test_emission_deterministic(self):
        spec = make_spec((SweepAxis("rtt_cloud", 50, 300, 25),))
        first = csv_artifact(spec, sweep_rows(spec, PROFILE))
        assert first == csv_artifact(spec, sweep_rows(spec, PROFILE))
        assert first == reference_csv(run_sweep(spec, PROFILE))
        assert (run_sweep(spec, PROFILE).to_json_obj()
                == run_sweep(spec, PROFILE).to_json_obj())

    @pytest.mark.parametrize("rtt_cloud", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("rtt_edge", [0.0, -0.0], ids=["+0", "-0"])
    def test_signed_zero_rtts_write_zero_delta(self, rtt_edge, rtt_cloud):
        """A ``-0.0`` RTT from the library reads as 0: no artifact writes
        a ``delta_rtt_ms`` of ``-0.000``."""
        spec = SweepSpec(ConnectionlessScenario(t_i=1000, rtt=rtt_edge),
                         rtt_cloud, (SweepAxis("t_i", 1000, 2000, 1000),))
        column = spec.columns.index("delta_rtt_ms")
        lines = csv_artifact(spec, sweep_rows(spec, PROFILE)).splitlines()
        assert [line.split(",")[column] for line in lines[1:]] == [
            "0.000"] * 2
        cells = json.loads("".join(json_text(spec, sweep_rows(spec, PROFILE))))
        assert [cell["delta_rtt_ms"] for cell in cells["cells"]] == [0, 0]


class TestPerCyclePayload:
    def test_one_cycle_per_hour(self):
        assert per_cycle_payload(10e6, 3_600_000) == 10_000_000

    def test_direct_formula(self):
        assert per_cycle_payload(10e6, 36_000) == 100_000
        assert per_cycle_payload(10e6, 60_000) == 166_667

    def test_bad_period(self):
        with pytest.raises(ValueError):
            per_cycle_payload(10e6, 0)

    def test_overflowing_payload(self):
        with pytest.raises(ValueError, match="hourly_bytes 1e\\+308 at t_i"):
            per_cycle_payload(1e308, 2000)


def periods(start, stop=None, step=1000.0):
    """A period axis from ``start`` to ``stop`` (default ``start``), ms."""
    return SweepAxis("t_i", start, start if stop is None else stop, step)


class TestCostCurve:
    GRID = periods(1000.0, 120_000.0)

    def test_delay_only_picks_smallest_period(self):
        spec = CostSpec(alphas=(0.0,), hourly_bytes=10e6, rtt=50,
                        periods=self.GRID)
        curve = cost_curve(spec, PROFILE)
        assert curve.argmin_t_i == (1000,)
        for point in curve.points:
            assert point.c == pytest.approx(point.t_i / curve.d_max)

    def test_single_point_cost_is_one(self):
        spec = CostSpec(alphas=(0.3,), hourly_bytes=10e6, rtt=50,
                        periods=periods(30_000.0))
        curve = cost_curve(spec, PROFILE)
        assert curve.points[0].c == pytest.approx(1.0)

    def test_normalisers_are_grid_maxima(self):
        spec = CostSpec(alphas=(0.5,), hourly_bytes=10e6, rtt=50,
                        periods=self.GRID)
        curve = cost_curve(spec, PROFILE)
        assert curve.e_max == max(p.e_total for p in curve.points)
        assert curve.d_max == max(p.t_i for p in curve.points)
        assert all(0 <= p.c <= 1 + 1e-12 for p in curve.points)

    def test_cost_invariant_under_energy_rescaling(self):
        spec = CostSpec(alphas=(0.5,), hourly_bytes=10e6, rtt=50,
                        periods=self.GRID)
        curve = cost_curve(spec, PROFILE)
        for point in curve.points:
            joules = point.e_total / 1000.0
            rescaled = (point.alpha * joules / (curve.e_max / 1000.0)
                        + (1 - point.alpha) * point.t_i / curve.d_max)
            assert rescaled == pytest.approx(point.c, rel=1e-12)

    def test_argmin_monotone_in_alpha(self):
        spec = CostSpec(alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
                        hourly_bytes=10e6, rtt=50, periods=self.GRID)
        argmins = cost_curve(spec, PROFILE).argmin_t_i
        assert list(argmins) == sorted(argmins)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            CostSpec(alphas=(1.5,), hourly_bytes=1, rtt=50,
                     periods=periods(1000.0))

    def test_empty_grid(self):
        with pytest.raises(ValueError,
                           match="empty grid: axis t_i has start > stop"):
            CostSpec(alphas=(0.5,), hourly_bytes=1, rtt=50,
                     periods=periods(2000.0, 1000.0))

    @pytest.mark.parametrize("start, stop", [(1000.0, float("inf")),
                                             (float("nan"), 1000.0)])
    def test_non_finite_period(self, start, stop):
        with pytest.raises(ValueError, match="axis t_i bounds must be finite"):
            CostSpec(alphas=(0.5,), hourly_bytes=1, rtt=50,
                     periods=periods(start, stop))

    def test_overflowing_hourly_energy_raises(self):
        # the cycle's energy is finite, times 7,200 cycles per hour it is not
        spec = CostSpec(alphas=(0.5,), hourly_bytes=10e6, rtt=50,
                        periods=periods(500.0))
        with pytest.raises(ValueError, match="hourly energy overflows"):
            cost_curve(spec, PROFILE._replace(p_tx=1.5e307))

    @pytest.mark.parametrize("hourly_bytes", [float("inf"), float("nan")])
    def test_non_finite_hourly_bytes(self, hourly_bytes):
        with pytest.raises(ValueError, match="hourly_bytes must be finite"):
            CostSpec(alphas=(0.5,), hourly_bytes=hourly_bytes, rtt=50,
                     periods=periods(1000.0))

    @pytest.mark.parametrize("field, value, message", [
        ("rtt", float("nan"), "rtt must be finite"),
        ("rtt", float("inf"), "rtt must be finite"),
        ("rtt", -5.0, "rtt must be non-negative"),
        ("reply_bytes", float("inf"), "reply_bytes must be finite"),
        ("reply_bytes", -1.0, "reply_bytes must be non-negative"),
        ("periods", periods(0.0, 2000.0), "periods must be strictly positive"),
        ("periods", periods(-1000.0), "periods must be strictly positive"),
    ])
    def test_bad_scenario_values(self, field, value, message):
        spec = dict(alphas=(0.5,), hourly_bytes=10e6, rtt=50,
                    periods=periods(1000.0))
        spec[field] = value
        with pytest.raises(ValueError, match=message):
            CostSpec(**spec)

    def test_energies_equal_scenario_pricing(self):
        spec = CostSpec(alphas=(0.5,), hourly_bytes=10e6, rtt=50,
                        periods=self.GRID, reply_bytes=300)
        for point in cost_curve(spec, PROFILE).points:
            scn = ConnectionlessScenario(
                t_i=point.t_i, rtt=spec.rtt, b_rx=spec.reply_bytes,
                b_tx=per_cycle_payload(spec.hourly_bytes, point.t_i))
            e_cycle = price_scenario(scn, PROFILE)[1].e_i
            assert point.e_total == e_cycle * (3_600_000.0 / point.t_i)

    def test_each_alpha_costs_as_alone(self):
        """The points run alpha-major in the given order, duplicates kept,
        and each alpha's slice is the curve that alpha gets alone."""
        alphas = (0.75, 0, 0.25, 0.75)
        spec = CostSpec(alphas=alphas, hourly_bytes=10e6, rtt=50,
                        periods=self.GRID)
        curve = cost_curve(spec, PROFILE)
        n = self.GRID.n_values
        assert len(curve.points) == len(alphas) * n
        for k, alpha in enumerate(alphas):
            alone = cost_curve(spec._replace(alphas=(alpha,)), PROFILE)
            assert curve.points[k * n:(k + 1) * n] == alone.points
            assert curve.argmin_t_i[k] == alone.argmin_t_i[0]
            assert (curve.e_max, curve.d_max) == (alone.e_max, alone.d_max)

    def test_empty_alphas(self):
        with pytest.raises(ValueError, match="alphas must be a non-empty"):
            CostSpec(alphas=(), hourly_bytes=1, rtt=50,
                     periods=periods(1000.0))

    def test_points_bounded_like_grid_cells(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_GRID_CELLS", 6)
        CostSpec(alphas=(0.5, 0.5), hourly_bytes=1, rtt=50,
                 periods=periods(1000.0, 3000.0))
        with pytest.raises(ValueError,
                           match="cost has 8 points, more than 6"):
            CostSpec(alphas=(0.5, 0.5), hourly_bytes=1, rtt=50,
                     periods=periods(1000.0, 4000.0))

    def test_points_bounded_before_any_period_is_built(self, monkeypatch):
        def fail(self):
            raise AssertionError("periods built for an oversized cost")

        monkeypatch.setattr(SweepAxis, "values", fail)
        with pytest.raises(ValueError,
                           match="cost has 2000001 points, more than 2000000"):
            CostSpec(alphas=(0.0, 0.5, 1.0), hourly_bytes=1, rtt=50,
                     periods=periods(1.0, 666_667.0, 1.0))
