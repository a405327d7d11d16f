"""Properties of the one energy accounting over random valid profiles and
scenarios.

Walking the radio state machine over a canonical cycle's events (the
oracle of ``_event_reference``) gives the closed-form cycle energy; a
cycle's phases plus its charged promotions add up to its period; and two
placements at equal RTT have a ratio of exactly 1, through ``compare``,
through ``run_sweep`` and through the sweep kernel ``sweep_rows``.  The
draws cover both promotion branches, and explicit examples pin each one.
Every cell of the rows of ``sweep_rows`` equals ``compare`` bit for bit,
whatever the axis order, and two sweeps over different profiles whose rows
are drawn interleaved do not share a cache.

Over cycles that charge no promotion, both quiet gaps start in CR and walk
the same decay chain, so swapping the wait and the quiet time leaves the
cycle energy as it was (gap symmetry).  The gap energy is concave, because
the state powers fall along the chain, so two waits ``w1 <= w2`` of one
cycle, whose quiet time is ``T = t_i - t_tx - t_rx``, have a ratio of at
most 1 when ``w1 + w2 <= T`` and at least 1 when ``w1 + w2 >= T`` (the
mirror rule).
"""

import itertools
import math

import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)

from ltenergy.analytic import (
    ConnectionlessScenario,
    PeriodOverrunError,
    compare,
    price_cycle,
    price_scenario,
)
from ltenergy.power_model import PowerProfile, default_profile
from ltenergy.sweep import SweepAxis, SweepCell, SweepSpec, run_sweep

from _event_reference import canonical_cycle_events, event_driven_energy
from test_sweep import assert_kernel_cell_is, kernel_cells

# Profiles without duty cycles are valid; their skipped check only warns.
pytestmark = pytest.mark.filterwarnings("ignore:profile has no")


@st.composite
def profiles(draw):
    """Valid profiles: state powers strictly ordered, timers positive."""
    p_idle = draw(st.floats(0, 100))
    p_long = p_idle + draw(st.floats(1, 500))
    p_short = p_long + draw(st.floats(1, 500))
    p_cr = p_short + draw(st.floats(1, 1000))
    power = st.floats(0, 3000)
    return PowerProfile(
        p_tx=draw(power), p_rx=draw(power), p_cr=p_cr, p_short=p_short,
        p_long=p_long, p_idle=p_idle, p_prom=draw(power),
        t_cr=draw(st.floats(1, 1000)), t_short=draw(st.floats(1, 2000)),
        t_long=draw(st.floats(1, 15000)), t_prom=draw(st.floats(1, 1000)))


@st.composite
def scenarios(draw):
    """Scenarios with at least one byte each way, whose wait ranges past
    the IDLE entry of any drawn profile and whose period leaves up to a
    minute of quiet time."""
    uplink = draw(st.floats(1e5, 1e8))
    downlink = draw(st.floats(1e5, 1e8))
    b_tx = draw(st.integers(1, 200_000))
    b_rx = draw(st.integers(1, 200_000))
    t_elab = draw(st.floats(0, 20_000))
    rtt = draw(st.floats(0, 20_000))
    busy = 8000.0 * (b_tx / uplink + b_rx / downlink) + t_elab + rtt
    return ConnectionlessScenario(
        t_i=busy + draw(st.floats(0, 60_000)), t_elab=t_elab, rtt=rtt,
        b_tx=b_tx, b_rx=b_rx, uplink_bps=uplink, downlink_bps=downlink)


def priced_or_reject(scn, profile):
    """The scenario's cycle timing and energy, priced from its period."""
    try:
        return price_scenario(scn, profile)
    except PeriodOverrunError:
        reject()


DEFAULT = default_profile()
# Neither promotion, both promotions, and each one alone.
BRANCHES = [
    ConnectionlessScenario(t_i=1000, t_elab=150, rtt=40, b_tx=16000,
                           b_rx=16000),
    ConnectionlessScenario(t_i=30000, t_elab=150, rtt=12000, b_tx=16000,
                           b_rx=16000),
    ConnectionlessScenario(t_i=14000, t_elab=150, rtt=12000, b_tx=16000,
                           b_rx=16000),
    ConnectionlessScenario(t_i=14000, t_elab=150, rtt=40, b_tx=16000,
                           b_rx=16000),
]


def test_examples_cover_both_promotion_branches():
    flags = {(t.prom_tx, t.prom_rx)
             for t, _ in (price_scenario(scn, DEFAULT) for scn in BRANCHES)}
    assert flags == {(False, False), (True, True), (False, True),
                     (True, False)}


def with_branches(test):
    for scn in BRANCHES:
        test = example(profile=DEFAULT, scn=scn)(test)
    return test


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=profiles(), scn=scenarios())
@with_branches
def test_event_walk_equals_closed_form(profile, scn):
    timing, energy = priced_or_reject(scn, profile)
    events, canonical, window = canonical_cycle_events(
        int(scn.b_tx), int(scn.b_rx), timing.t_w, timing.t_q,
        prom_tx=timing.prom_tx, prom_rx=timing.prom_rx, profile=profile,
        uplink_bps=scn.uplink_bps, downlink_bps=scn.downlink_bps)
    assert canonical == timing  # what pricing over the period derived
    walked = event_driven_energy(events, profile, window,
                                 uplink_bps=scn.uplink_bps,
                                 downlink_bps=scn.downlink_bps)
    closed = energy.e_i
    assert walked == pytest.approx(closed, rel=1e-12, abs=1e-9)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=profiles(), scn=scenarios())
@with_branches
def test_time_is_conserved(profile, scn):
    t, _ = priced_or_reject(scn, profile)
    charged = profile.t_prom * (t.prom_tx + t.prom_rx)
    total = t.t_tx + t.t_w + t.t_rx + t.t_q + charged
    assert total == pytest.approx(scn.t_i, rel=1e-12, abs=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(profile=profiles(), scn=scenarios())
@with_branches
def test_rho_is_exactly_one_at_equal_rtt(profile, scn):
    # A cycle that draws no energy at all has no ratio.
    assume(priced_or_reject(scn, profile)[1].e_i > 0)
    assert compare(scn, scn, profile).rho == 1.0
    spec = SweepSpec(base=scn, rtt_cloud=scn.rtt,
                     axes=(SweepAxis("rtt_cloud", scn.rtt, scn.rtt, 1),))
    (cell,) = run_sweep(spec, profile).cells
    assert cell.result.rho == 1.0 and cell.result.delta_rtt == 0.0
    (kernel,) = kernel_cells(spec, profile)
    assert_kernel_cell_is(kernel, cell)


@st.composite
def grid_axes(draw):
    """``t_elab``, ``t_i`` and ``rtt_cloud`` axes of one to three values
    each, in a drawn order; short periods make some cells overrun."""
    bounds = {"t_elab": (0, 15_000), "t_i": (1, 60_000),
              "rtt_cloud": (0, 15_000)}
    axes = []
    for name in draw(st.permutations(sorted(bounds))):
        start = draw(st.floats(*bounds[name]))
        step = draw(st.floats(1, 10_000))
        n = draw(st.integers(1, 3))
        axes.append(SweepAxis(name, start, start + step * (n - 1), step))
    return tuple(axes)


def assert_cell_is_compare(cell, spec, profile):
    """The kernel's cell holds what ``compare`` returns or raises at its
    point, bit for bit."""
    values = cell[0]
    fields = dict(zip((axis.name for axis in spec.axes), values))
    rtt = fields.pop("rtt_cloud")
    try:
        expected = SweepCell(values, compare(
            spec.base._replace(**fields),
            spec.base._replace(rtt=rtt, **fields), profile))
    except PeriodOverrunError as exc:
        expected = SweepCell(values, None, str(exc))
    assert_kernel_cell_is(cell, expected)


OTHER = DEFAULT._replace(p_tx=1100.0)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(profile=profiles(), other=profiles(), scn=scenarios(),
       axes=grid_axes())
# rtt_cloud alone: one row through the request promotion, both, the
# response promotion alone, then overruns
@example(profile=DEFAULT, other=OTHER, scn=BRANCHES[1],
         axes=(SweepAxis("rtt_cloud", 0, 36000, 3000),))
# rows whose edge overruns (t_i 200), with rtt_cloud inner and outer
@example(profile=DEFAULT, other=OTHER, scn=BRANCHES[0],
         axes=(SweepAxis("t_i", 200, 30200, 15000),
               SweepAxis("rtt_cloud", 0, 36000, 6000)))
@example(profile=DEFAULT, other=OTHER, scn=BRANCHES[0],
         axes=(SweepAxis("rtt_cloud", 0, 36000, 6000),
               SweepAxis("t_i", 200, 30200, 15000)))
# rtt_cloud outer over one overrunning period: its cells share one edge
@example(profile=DEFAULT, other=OTHER, scn=BRANCHES[0],
         axes=(SweepAxis("rtt_cloud", 0, 36000, 6000),
               SweepAxis("t_i", 200, 200, 1)))
def test_sweep_cells_equal_compare_in_any_axis_order(profile, other, scn,
                                                     axes):
    # Transfers draw energy, so every ratio is finite and no cell fails.
    assume(profile.p_tx >= 1 and other.p_tx >= 1 and profile != other)
    spec = SweepSpec(base=scn, rtt_cloud=scn.rtt, axes=axes)
    points = list(itertools.product(*(axis.values() for axis in axes)))
    cells = list(kernel_cells(spec, profile))
    assert [cell[0] for cell in cells] == points
    for cell in cells:
        assert_cell_is_compare(cell, spec, profile)
    # Each pricer caches its own waits: interleaved sweeps do not mix.
    for mine, theirs in zip(kernel_cells(spec, profile),
                            kernel_cells(spec, other)):
        assert_cell_is_compare(mine, spec, profile)
        assert_cell_is_compare(theirs, spec, other)


def ticks(draw, high):
    """A multiple of 1/64 ms in ``[0, high]``: sums and differences of a
    few of them are exact, so a cycle's quiet time is exactly its period
    minus its phases."""
    return draw(st.integers(0, max(0, math.floor(high * 64)))) / 64


@st.composite
def quiet_cycles(draw):
    """``(profile, t_tx, t_w, t_rx, t_q)`` with both gaps within the decay
    chain, so that neither the cycle nor its swap charges a promotion."""
    profile = draw(profiles())
    t_tx, t_rx = ticks(draw, 5000), ticks(draw, 5000)
    gaps = [ticks(draw, profile.idle_entry_ms) for _ in range(2)]
    return profile, t_tx, gaps[0], t_rx, gaps[1]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=quiet_cycles())
@example(case=(DEFAULT, 128.0, 190.0, 160.0, 522.0))
def test_gap_symmetry(case):
    profile, t_tx, t_w, t_rx, t_q = case
    t_i = t_tx + t_w + t_rx + t_q
    timing, energy = price_cycle(t_tx, t_w, t_rx, t_i, profile)
    swapped_timing, swapped = price_cycle(t_tx, t_q, t_rx, t_i, profile)
    assert (timing.t_q, swapped_timing.t_q) == (t_q, t_w)
    assert not (timing.prom_tx or timing.prom_rx or swapped_timing.prom_tx
                or swapped_timing.prom_rx)
    assert abs(energy.e_i - swapped.e_i) <= 4 * math.ulp(energy.e_i)


@st.composite
def mirror_cycles(draw):
    """``(profile, t_tx, t_rx, t_i, w1, w2)``: two waits ``w1 <= w2`` of
    one cycle, each leaving a quiet time short of a request promotion."""
    profile = draw(profiles())
    t_tx, t_rx = ticks(draw, 5000), ticks(draw, 5000)
    w1, w2 = sorted(ticks(draw, profile.idle_entry_ms) for _ in range(2))
    # Quiet time T >= w2 with T - w1 at most idle entry plus a promotion.
    room = w1 + profile.idle_entry_ms + profile.t_prom - w2
    quiet = w2 + ticks(draw, room - 1 / 64)
    return profile, t_tx, t_rx, t_tx + t_rx + quiet, w1, w2


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=mirror_cycles())
# fig4 at t_i 750: edge wait 190, cloud wait 450 > T - 190 = 272, rho 1.185
@example(case=(DEFAULT, 128.0, 160.0, 750.0, 190.0, 450.0))
# waits in LONG DRX against a quiet time in IDLE, short of a promotion
@example(case=(DEFAULT, 128.0, 160.0, 12988.0, 1000.0, 1100.0))
def test_mirror_rule(case):
    profile, t_tx, t_rx, t_i, w1, w2 = case
    (edge_t, edge), (cloud_t, cloud) = (
        price_cycle(t_tx, w, t_rx, t_i, profile) for w in (w1, w2))
    assume(not (edge_t.prom_tx or edge_t.prom_rx or cloud_t.prom_tx
                or cloud_t.prom_rx))
    assume(cloud.e_i > 0)
    rho = edge.e_i / cloud.e_i
    quiet = t_i - t_tx - t_rx
    if w1 + w2 <= quiet:
        assert rho <= 1 + 1e-12
    if w1 + w2 >= quiet:
        assert rho >= 1 - 1e-12
