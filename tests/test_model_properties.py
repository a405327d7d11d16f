"""Properties of the one energy accounting over random valid profiles and
scenarios.

Walking the radio state machine over a canonical cycle's events gives the
closed-form cycle energy; a cycle's phases plus its charged promotions add
up to its period; and two placements at equal RTT have a ratio of exactly
1, through ``compare`` and through ``run_sweep``.  The draws cover both
promotion branches, and explicit examples pin each one.
"""

import pytest
from hypothesis import (assume, example, given, reject, settings,
                        strategies as st)

from ltenergy import (
    ConnectionlessScenario,
    PeriodOverrunError,
    PowerProfile,
    SweepAxis,
    SweepSpec,
    canonical_cycle_events,
    compare,
    cycle_energy,
    default_profile,
    event_driven_energy,
    phase_timing,
    run_sweep,
)

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


def timing_or_reject(scn, profile):
    try:
        return phase_timing(scn, profile)
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
             for t in (phase_timing(scn, DEFAULT) for scn in BRANCHES)}
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
    timing = timing_or_reject(scn, profile)
    events, canonical, window = canonical_cycle_events(
        int(scn.b_tx), int(scn.b_rx), timing.t_w, timing.t_q,
        prom_tx=timing.prom_tx, prom_rx=timing.prom_rx, profile=profile,
        uplink_bps=scn.uplink_bps, downlink_bps=scn.downlink_bps)
    assert canonical == timing
    walked = event_driven_energy(events, profile, window,
                                 uplink_bps=scn.uplink_bps,
                                 downlink_bps=scn.downlink_bps)
    closed = cycle_energy(timing, profile).e_i
    assert walked == pytest.approx(closed, rel=1e-12, abs=1e-9)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(profile=profiles(), scn=scenarios())
@with_branches
def test_time_is_conserved(profile, scn):
    t = timing_or_reject(scn, profile)
    charged = profile.t_prom * (t.prom_tx + t.prom_rx)
    total = t.t_tx + t.t_w + t.t_rx + t.t_q + charged
    assert total == pytest.approx(scn.t_i, rel=1e-12, abs=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(profile=profiles(), scn=scenarios())
@with_branches
def test_rho_is_exactly_one_at_equal_rtt(profile, scn):
    # A cycle that draws no energy at all has no ratio.
    assume(cycle_energy(timing_or_reject(scn, profile), profile).e_i > 0)
    assert compare(scn, scn, profile).rho == 1.0
    spec = SweepSpec(base_edge=scn, base_cloud=scn,
                     axes=(SweepAxis("rtt_cloud", scn.rtt, scn.rtt, 1),))
    (cell,) = run_sweep(spec, profile).cells
    assert cell.rho == 1.0 and cell.delta_rtt == 0.0
