"""The quiet-gap walk of ``cycle_pricer`` against the ``min()`` form.

The walk compares a gap with each boundary of the CR -> SHORT -> LONG ->
IDLE chain in order and takes each dwell by a comparison.  ``min_walk``
keeps the form it replaced, one ``min()`` per dwell, as the reference: the
two must agree bit for bit, sign included, over random profiles and gaps
at, just below and just above each boundary.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from ltenergy.analytic import cycle_pricer
from ltenergy.power_model import default_profile

from test_model_properties import profiles

# Profiles without duty cycles are valid; their skipped check only warns.
pytestmark = pytest.mark.filterwarnings("ignore:profile has no")

DEFAULT = default_profile()


def min_walk(profile, gap):
    """The gap energy (mJ) as the ``min()`` form of the walk priced it."""
    t_cr, t_short = profile.t_cr, profile.t_short
    micro_joules = min(gap, t_cr) * profile.p_cr
    if gap > t_cr:
        micro_joules += min(gap - t_cr, t_short) * profile.p_short
    if gap > t_cr + t_short:
        micro_joules += min(gap - t_cr - t_short,
                            profile.t_long) * profile.p_long
    if gap > profile.idle_entry_ms:
        micro_joules += (gap - profile.idle_entry_ms) * profile.p_idle
    return micro_joules / 1000.0


def edge_gaps(profile):
    """0.0, -0.0 and each chain boundary with its float neighbours."""
    bounds = (profile.t_cr, profile.t_cr + profile.t_short,
              profile.idle_entry_ms)
    return [0.0, -0.0, *(near for b in bounds for near in (
        math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)))]


@st.composite
def profile_gaps(draw):
    """A profile and a gap at one of its boundaries or anywhere up to past
    twice its IDLE entry."""
    profile = draw(profiles())
    gap = draw(st.one_of(
        st.sampled_from(edge_gaps(profile)),
        st.floats(0.0, 2.5 * profile.idle_entry_ms)))
    return profile, gap


def at_default_boundaries(test):
    for gap in edge_gaps(DEFAULT):
        test = example(case=(DEFAULT, gap))(test)
    return test


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(case=profile_gaps())
@at_default_boundaries
def test_walk_equals_min_form_bit_for_bit(case):
    profile, gap = case
    energy = cycle_pricer(profile).waits([gap])[0][1]
    expected = min_walk(profile, gap)
    assert (energy.hex(), math.copysign(1.0, energy)) == \
        (expected.hex(), math.copysign(1.0, expected))
