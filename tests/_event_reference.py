"""Event-walk oracle for the closed-form cycle energy.

``ltenergy.analytic.price_cycle`` prices a cycle from its phase durations
and its period in closed form.  This module prices the same cycle another
way: it lays the cycle out as packet events and walks the radio state
machine over them, gap by gap and packet by packet.  The property tests
require the two to agree.  The walk carries its own copies of the decay
chain and its IDLE threshold, of the promotion energy and of the
segmenting of transfers into packets, so a change to any of them in the
library shows as a difference.
"""

import math

from ltenergy.analytic import (DEFAULT_DOWNLINK_BPS, DEFAULT_UPLINK_BPS,
                               PhaseTiming)

from _trace_reference import PacketEvent

MSS_BYTES = 1448
CLIENT = ("198.51.100.10", 52000)
SERVER = ("203.0.113.5", 80)


def serialisation_ms(nbytes, bitrate_bps):
    return 8.0 * nbytes / bitrate_bps * 1000.0


def decay_energy(gap, profile):
    """Energy (mJ) of a quiet gap that starts in CR: each state of the
    decay chain for its timer, IDLE for whatever remains."""
    chain = ((profile.t_cr, profile.p_cr), (profile.t_short, profile.p_short),
             (profile.t_long, profile.p_long), (math.inf, profile.p_idle))
    micro_joules = 0.0
    for timer, power in chain:
        spent = min(gap, timer)
        micro_joules += spent * power
        gap -= spent
    return micro_joules / 1000.0


def gap_energy(gap, profile):
    """A gap in which the radio reached IDLE and a promotion fits in its
    tail bills the tail as a promotion instead of idle time."""
    idle_entry = profile.t_cr + profile.t_short + profile.t_long
    if gap > idle_entry + profile.t_prom:
        return (decay_energy(gap - profile.t_prom, profile)
                + profile.t_prom * profile.p_prom / 1000.0)
    return decay_energy(gap, profile)


def event_driven_energy(events, profile, window, *,
                        uplink_bps=DEFAULT_UPLINK_BPS,
                        downlink_bps=DEFAULT_DOWNLINK_BPS):
    """Walk the radio state machine over an event sequence (mJ).

    The radio starts in CR at the window start.  Each silent gap accrues
    :func:`gap_energy`; client payload bytes accrue at the transmit power
    for their serialisation time, server bytes at the receive power.  The
    window is in epoch seconds like the timestamps.
    """
    start_s, end_s = window
    if end_s < start_s:
        raise ValueError("window end precedes window start")
    for earlier, later in zip(events, events[1:]):
        if later.timestamp < earlier.timestamp:
            raise ValueError("events must be sorted by timestamp")
    if events and (events[0].timestamp < start_s
                   or events[-1].timestamp > end_s):
        raise ValueError("window does not cover the events")

    cursor = start_s * 1000.0
    total = 0.0
    for e in events:
        t_ms = e.timestamp * 1000.0
        total += gap_energy(max(t_ms - cursor, 0.0), profile)
        if e.from_client:
            duration = serialisation_ms(e.payload_len, uplink_bps)
            total += duration * profile.p_tx / 1000.0
        else:
            duration = serialisation_ms(e.payload_len, downlink_bps)
            total += duration * profile.p_rx / 1000.0
        cursor = max(cursor, t_ms + duration)

    tail = end_s * 1000.0 - cursor
    if tail < -1e-6:
        raise ValueError("window ends before the last transfer completes")
    return total + decay_energy(max(tail, 0.0), profile)


def segments(nbytes):
    """Payload sizes of a transfer cut into full-size segments."""
    full, rest = divmod(nbytes, MSS_BYTES)
    return [MSS_BYTES] * full + ([rest] if rest else [])


def event(t_s, from_client, payload, seq):
    src, dst = (CLIENT, SERVER) if from_client else (SERVER, CLIENT)
    return PacketEvent(t_s, *src, *dst, payload, frozenset({"ACK"}), seq, 0,
                       from_client)


def canonical_cycle_events(b_tx, b_rx, t_w, t_q, *, prom_tx=False,
                           prom_rx=False, profile,
                           uplink_bps=DEFAULT_UPLINK_BPS,
                           downlink_bps=DEFAULT_DOWNLINK_BPS):
    """Events, timing and window of one idealised request-response cycle.

    Upload segments go back to back at the uplink rate, then the response
    arrives after the wait, then the residual quiet time runs out and a
    zero-payload marker opens the next cycle at the window end, so the
    window spans one period.  Charged promotions occupy real time inside
    the corresponding gap, so walking the events with
    :func:`event_driven_energy` gives the closed-form energy of the
    returned timing, which pricing its phases over that period derives.
    """
    if b_tx < 1 or b_rx < 1:
        raise ValueError("canonical cycles need at least one byte each way")
    timing = PhaseTiming(t_tx=serialisation_ms(b_tx, uplink_bps), t_w=t_w,
                         t_rx=serialisation_ms(b_rx, downlink_bps), t_q=t_q,
                         prom_tx=prom_tx, prom_rx=prom_rx)

    events = []
    cursor = 0.0  # ms
    wait = t_w + (profile.t_prom if prom_rx else 0.0)
    quiet = t_q + (profile.t_prom if prom_tx else 0.0)
    for from_client, size, bps, pause in ((True, b_tx, uplink_bps, wait),
                                          (False, b_rx, downlink_bps, quiet)):
        seq = 0
        for seg in segments(size):
            events.append(event(cursor / 1000.0, from_client, seg, seq))
            seq += seg
            cursor += serialisation_ms(seg, bps)
        cursor += pause
    events.append(event(cursor / 1000.0, True, 0, 0))
    return events, timing, (0.0, cursor / 1000.0)
