"""Closed-form per-cycle energy of a periodic request-response client.

One application cycle of period ``t_i`` splits into four phases: the
request upload (``t_tx``), the wait for the first response byte (``t_w``,
equal to server elaboration time plus round-trip time), the response
download (``t_rx``), and the residual quiet time (``t_q``).  The radio is
pinned to CR while transferring and decays through the DRX chain during the
two quiet phases.  If a quiet phase is long enough for the radio to reach
IDLE, the following transfer is preceded by a promotion whose duration is
carved out of the period and whose energy is charged to the cycle.

Comparing two placements of the server (an edge node with small RTT against
a distant cloud with large RTT) reduces to the ratio of their per-cycle
energies: a ratio below one means the edge placement saves energy.

The value types are checked tuples, equal to a plain tuple of their fields.
The per-cycle core, :func:`cycle_pricer`, is bound to one profile: it
unpacks the profile once and prices rows of cycles in plain floats, so a
sweep binds it once and prices all clouds of a row with one call.
:func:`price_cycle` and :func:`price_scenario` price a row of one cycle
into its :class:`PhaseTiming` and :class:`EnergyBreakdown`.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

from .power_model import PowerProfile, _check_finite, _checked

__all__ = [
    "DEFAULT_UPLINK_BPS",
    "DEFAULT_DOWNLINK_BPS",
    "DEFAULT_EDGE_RTT_MS",
    "ConnectionlessScenario",
    "PhaseTiming",
    "EnergyBreakdown",
    "ComparisonResult",
    "PeriodOverrunError",
    "transfer_time",
    "cycle_pricer",
    "energy_ratio",
    "price_cycle",
    "price_scenario",
    "compare",
]

DEFAULT_UPLINK_BPS = 1_000_000.0
DEFAULT_DOWNLINK_BPS = 800_000.0
DEFAULT_EDGE_RTT_MS = 40.0


class PeriodOverrunError(ValueError):
    """A cycle's phases exceed the application period.

    The model presumes every cycle fits inside its period; clamping the
    residual quiet time would silently corrupt energy ratios, so overruns
    are reported with the missing time instead.
    """

    def __init__(self, deficit_ms: float):
        self.deficit_ms = deficit_ms
        spec = ".3f" if deficit_ms < 1e15 else ".3e"
        super().__init__(
            f"cycle phases exceed the period by {deficit_ms:{spec}} ms"
        )


@_checked
class ConnectionlessScenario(NamedTuple):
    """Parameters of a datagram-based periodic request-response client.

    ``b_tx``/``b_rx`` count bytes on the wire, stack overhead included.
    Without rate control the transfer times depend only on the byte counts
    and the configured interface bitrates.
    """

    t_i: float  # application period, ms
    t_elab: float = 0.0  # server elaboration time, ms
    rtt: float = DEFAULT_EDGE_RTT_MS  # round-trip time to the server, ms
    b_tx: float = 0.0  # bytes uploaded per cycle
    b_rx: float = 0.0  # bytes downloaded per cycle
    uplink_bps: float = DEFAULT_UPLINK_BPS
    downlink_bps: float = DEFAULT_DOWNLINK_BPS

    def _check(self) -> None:
        for name, value in zip(self._fields, self):
            _check_finite(name, value)
        if self.t_i <= 0:
            raise ValueError("t_i must be strictly positive")
        for name in ("t_elab", "rtt", "b_tx", "b_rx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError("bitrates must be strictly positive")


@_checked
class PhaseTiming(NamedTuple):
    """Durations of one cycle's phases plus promotion charges.

    ``prom_rx`` is set when the radio reached IDLE while waiting for the
    response (``t_w`` beyond the decay chain), ``prom_tx`` when it reached
    IDLE during the residual quiet time before the next request.  Charged
    promotion durations are already carved out of ``t_q``, so
    ``t_tx + t_w + t_rx + t_q`` plus the charged promotions equals the
    period this timing was derived from.
    """

    t_tx: float
    t_w: float
    t_rx: float
    t_q: float
    prom_tx: bool = False
    prom_rx: bool = False

    def _check(self) -> None:
        for name in ("t_tx", "t_w", "t_rx", "t_q"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class EnergyBreakdown(NamedTuple):
    """Per-phase energies of one cycle, in mJ, as :func:`cycle_pricer`
    returns them: non-negative parts and their total."""

    e_tx: float
    e_w: float
    e_rx: float
    e_q: float
    e_prom_tx: float
    e_prom_rx: float
    e_i: float  # total


class ComparisonResult(NamedTuple):
    """Outcome of evaluating the same workload against both placements."""

    edge: EnergyBreakdown
    cloud: EnergyBreakdown
    rho: float  # edge.e_i / cloud.e_i
    delta_rtt: float  # cloud RTT minus edge RTT, ms


def transfer_time(nbytes: float, bitrate_bps: float) -> float:
    """Time (ms) to move ``nbytes`` over a link of ``bitrate_bps``."""
    if bitrate_bps <= 0:
        raise ValueError("bitrate must be strictly positive")
    return 8.0 * nbytes / bitrate_bps * 1000.0


def cycle_pricer(profile: PowerProfile
                 ) -> Callable[[float, float, float, float], tuple]:
    """The one per-cycle core, bound to ``profile``, which it unpacks once.

    Its unit is the row: the cycles of each of its legs with each of its
    waits, leg-major, so a row whose cells differ in period or transfers
    passes one wait and one whose cells differ in wait passes one leg.
    ``price.legs(t_txs, t_rxs, t_is)`` derives each leg ``(span, e_tx,
    e_rx)`` and ``price.waits(t_ws)`` each wait ``(t_w, e_w)``, once for
    every row that shares it.  ``price.row(legs, waits)`` returns each cycle
    as ``(t_q, prom_tx, prom_rx)`` and the energy parts (mJ) in
    ``EnergyBreakdown`` field order, in plain floats; a cycle that overruns
    its period is its :class:`PeriodOverrunError`, one whose total overflows
    a float its ``ValueError``, and an error in place of a leg or a wait is
    each of its cycles, unpriced.  The scalar ``price(t_tx, t_w, t_rx,
    t_i)`` is the row of one leg and one wait, whose tuple it returns or
    whose error it raises.  Phases are non-negative, as
    ``traces.TraceIteration`` and the checked value types check.

    ``t_q`` is the period minus the three phases and any charged promotion
    durations.  A response promotion is charged when ``t_w`` alone walks
    the radio into IDLE, a request promotion only when the residual quiet
    time, the promotion itself set aside, still does: a residual that
    grazes the IDLE threshold by less than one promotion length stays
    uncharged, so the IDLE segment of the quiet-time energy and the
    promotion charge always co-occur.  Transfers run at fixed power, each
    charged promotion costs one promotion energy, and a quiet gap starts in
    CR and holds it for ``t_cr``, SHORT DRX for ``t_short`` and LONG DRX
    for ``t_long``, then sits in IDLE, each segment at its state power.  Its
    walk compares the gap with each boundary in chain order, takes each dwell
    as ``min(rest, dwell)`` does, and adds nothing for a state not reached.
    """
    (p_tx, p_rx, p_cr, p_short, p_long, p_idle, p_prom, t_cr, t_short,
     t_long, t_prom, _, _, _) = profile
    cr_short = t_cr + t_short
    threshold = profile.idle_entry_ms
    e_cr, e_prom = t_cr * p_cr, t_prom * p_prom / 1000.0

    def gap_energy(gap: float) -> float:
        if not gap > t_cr:
            return gap * p_cr / 1000.0
        d = gap - t_cr
        micro_joules = e_cr + (t_short if t_short < d else d) * p_short
        if gap > cr_short:
            d -= t_short  # the float gap - t_cr - t_short
            micro_joules += (t_long if t_long < d else d) * p_long
            if gap > threshold:
                micro_joules += (gap - threshold) * p_idle
        return micro_joules / 1000.0

    def waits(t_ws: Iterable[float]) -> list[tuple[float, float]]:
        return [(t_w, gap_energy(t_w)) for t_w in t_ws]

    def legs(t_txs: Iterable[float], t_rxs: Iterable[float],
             t_is: Iterable[float]) -> list[tuple[float, float, float]]:
        # span is t_i - t_tx - t_rx: residual rounds as t_i - t_tx - t_rx - t_w
        return [(t_i - t_tx - t_rx, t_tx * p_tx / 1000.0, t_rx * p_rx / 1000.0)
                for t_tx, t_rx, t_i in zip(t_txs, t_rxs, t_is)]

    def row(legs: list, waits: list) -> list:
        cycles = []
        for leg in legs:
            try:
                span, e_tx, e_rx = leg
            except TypeError:  # an error in place of a leg
                cycles += [leg] * len(waits)
                continue
            for wait in waits:
                try:
                    t_w, e_w = wait
                except TypeError:  # an error in place of a wait
                    cycles.append(wait)
                    continue
                prom_rx = t_w > threshold
                residual = span - t_w
                if prom_rx:
                    residual -= t_prom
                prom_tx = residual - t_prom > threshold
                t_q = residual - t_prom if prom_tx else residual
                if t_q < 0:
                    cycles.append(PeriodOverrunError(-t_q))
                    continue
                e_q = gap_energy(t_q)
                e_prom_tx = e_prom if prom_tx else 0.0
                e_prom_rx = e_prom if prom_rx else 0.0
                e_i = e_tx + e_w + e_rx + e_q + e_prom_tx + e_prom_rx
                cycles.append((t_q, prom_tx, prom_rx, e_tx, e_w, e_rx, e_q,
                               e_prom_tx, e_prom_rx, e_i) if e_i < math.inf
                              else ValueError("cycle energy overflows a float"))
        return cycles

    def price(t_tx: float, t_w: float, t_rx: float, t_i: float) -> tuple:
        cycle, = row(legs((t_tx,), (t_rx,), (t_i,)), waits((t_w,)))
        if isinstance(cycle, ValueError):
            raise cycle
        return cycle

    price.legs, price.waits, price.row = legs, waits, row
    return price


def energy_ratio(edge_mj: float, cloud_mj: float) -> float:
    """rho: the edge cycle energy over the cloud cycle energy.  A zero cloud
    energy or a ratio that overflows a float raises ``ValueError``."""
    rho = edge_mj / cloud_mj if cloud_mj else math.inf
    if not rho < math.inf:
        raise ValueError(f"rho = {edge_mj!r}/{cloud_mj!r} is not finite")
    return rho


def price_cycle(t_tx: float, t_w: float, t_rx: float, t_i: float,
                profile: PowerProfile
                ) -> tuple[PhaseTiming, EnergyBreakdown]:
    """Timing and energy of one cycle from its three phases and its period,
    priced once; see :func:`cycle_pricer`."""
    t_q, prom_tx, prom_rx, *parts = cycle_pricer(profile)(t_tx, t_w, t_rx, t_i)
    return (PhaseTiming(t_tx, t_w, t_rx, t_q, prom_tx, prom_rx),
            EnergyBreakdown(*parts))


def price_scenario(scn: ConnectionlessScenario, profile: PowerProfile
                   ) -> tuple[PhaseTiming, EnergyBreakdown]:
    """Timing and energy of one cycle of a connectionless scenario."""
    return price_cycle(transfer_time(scn.b_tx, scn.uplink_bps),
                       scn.t_elab + scn.rtt,
                       transfer_time(scn.b_rx, scn.downlink_bps),
                       scn.t_i, profile)


def compare(edge_scn: ConnectionlessScenario,
            cloud_scn: ConnectionlessScenario,
            profile: PowerProfile) -> ComparisonResult:
    """Evaluate both placements of an otherwise identical workload.

    The scenarios must differ in ``rtt`` alone; any other difference would
    make the energy ratio meaningless and is rejected, as is an energy or
    ratio that overflows a float.
    """
    if edge_scn._replace(rtt=cloud_scn.rtt) != cloud_scn:
        raise ValueError("scenarios must differ only in rtt")
    edge = price_scenario(edge_scn, profile)[1]
    cloud = price_scenario(cloud_scn, profile)[1]
    return ComparisonResult(edge, cloud, energy_ratio(edge.e_i, cloud.e_i),
                            cloud_scn.rtt - edge_scn.rtt)
