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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .power_model import PowerProfile

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
    "idle_gap_energy",
    "quiet_time",
    "energy_parts",
    "energy_ratio",
    "timing_from_phases",
    "phase_timing",
    "cycle_energy",
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


@dataclass(frozen=True)
class ConnectionlessScenario:
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

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
        if self.t_i <= 0:
            raise ValueError("t_i must be strictly positive")
        for name in ("t_elab", "rtt", "b_tx", "b_rx"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.uplink_bps <= 0 or self.downlink_bps <= 0:
            raise ValueError("bitrates must be strictly positive")

    def workload(self) -> tuple[float, ...]:
        """Every field but ``rtt``: what two compared placements share."""
        return (self.t_i, self.t_elab, self.b_tx, self.b_rx,
                self.uplink_bps, self.downlink_bps)


@dataclass(frozen=True)
class PhaseTiming:
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

    def __post_init__(self) -> None:
        for name in ("t_tx", "t_w", "t_rx", "t_q"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase energies of one cycle, in mJ."""

    e_tx: float
    e_w: float
    e_rx: float
    e_q: float
    e_prom_tx: float
    e_prom_rx: float
    e_i: float  # total

    def __post_init__(self) -> None:
        parts = (
            self.e_tx, self.e_w, self.e_rx, self.e_q,
            self.e_prom_tx, self.e_prom_rx,
        )
        if any(p < 0 for p in parts):
            raise ValueError("energy components must be non-negative")
        if self.e_i != (self.e_tx + self.e_w + self.e_rx + self.e_q
                        + self.e_prom_tx + self.e_prom_rx):
            raise ValueError("e_i must equal the sum of its components")


@dataclass(frozen=True)
class ComparisonResult:
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


def idle_gap_energy(gap: float, profile: PowerProfile) -> float:
    """Energy (mJ) spent over a quiet gap that starts in CR.

    The radio holds CR for ``t_cr``, SHORT DRX for ``t_short``, LONG DRX
    for ``t_long``, and sits in IDLE for whatever remains, each segment
    billed at its state power.  The result is continuous and strictly
    increasing in the gap, with segment slopes decreasing along the chain.
    """
    if gap < 0:
        raise ValueError("gap must be non-negative")
    p = profile
    micro_joules = min(gap, p.t_cr) * p.p_cr
    if gap > p.t_cr:
        micro_joules += min(gap - p.t_cr, p.t_short) * p.p_short
    if gap > p.t_cr + p.t_short:
        micro_joules += min(gap - p.t_cr - p.t_short, p.t_long) * p.p_long
    if gap > p.idle_entry_ms:
        micro_joules += (gap - p.idle_entry_ms) * p.p_idle
    return micro_joules / 1000.0


def quiet_time(t_tx: float, t_w: float, t_rx: float, t_i: float,
               profile: PowerProfile) -> tuple[float, bool, bool]:
    """Residual quiet time and promotion charges of a cycle, as plain floats.

    Returns ``(t_q, prom_tx, prom_rx)``.  ``t_q`` is the period minus the
    three phases and any charged promotion durations.  A response promotion
    is charged when ``t_w`` alone walks the radio into IDLE.  A request
    promotion is charged only when the residual quiet time, after setting
    the promotion itself aside, still walks the radio into IDLE; a residual
    that merely grazes the IDLE threshold by less than one promotion length
    stays uncharged, so the IDLE segment of the quiet-time energy and the
    promotion charge always co-occur.
    """
    threshold = profile.idle_entry_ms
    prom_rx = t_w > threshold
    residual = t_i - t_tx - t_rx - t_w
    if prom_rx:
        residual -= profile.t_prom
    prom_tx = residual - profile.t_prom > threshold
    t_q = residual - profile.t_prom if prom_tx else residual
    if t_q < 0:
        raise PeriodOverrunError(-t_q)
    return t_q, prom_tx, prom_rx


def energy_parts(t_tx: float, t_w: float, t_rx: float, t_q: float,
                 prom_tx: bool, prom_rx: bool, profile: PowerProfile
                 ) -> tuple[float, ...]:
    """Energy of one cycle (mJ), as plain floats in ``EnergyBreakdown``
    field order: the six per-phase parts followed by their total.

    Transfers run at fixed power, quiet gaps decay through the DRX chain,
    and charged promotions add one promotion energy each.
    """
    e_tx = t_tx * profile.p_tx / 1000.0
    e_w = idle_gap_energy(t_w, profile)
    e_rx = t_rx * profile.p_rx / 1000.0
    e_q = idle_gap_energy(t_q, profile)
    e_prom = profile.promotion_energy_mj
    e_prom_tx = e_prom if prom_tx else 0.0
    e_prom_rx = e_prom if prom_rx else 0.0
    return (e_tx, e_w, e_rx, e_q, e_prom_tx, e_prom_rx,
            e_tx + e_w + e_rx + e_q + e_prom_tx + e_prom_rx)


def energy_ratio(edge_mj: float, cloud_mj: float) -> float:
    """rho: the edge cycle energy over the cloud cycle energy."""
    if cloud_mj == 0:
        raise ValueError("cloud cycle energy is zero; ratio undefined")
    return edge_mj / cloud_mj


def timing_from_phases(t_tx: float, t_w: float, t_rx: float, t_i: float,
                       profile: PowerProfile) -> PhaseTiming:
    """Full cycle timing from measured or computed phases; see
    :func:`quiet_time`."""
    t_q, prom_tx, prom_rx = quiet_time(t_tx, t_w, t_rx, t_i, profile)
    return PhaseTiming(t_tx, t_w, t_rx, t_q, prom_tx=prom_tx, prom_rx=prom_rx)


def phase_timing(scn: ConnectionlessScenario,
                 profile: PowerProfile) -> PhaseTiming:
    """Cycle timing of a connectionless scenario."""
    t_tx = transfer_time(scn.b_tx, scn.uplink_bps)
    t_rx = transfer_time(scn.b_rx, scn.downlink_bps)
    t_w = scn.t_elab + scn.rtt
    return timing_from_phases(t_tx, t_w, t_rx, scn.t_i, profile)


def cycle_energy(timing: PhaseTiming, profile: PowerProfile
                 ) -> EnergyBreakdown:
    """Energy of one cycle; see :func:`energy_parts`."""
    return EnergyBreakdown(*energy_parts(
        timing.t_tx, timing.t_w, timing.t_rx, timing.t_q,
        timing.prom_tx, timing.prom_rx, profile))


def compare(edge_scn: ConnectionlessScenario,
            cloud_scn: ConnectionlessScenario,
            profile: PowerProfile) -> ComparisonResult:
    """Evaluate both placements of an otherwise identical workload.

    The scenarios must differ in ``rtt`` alone; any other difference would
    make the energy ratio meaningless and is rejected.
    """
    if edge_scn.workload() != cloud_scn.workload():
        raise ValueError("scenarios must differ only in rtt")
    edge = cycle_energy(phase_timing(edge_scn, profile), profile)
    cloud = cycle_energy(phase_timing(cloud_scn, profile), profile)
    return ComparisonResult(
        edge=edge,
        cloud=cloud,
        rho=energy_ratio(edge.e_i, cloud.e_i),
        delta_rtt=cloud_scn.rtt - edge_scn.rtt,
    )
