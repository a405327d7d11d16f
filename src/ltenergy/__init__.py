"""Energy model for LTE terminal nodes talking to edge or cloud servers.

The package prices the per-cycle energy of a periodic request-response
client over a four-state LTE radio model, compares edge against cloud
server placement (the ratio of their cycle energies), sweeps the operating
parameters, optimises the batching period against a combined energy/delay
cost, and evaluates connection-oriented workloads from packet trace
exports.
"""

from .power_model import (
    DutyCycleSpec,
    PowerProfile,
    RadioState,
    decay_state_at,
    default_profile,
    load_profile,
    mean_power,
    profile_from_dict,
    profile_to_dict,
)
from .analytic import (
    DEFAULT_DOWNLINK_BPS,
    DEFAULT_EDGE_RTT_MS,
    DEFAULT_UPLINK_BPS,
    ComparisonResult,
    ConnectionlessScenario,
    EnergyBreakdown,
    PeriodOverrunError,
    PhaseTiming,
    compare,
    cycle_energy,
    idle_gap_energy,
    phase_timing,
    timing_from_phases,
    transfer_time,
)
from .sweep import (
    CostCurve,
    CostPoint,
    CostSpec,
    SweepAxis,
    SweepCell,
    SweepResult,
    SweepSpec,
    cost_curve,
    per_cycle_payload,
    run_sweep,
)
from .traces import (
    AggregateResult,
    Direction,
    IncompleteExchangeError,
    PacketEvent,
    TraceIteration,
    TraceParseError,
    aggregate,
    canonical_cycle_events,
    event_driven_energy,
    events_to_lines,
    extract_get_phases,
    extract_post_phases,
    iteration_energy,
    parse_events,
    rho_from_traces,
    scheduled_phases,
    synthesize_trace,
)

__version__ = "0.1.0"
