"""Energy model for LTE terminal nodes talking to edge or cloud servers.

The package prices the per-cycle energy of a periodic request-response
client over a four-state LTE radio model, compares edge against cloud
server placement (the ratio of their cycle energies), sweeps the operating
parameters, optimises the batching period against a combined energy/delay
cost, and evaluates connection-oriented workloads from packet trace
exports.  The packet-trace names (``parse_events``, ``aggregate``, ...)
load from ``ltenergy.traces`` the first time one is asked for.
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
# ``traces.__all__``, served on first use by ``__getattr__`` (PEP 562).
_TRACE_NAMES = frozenset("""
    AggregateResult Direction IncompleteExchangeError PacketEvent
    TraceIteration TraceParseError aggregate canonical_cycle_events
    event_driven_energy events_to_lines extract_get_phases extract_post_phases
    iteration_energy parse_events rho_from_traces scheduled_phases
    synthesize_trace""".split())


def __getattr__(name: str):
    if name in _TRACE_NAMES:
        from . import traces
        return getattr(traces, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_TRACE_NAMES})


__version__ = "0.1.0"
