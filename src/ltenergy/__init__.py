"""Energy model for LTE terminal nodes talking to edge or cloud servers.

The package prices the per-cycle energy of a periodic request-response
client over a four-state LTE radio model, compares edge against cloud
server placement (the ratio of their cycle energies), sweeps the operating
parameters, optimises the batching period against a combined energy/delay
cost, and evaluates connection-oriented workloads from packet trace
exports.  The package's names are the ``__all__`` of its modules
``power_model``, ``analytic``, ``sweep`` and ``traces``; the packet-trace
names (``parse_events``, ``aggregate``, ...) load from ``ltenergy.traces``
the first time one is asked for.
"""

from .power_model import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

# ``traces.__all__``, served on first use by ``__getattr__`` (PEP 562).
_TRACE_NAMES = frozenset("""
    AggregateResult Direction IncompleteExchangeError PacketEvent
    TraceIteration TraceParseError aggregate events_to_lines
    extract_get_phases extract_post_phases parse_events rho_from_traces
    scheduled_phases synthesize_trace""".split())


def __getattr__(name: str):
    if name in _TRACE_NAMES:
        from . import traces
        return getattr(traces, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_TRACE_NAMES})


__version__ = "0.1.0"
