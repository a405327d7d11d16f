"""Energy model for LTE terminal nodes talking to edge or cloud servers.

The package prices the per-cycle energy of a periodic request-response
client over a four-state LTE radio model, compares edge against cloud
server placement (the ratio of their cycle energies), sweeps the operating
parameters, optimises the batching period against a combined energy/delay
cost, and evaluates connection-oriented workloads from packet trace
exports.  The package serves the ``__all__`` of its modules
``power_model``, ``analytic`` and ``sweep``; the packet-trace names
(``parse_events``, ``aggregate``, ...) come from ``ltenergy.traces``, which
only the trace commands import.
"""

from .power_model import *  # noqa: F401,F403
from .analytic import *  # noqa: F401,F403
from .sweep import *  # noqa: F401,F403

__version__ = "0.1.0"
