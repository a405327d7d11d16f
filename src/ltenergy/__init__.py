"""Energy model for LTE terminal nodes talking to edge or cloud servers.

The package prices the per-cycle energy of a periodic request-response
client over a four-state LTE radio model, compares edge against cloud
server placement (the ratio of their cycle energies), sweeps the operating
parameters, optimises the batching period against a combined energy/delay
cost, and evaluates connection-oriented workloads from packet trace
exports.  The package re-exports nothing: each name is imported from its
module (``power_model``, ``analytic``, ``sweep``, ``traces``, ``cli``), so
importing the package loads none of them.
"""

__version__ = "0.1.0"
