"""Synchronous LOCAL-model simulator.

This subpackage provides the execution substrate for every distributed
algorithm in the reproduction: an undirected communication graph
(:class:`Network`), per-node state machines (:class:`NodeAlgorithm` /
:class:`NodeContext`), a synchronous scheduler, and a :class:`Runner`
that executes rounds until all nodes halt while counting rounds and
messages (:class:`ExecutionMetrics`).

The model matches Section 3 of the paper: computation proceeds in
synchronous communication rounds, message sizes are unbounded, nodes have
unique identifiers, and initially a node knows only its own identifier,
its local input, and the identifiers of its neighbours.

An algorithm may also register a whole-execution kernel on its
:class:`AlgorithmFactory` (``compact_kernel=``); an untraced
:meth:`Runner.run` then hands it the :class:`Network` and takes its
outputs and :class:`ExecutionMetrics`, which must equal the reference
scheduler's.  The token-dropping games' NumPy round kernels live in
:mod:`repro.core.token_dropping._kernels`.
"""

from repro.local_model.errors import (
    AlgorithmError,
    HaltedNodeError,
    RoundLimitExceeded,
    SimulationError,
    TopologyError,
    UnknownNeighborError,
)
from repro.local_model.messages import Envelope, Inbox, Outbox
from repro.local_model.metrics import ExecutionMetrics
from repro.local_model.network import Network
from repro.local_model.node import (
    AlgorithmFactory,
    NodeAlgorithm,
    NodeContext,
    StatelessRelay,
)
from repro.local_model.runner import DEFAULT_MAX_ROUNDS, ExecutionResult, Runner
from repro.local_model.scheduler import SynchronousScheduler
from repro.local_model.trace import ExecutionTrace, NullTrace, TraceEvent

__all__ = [
    "AlgorithmError",
    "AlgorithmFactory",
    "DEFAULT_MAX_ROUNDS",
    "Envelope",
    "ExecutionMetrics",
    "ExecutionResult",
    "ExecutionTrace",
    "HaltedNodeError",
    "Inbox",
    "Network",
    "NodeAlgorithm",
    "NodeContext",
    "NullTrace",
    "Outbox",
    "RoundLimitExceeded",
    "Runner",
    "SimulationError",
    "StatelessRelay",
    "SynchronousScheduler",
    "TopologyError",
    "TraceEvent",
    "UnknownNeighborError",
]
