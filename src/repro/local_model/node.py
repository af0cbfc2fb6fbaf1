"""Node-side abstractions: per-node state and the algorithm interface.

A distributed algorithm in this package is a :class:`NodeAlgorithm`
subclass.  The runner creates **one algorithm instance per node** so
subclasses may freely keep per-node state on ``self``; the immutable
facts about the node (its identifier, neighbour set, local input) live in
the :class:`NodeContext` passed to every callback.

The execution contract per synchronous round is:

1. the runner collects the messages addressed to the node in the previous
   round into an :class:`~repro.local_model.messages.Inbox`;
2. it calls :meth:`NodeAlgorithm.on_round`;
3. the algorithm reads the inbox, updates its state, and queues outgoing
   messages with :meth:`NodeContext.send`;
4. once the node has produced its final output it calls
   :meth:`NodeContext.halt` (optionally with an output value).

Messages queued in round *t* are delivered at the start of round *t + 1*,
exactly as in the standard synchronous LOCAL model.
"""

from __future__ import annotations

import abc
from typing import Any, FrozenSet, Hashable

from repro.local_model.errors import HaltedNodeError, UnknownNeighborError
from repro.local_model.messages import Inbox, Outbox

NodeId = Hashable


class NodeContext:
    """Mutable per-node execution context owned by the runner.

    Instances expose the information a LOCAL-model node legitimately has
    access to: its own identifier, the identifiers of its neighbours, its
    local input, and primitives to send messages and halt.  They also carry
    the node's output once it halts.
    """

    __slots__ = (
        "node_id",
        "neighbors",
        "local_input",
        "round_number",
        "_outbox",
        "_halted",
        "_output",
    )

    def __init__(
        self, node_id: NodeId, neighbors: FrozenSet[NodeId], local_input: Any
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.local_input = local_input
        self.round_number = 0
        self._outbox = Outbox()
        self._halted = False
        self._output: Any = None

    # -- messaging ------------------------------------------------------
    def send(self, neighbor: NodeId, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``neighbor`` at the next round.

        Raises
        ------
        UnknownNeighborError
            If ``neighbor`` is not adjacent to this node.
        HaltedNodeError
            If the node has already halted.
        """
        if self._halted:
            raise HaltedNodeError(f"node {self.node_id!r} has halted and cannot send")
        if neighbor not in self.neighbors:
            raise UnknownNeighborError(self.node_id, neighbor)
        self._outbox.put(neighbor, payload)

    def broadcast(self, payload: Any) -> None:
        """Send the same ``payload`` to every neighbour."""
        for neighbor in self.neighbors:
            self.send(neighbor, payload)

    # -- lifecycle ------------------------------------------------------
    def halt(self, output: Any = None) -> None:
        """Mark this node as finished and record its final ``output``.

        A halted node is never scheduled again; messages addressed to it
        are silently dropped (they can no longer influence the output, so
        this matches the LOCAL-model convention that halted nodes have
        committed to their output).
        """
        self._halted = True
        self._output = output

    @property
    def halted(self) -> bool:
        """Whether the node has committed to its output."""
        return self._halted

    @property
    def output(self) -> Any:
        """The node's committed output (``None`` until it halts)."""
        return self._output

    def set_output(self, output: Any) -> None:
        """Update the provisional output without halting.

        Useful for algorithms whose output is well-defined at every round
        (e.g. the current orientation) and that stop via a global round
        budget rather than local detection.
        """
        self._output = output

    # -- runner-side plumbing ------------------------------------------
    def _drain_outbox(self) -> Outbox:
        """Return and reset the node's outbox (runner use only)."""
        outbox, self._outbox = self._outbox, Outbox()
        return outbox

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "halted" if self._halted else "active"
        return f"NodeContext({self.node_id!r}, {state}, round={self.round_number})"


class NodeAlgorithm(abc.ABC):
    """Base class for per-node LOCAL-model algorithms.

    Subclasses implement :meth:`on_start` (round 0 initialisation, may
    already send messages) and :meth:`on_round` (one synchronous round).
    The runner instantiates the class once per node via the
    :class:`AlgorithmFactory` protocol -- in the common case the class
    itself is used as the factory and receives no constructor arguments.
    """

    @abc.abstractmethod
    def on_start(self, ctx: NodeContext) -> None:
        """Initialise local state and optionally send round-0 messages."""

    @abc.abstractmethod
    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        """Execute one synchronous round given the delivered messages."""

    def on_stop(self, ctx: NodeContext) -> None:
        """Hook invoked once when the simulation ends (optional)."""


class AlgorithmFactory:
    """Creates one :class:`NodeAlgorithm` instance per node.

    Wraps either a ``NodeAlgorithm`` subclass or an arbitrary callable
    ``(node_id) -> NodeAlgorithm``.  Keeping this explicit allows
    algorithms to be parameterised (e.g. with tie-breaking policies)
    without resorting to globals.

    Parameters
    ----------
    factory:
        The per-node algorithm constructor.
    compact_kernel:
        Optional int-array fast path for the *whole execution*: a callable
        ``(network, max_rounds) -> (outputs, metrics)`` that takes the
        :class:`~repro.local_model.network.Network` itself and returns
        ``outputs`` keyed by node id and ``metrics`` an
        :class:`~repro.local_model.metrics.ExecutionMetrics`.  A kernel
        promises to reproduce the reference scheduler's execution exactly
        (same outputs, same round count, same message count, same halt
        rounds, and the same
        :class:`~repro.local_model.errors.RoundLimitExceeded` when
        ``max_rounds`` runs out); an untraced
        :meth:`~repro.local_model.runner.Runner.run` takes it, and
        algorithms that register no kernel run on the reference
        scheduler.
    """

    def __init__(self, factory: Any, compact_kernel: Any = None) -> None:
        self.compact_kernel = compact_kernel
        if isinstance(factory, type) and issubclass(factory, NodeAlgorithm):
            self._factory = lambda node_id: factory()
        elif callable(factory):
            self._factory = factory
        else:  # pragma: no cover - defensive
            raise TypeError(
                "factory must be a NodeAlgorithm subclass or a callable "
                f"(node_id) -> NodeAlgorithm, got {factory!r}"
            )

    def create(self, node_id: NodeId) -> NodeAlgorithm:
        algorithm = self._factory(node_id)
        if not isinstance(algorithm, NodeAlgorithm):  # pragma: no cover - defensive
            raise TypeError(
                f"factory returned {algorithm!r}, expected a NodeAlgorithm instance"
            )
        return algorithm


class StatelessRelay(NodeAlgorithm):
    """A trivial algorithm that halts immediately, echoing its local input.

    Used in tests and as a smoke-test algorithm for the simulator itself.
    """

    def on_start(self, ctx: NodeContext) -> None:
        ctx.halt(ctx.local_input)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:  # pragma: no cover
        ctx.halt(ctx.local_input)
