"""Compact LOCAL-model substrate: flat-array round bookkeeping.

The reference simulator (:class:`~repro.local_model.scheduler.
SynchronousScheduler`) is the readable correctness oracle: per-node state
machines, per-message dict envelopes, hash-based neighbour sets.  Its hot
loop allocates one inbox and one outbox entry per message per round, which
caps simulated network sizes at toys.

:class:`CompactEngine` is a batched synchronous round engine for
compact kernels that loop over nodes in Python: it owns the flat
per-node state — alive flags, halt rounds, the round budget, and the
message counter — so such a kernel (the Theorem 4.7 three-level kernel)
only supplies the algorithm-specific phase logic over parallel arrays
(requests, grants, token positions) instead of per-message objects.
The proposal kernel keeps the same state in NumPy arrays of its own and
plays each round as vector ops.

Kernels register on :class:`~repro.local_model.node.AlgorithmFactory`
(``compact_kernel=``) and an untraced
:meth:`~repro.local_model.runner.Runner.run` hands them the
:class:`~repro.local_model.network.Network` itself.  Each kernel interns
the node ids into dense integers in ``repr``-sorted order (via
:func:`repro.graphs.compact.intern_nodes`) and memoizes what it derives
on the network.  Because the reference algorithms break ties by ``repr``
order, "ascending dense id" and "reference tie-break order" coincide,
which is what lets int-array kernels replay reference executions exactly.
Algorithms without a kernel, traced runs and
:meth:`~repro.local_model.runner.Runner.run_reference` take the reference
scheduler.
"""

from __future__ import annotations

from typing import Hashable, Tuple

from repro.local_model.errors import RoundLimitExceeded
from repro.local_model.metrics import ExecutionMetrics

NodeId = Hashable


class CompactEngine:
    """Batched synchronous round bookkeeping shared by compact kernels.

    Tracks exactly the runner-visible execution state — which nodes are
    still alive, when each node halted, how many communication rounds ran,
    and how many messages were delivered — as flat arrays and plain
    counters.  Kernels call :meth:`step` before simulating each
    communication round (replicating the reference runner's round-budget
    check), :meth:`halt` when a node commits, and :meth:`metrics` at the
    end to obtain an :class:`ExecutionMetrics` equal to the reference
    scheduler's.
    """

    __slots__ = (
        "num_nodes",
        "max_rounds",
        "alive",
        "halt_rounds",
        "n_alive",
        "rounds",
        "messages",
    )

    def __init__(self, num_nodes: int, max_rounds: int) -> None:
        self.num_nodes = num_nodes
        self.max_rounds = max_rounds
        self.alive = bytearray(b"\x01" * num_nodes)
        self.halt_rounds = [-1] * num_nodes
        self.n_alive = num_nodes
        self.rounds = 0
        self.messages = 0

    def step(self) -> int:
        """Enter the next communication round, enforcing the round budget.

        Mirrors the reference runner: with active nodes remaining, a new
        round may only start while fewer than ``max_rounds`` rounds have
        completed; otherwise the execution fails loudly.
        """
        if self.rounds >= self.max_rounds:
            raise RoundLimitExceeded(self.max_rounds, self.n_alive)
        self.rounds += 1
        return self.rounds

    def halt(self, node: int, round_number: int) -> None:
        """Record that dense node ``node`` halted at ``round_number``."""
        if self.alive[node]:
            self.alive[node] = 0
            self.halt_rounds[node] = round_number
            self.n_alive -= 1

    def metrics(self, node_ids: Tuple[NodeId, ...]) -> ExecutionMetrics:
        """Build the reference-equal :class:`ExecutionMetrics`."""
        halt_rounds = {
            node_ids[i]: r for i, r in enumerate(self.halt_rounds) if r >= 0
        }
        return ExecutionMetrics(
            rounds=self.rounds,
            messages_sent=self.messages,
            node_halt_rounds=halt_rounds,
            halted_nodes=len(halt_rounds),
            total_nodes=self.num_nodes,
        )
