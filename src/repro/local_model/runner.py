"""Top-level driver for LOCAL-model executions.

:class:`Runner` wires a :class:`~repro.local_model.network.Network` to an
algorithm factory, runs synchronous rounds until every node halts (or a
round budget is exhausted), and returns an :class:`ExecutionResult`
containing per-node outputs and metrics.

Example
-------
>>> from repro.local_model import Network, Runner
>>> from repro.local_model.node import StatelessRelay
>>> net = Network(nodes=[1, 2], edges=[(1, 2)], local_inputs={1: "a", 2: "b"})
>>> result = Runner(net, StatelessRelay).run()
>>> result.outputs[1], result.metrics.rounds
('a', 0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

from repro import obs
from repro.local_model.errors import RoundLimitExceeded
from repro.local_model.metrics import ExecutionMetrics
from repro.local_model.network import Network
from repro.local_model.node import AlgorithmFactory
from repro.local_model.scheduler import SynchronousScheduler
from repro.local_model.trace import ExecutionTrace

NodeId = Hashable

#: Default hard cap on rounds.  All algorithms in this package come with
#: explicit poly(Δ) round bounds, so hitting this cap indicates a bug.
DEFAULT_MAX_ROUNDS = 1_000_000


@dataclass
class ExecutionResult:
    """Outcome of one simulated execution.

    Attributes
    ----------
    outputs:
        Mapping from node identifier to the node's committed output (the
        value passed to ``ctx.halt`` / ``ctx.set_output``).
    metrics:
        Round/message counters for the execution.
    trace:
        The execution trace if tracing was enabled, otherwise ``None``.
    """

    outputs: Dict[NodeId, Any]
    metrics: ExecutionMetrics
    trace: Optional[ExecutionTrace] = None

    @property
    def rounds(self) -> int:
        """Shorthand for ``metrics.rounds``."""
        return self.metrics.rounds


class Runner:
    """Runs a distributed algorithm on a network until completion.

    Parameters
    ----------
    network:
        Topology plus per-node local inputs.
    algorithm:
        A :class:`NodeAlgorithm` subclass, or a callable
        ``(node_id) -> NodeAlgorithm`` for parameterised algorithms.
    max_rounds:
        Hard cap on the number of rounds; :class:`RoundLimitExceeded` is
        raised if some node is still active when it is reached.  Pass a
        value derived from the algorithm's theoretical bound to turn the
        bound itself into a checked invariant.
    trace:
        Optional :class:`ExecutionTrace` to record messages and halts.
        Tracing records every individual message, so a traced run always
        takes the reference scheduler.

    :meth:`run` takes the int-array kernel when the factory registers a
    ``compact_kernel`` and no trace is requested, and the reference
    scheduler otherwise; :meth:`run_reference` always takes the reference
    scheduler, the oracle every kernel is cross-validated against.
    """

    def __init__(
        self,
        network: Network,
        algorithm: Any,
        *,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        trace: Optional[ExecutionTrace] = None,
    ) -> None:
        if max_rounds < 0:
            raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
        self.network = network
        self.factory = (
            algorithm
            if isinstance(algorithm, AlgorithmFactory)
            else AlgorithmFactory(algorithm)
        )
        self.max_rounds = max_rounds
        self.trace = trace

    def run(self) -> ExecutionResult:
        """Execute the algorithm until every node halts.

        Returns
        -------
        ExecutionResult
            Node outputs, metrics, and (optionally) the trace.

        Raises
        ------
        RoundLimitExceeded
            If some node is still active after ``max_rounds`` rounds.
        """
        kernel = self.factory.compact_kernel
        if kernel is not None and self.trace is None:
            return self._run_compact(kernel)
        return self.run_reference()

    def _run_compact(self, kernel: Any) -> ExecutionResult:
        """Fast path: run the whole execution on the int-array kernel."""
        with obs.span("local.run", backend="compact") as sp:
            outputs, metrics = kernel(self.network, self.max_rounds)
            metrics.terminated = True
            sp.set(
                nodes=metrics.total_nodes,
                rounds=metrics.rounds,
                messages=metrics.messages_sent,
            )
        return ExecutionResult(outputs=outputs, metrics=metrics, trace=None)

    def run_reference(self) -> ExecutionResult:
        """:meth:`run` on the per-node state-machine scheduler, always."""
        with obs.span("local.run", backend="dict") as sp:
            scheduler = SynchronousScheduler(
                self.network, self.factory, trace=self.trace
            )
            # Hoisted: at up to DEFAULT_MAX_ROUNDS iterations, even the
            # disabled span() call (and its kwargs dict) would be a
            # measurable per-round cost.
            traced = obs.enabled()
            scheduler.start()
            while not scheduler.all_halted():
                if scheduler.round_number >= self.max_rounds:
                    scheduler.stop()
                    raise RoundLimitExceeded(
                        self.max_rounds, sum(1 for _ in scheduler.active_nodes())
                    )
                if traced:
                    messages_before = scheduler.metrics.messages_sent
                    with obs.span(
                        "local.round", round=scheduler.round_number + 1
                    ) as rsp:
                        scheduler.step()
                        rsp.set(
                            messages=scheduler.metrics.messages_sent
                            - messages_before
                        )
                else:
                    scheduler.step()
            scheduler.stop()

            metrics: ExecutionMetrics = scheduler.metrics
            metrics.terminated = True
            sp.set(
                nodes=metrics.total_nodes,
                rounds=metrics.rounds,
                messages=metrics.messages_sent,
            )
        outputs = {
            node_id: ctx.output for node_id, ctx in scheduler.contexts.items()
        }
        return ExecutionResult(outputs=outputs, metrics=metrics, trace=self.trace)
