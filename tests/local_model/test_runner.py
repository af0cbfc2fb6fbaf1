"""Unit and behaviour tests for the scheduler/runner pair.

These tests pin down the execution semantics all algorithm tests rely on:
message delivery one round later, exact round counting, halting behaviour,
and the round-limit safety valve.
"""

from __future__ import annotations

import pytest

from repro.local_model import (
    AlgorithmFactory,
    ExecutionTrace,
    Inbox,
    Network,
    NodeAlgorithm,
    NodeContext,
    RoundLimitExceeded,
    Runner,
    StatelessRelay,
    UnknownNeighborError,
)


class EchoNeighbors(NodeAlgorithm):
    """Each node learns its neighbours' local inputs in exactly one round."""

    def on_start(self, ctx: NodeContext) -> None:
        ctx.broadcast(ctx.local_input)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        ctx.halt(dict(inbox))


class CountDown(NodeAlgorithm):
    """Halts after a number of rounds equal to its local input."""

    def on_start(self, ctx: NodeContext) -> None:
        self.remaining = int(ctx.local_input)
        if self.remaining == 0:
            ctx.halt(0)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            ctx.halt(ctx.round_number)


class NeverHalts(NodeAlgorithm):
    def on_start(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        pass


class SendsToStranger(NodeAlgorithm):
    def on_start(self, ctx: NodeContext) -> None:
        ctx.send("nonexistent", "hello")

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:  # pragma: no cover
        ctx.halt()


class FloodMax(NodeAlgorithm):
    """Classic flooding of the maximum identifier; terminates after diameter rounds.

    Serves as an integration smoke test: the result depends on correct
    multi-round message propagation.
    """

    def on_start(self, ctx: NodeContext) -> None:
        self.best = ctx.node_id
        self.quiet_rounds = 0
        ctx.broadcast(self.best)

    def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
        improved = False
        for value in inbox.values():
            if value > self.best:
                self.best = value
                improved = True
        if improved:
            self.quiet_rounds = 0
            ctx.broadcast(self.best)
        else:
            self.quiet_rounds += 1
            # In a path of n nodes, n rounds of silence certainly suffice.
            if self.quiet_rounds >= len(ctx.neighbors) + 10:
                ctx.halt(self.best)


class TestBasicExecution:
    def test_stateless_relay_halts_in_round_zero(self):
        net = Network(nodes=[1, 2], edges=[(1, 2)], local_inputs={1: "a", 2: "b"})
        result = Runner(net, StatelessRelay).run()
        assert result.metrics.rounds == 0
        assert result.outputs == {1: "a", 2: "b"}
        assert result.metrics.terminated

    def test_lone_node_without_edges_halts_with_its_input(self):
        net = Network(nodes=[1], local_inputs={1: "only"})
        result = Runner(net, StatelessRelay).run()
        assert result.outputs == {1: "only"}
        assert result.metrics.messages_sent == 0

    def test_echo_neighbors_single_round(self):
        net = Network(
            edges=[(1, 2), (2, 3)], local_inputs={1: "x", 2: "y", 3: "z"}
        )
        result = Runner(net, EchoNeighbors).run()
        assert result.metrics.rounds == 1
        assert result.outputs[1] == {2: "y"}
        assert result.outputs[2] == {1: "x", 3: "z"}
        assert result.outputs[3] == {2: "y"}

    def test_countdown_rounds_exact(self):
        net = Network(nodes=[1, 2, 3], local_inputs={1: 0, 2: 3, 3: 5})
        result = Runner(net, CountDown).run()
        assert result.metrics.rounds == 5
        assert result.metrics.node_halt_rounds[1] == 0
        assert result.metrics.node_halt_rounds[2] == 3
        assert result.metrics.node_halt_rounds[3] == 5

    def test_message_count(self):
        net = Network(edges=[(1, 2), (2, 3)], local_inputs={1: "x", 2: "y", 3: "z"})
        result = Runner(net, EchoNeighbors).run()
        # Each node broadcasts once: degree sum = 2 * edges = 4 messages.
        assert result.metrics.messages_sent == 4


class TestSafetyAndErrors:
    def test_round_limit_exceeded(self):
        net = Network(nodes=[1, 2], edges=[(1, 2)])
        with pytest.raises(RoundLimitExceeded):
            Runner(net, NeverHalts, max_rounds=10).run()

    def test_negative_max_rounds_rejected(self):
        net = Network(nodes=[1])
        with pytest.raises(ValueError):
            Runner(net, StatelessRelay, max_rounds=-1)

    def test_send_to_non_neighbor_raises(self):
        net = Network(nodes=[1, 2], edges=[(1, 2)])
        with pytest.raises(UnknownNeighborError):
            Runner(net, SendsToStranger).run()

    def test_messages_to_halted_nodes_are_dropped(self):
        class TalkToHalted(NodeAlgorithm):
            def on_start(self, ctx: NodeContext) -> None:
                if ctx.local_input == "early":
                    ctx.halt("early-out")

            def on_round(self, ctx: NodeContext, inbox: Inbox) -> None:
                ctx.broadcast("ping")
                if ctx.round_number >= 2:
                    ctx.halt("late-out")

        net = Network(edges=[(1, 2)], local_inputs={1: "early", 2: "late"})
        result = Runner(net, TalkToHalted).run()
        assert result.outputs[1] == "early-out"
        assert result.outputs[2] == "late-out"
        # No message was ever delivered to node 1 after halting.
        assert result.metrics.messages_sent == 0


class TestFactoryAndParameterisation:
    def test_callable_factory_receives_node_id(self):
        created = []

        class Recorder(StatelessRelay):
            def __init__(self, node_id):
                created.append(node_id)

        net = Network(nodes=["a", "b"])
        Runner(net, lambda node_id: Recorder(node_id)).run()
        assert sorted(created) == ["a", "b"]

    def test_algorithm_factory_wrapper(self):
        factory = AlgorithmFactory(StatelessRelay)
        assert isinstance(factory.create(1), StatelessRelay)

    def test_invalid_factory_rejected(self):
        with pytest.raises(TypeError):
            AlgorithmFactory(42)


class TestTrace:
    def test_trace_records_messages_and_halts(self):
        net = Network(edges=[(1, 2)], local_inputs={1: "x", 2: "y"})
        trace = ExecutionTrace()
        Runner(net, EchoNeighbors, trace=trace).run()
        assert len(trace.messages()) == 2
        assert len(trace.halts()) == 2
        assert trace.rounds_recorded() >= 1
        text = trace.format()
        assert "round" in text

    def test_trace_message_recording_can_be_disabled(self):
        net = Network(edges=[(1, 2)], local_inputs={1: "x", 2: "y"})
        trace = ExecutionTrace(record_messages=False)
        Runner(net, EchoNeighbors, trace=trace).run()
        assert trace.messages() == []
        assert len(trace.halts()) == 2


@pytest.mark.integration
class TestFloodMaxIntegration:
    def test_flood_max_on_path(self):
        n = 12
        edges = [(i, i + 1) for i in range(n - 1)]
        net = Network(edges=edges)
        result = Runner(net, FloodMax, max_rounds=500).run()
        assert all(output == n - 1 for output in result.outputs.values())

    def test_flood_max_on_cycle(self):
        n = 9
        edges = [(i, (i + 1) % n) for i in range(n)]
        net = Network(edges=edges)
        result = Runner(net, FloodMax, max_rounds=500).run()
        assert all(output == n - 1 for output in result.outputs.values())
