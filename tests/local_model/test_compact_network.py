"""The dense token game memoized on a Network, and the Runner's kernel paths."""

from __future__ import annotations

from repro.core.token_dropping import TokenDroppingInstance, _kernels
from repro.core.token_dropping._kernels import network_game
from repro.core.token_dropping.game import LOCAL_HAS_TOKEN
from repro.core.token_dropping.proposal import proposal_factory
from repro.graphs.layered import LayeredGraph
from repro.local_model import (
    AlgorithmFactory,
    ExecutionMetrics,
    Network,
    Runner,
)
from repro.local_model.node import StatelessRelay
from repro.local_model.trace import ExecutionTrace


def sample_network() -> Network:
    return Network(
        nodes=["c", 10, (1, 2)],
        edges=[("c", 10), (10, (1, 2)), ("c", "a")],
        local_inputs={"c": {"tag": "C"}, 10: {"tag": "ten"}},
    )


def token_network() -> Network:
    """A two-level game over mixed-type node ids."""
    graph = LayeredGraph(
        levels={10: 1, "c": 0, (1, 2): 1, "a": 0},
        edges=[("a", (1, 2)), ("c", (1, 2)), ("c", 10)],
    )
    instance = TokenDroppingInstance(graph, frozenset({(1, 2), 10}))
    return instance.to_network(include_levels=True)


class TestNetworkGame:
    def test_game_is_built_once_per_network(self, monkeypatch):
        network = token_network()
        builds = []
        build = _kernels.game_from_arrays

        def counting_build(*args):
            builds.append(args[0])
            return build(*args)

        monkeypatch.setattr(_kernels, "game_from_arrays", counting_build)
        first = Runner(network, proposal_factory()).run()
        memo = network_game(network)
        second = Runner(network, proposal_factory()).run()
        assert builds == [4]
        assert network_game(network) is memo
        assert second.outputs == first.outputs
        assert second.metrics == first.metrics

    def test_with_local_inputs_gets_a_fresh_game(self):
        network = token_network()
        game, _ = network_game(network)
        inputs = network.local_inputs()
        inputs[10] = {**inputs[10], LOCAL_HAS_TOKEN: False}
        other = network.with_local_inputs(inputs)
        other_game, _ = network_game(other)
        assert other_game is not game
        assert sum(game.has_token) == 2
        assert sum(other_game.has_token) == 1

    def test_dense_ids_are_repr_sorted_over_mixed_types(self):
        game, node_ids = network_game(token_network())
        # repr order: "'a'" < "'c'" < "(1, 2)" < "10"
        assert node_ids == ("a", "c", (1, 2), 10)
        assert list(game.has_token) == [0, 0, 1, 1]
        assert game.level == [0, 0, 1, 1]


def _echo_kernel(network, max_rounds):
    """A toy whole-execution kernel: every node outputs its position."""
    node_ids = network.node_ids
    outputs = {node: i for i, node in enumerate(node_ids)}
    metrics = ExecutionMetrics(
        rounds=0,
        messages_sent=0,
        node_halt_rounds=dict.fromkeys(node_ids, 0),
        halted_nodes=len(node_ids),
        total_nodes=len(node_ids),
    )
    return outputs, metrics


def kernel_factory():
    return AlgorithmFactory(
        lambda node_id: StatelessRelay(), compact_kernel=_echo_kernel
    )


class TestRunnerDispatch:
    def test_auto_uses_registered_kernel(self):
        network = sample_network()
        result = Runner(network, kernel_factory()).run()
        assert result.outputs == {"a": 0, "c": 1, (1, 2): 2, 10: 3}
        assert result.metrics.terminated
        assert result.metrics.node_halt_rounds == dict.fromkeys(result.outputs, 0)

    def test_run_reference_forces_reference_scheduler(self):
        network = sample_network()
        result = Runner(network, kernel_factory()).run_reference()
        # StatelessRelay echoes its local input, unlike the echo kernel.
        assert result.outputs["c"] == {"tag": "C"}
        assert result.outputs["a"] is None

    def test_algorithm_without_kernel_runs_reference_scheduler(self):
        result = Runner(sample_network(), StatelessRelay).run()
        assert result.outputs["c"] == {"tag": "C"}

    def test_trace_falls_back_to_reference(self):
        trace = ExecutionTrace()
        result = Runner(sample_network(), kernel_factory(), trace=trace).run()
        assert result.outputs["c"] == {"tag": "C"}
