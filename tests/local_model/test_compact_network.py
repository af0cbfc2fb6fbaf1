"""CompactNetwork interning, the CompactEngine, and the Runner's two paths."""

from __future__ import annotations

import pytest

from repro.local_model import (
    AlgorithmFactory,
    CompactEngine,
    CompactNetwork,
    ExecutionMetrics,
    Network,
    Runner,
    RoundLimitExceeded,
)
from repro.local_model.node import StatelessRelay
from repro.local_model.trace import ExecutionTrace


def sample_network() -> Network:
    return Network(
        nodes=["c", 10, (1, 2)],
        edges=[("c", 10), (10, (1, 2)), ("c", "a")],
        local_inputs={"c": {"tag": "C"}, 10: {"tag": "ten"}},
    )


class TestCompactNetwork:
    def test_interning_is_repr_sorted(self):
        compact = CompactNetwork.from_network(sample_network())
        # repr order: "'a'" < "'c'" < "(1, 2)" < "10"
        assert compact.node_ids == ("a", "c", (1, 2), 10)
        assert [compact.index_of[n] for n in compact.node_ids] == [0, 1, 2, 3]

    def test_csr_neighbors_ascending_and_degrees(self):
        compact = CompactNetwork.from_network(sample_network())
        for i in range(compact.num_nodes):
            neighbors = list(compact.neighbors(i))
            assert neighbors == sorted(neighbors)
            assert compact.degree(i) == len(neighbors)
        assert compact.num_edges == 3
        # 'c' (dense 1) is adjacent to 'a' (dense 0) and 10 (dense 3).
        assert list(compact.neighbors(1)) == [0, 3]

    def test_local_inputs_aligned_with_dense_ids(self):
        compact = CompactNetwork.from_network(sample_network())
        assert compact.local_inputs[compact.index_of["c"]] == {"tag": "C"}
        assert compact.local_inputs[compact.index_of[10]] == {"tag": "ten"}
        assert compact.local_inputs[compact.index_of["a"]] is None

    def test_of_memoizes_on_the_network(self):
        network = sample_network()
        first = CompactNetwork.of(network)
        assert CompactNetwork.of(network) is first
        # A derived network with different local inputs gets a fresh form.
        other = network.with_local_inputs({"c": "changed"})
        assert CompactNetwork.of(other) is not first


class TestCompactEngine:
    def test_round_budget_enforced_at_exact_boundary(self):
        engine = CompactEngine(num_nodes=3, max_rounds=2)
        assert engine.step() == 1
        assert engine.step() == 2
        with pytest.raises(RoundLimitExceeded) as excinfo:
            engine.step()
        assert excinfo.value.limit == 2
        assert excinfo.value.active_nodes == 3

    def test_halt_and_metrics(self):
        engine = CompactEngine(num_nodes=2, max_rounds=10)
        engine.step()
        engine.halt(1, 1)
        engine.halt(1, 1)  # double-halt is idempotent
        engine.messages += 5
        engine.halt(0, 1)
        metrics = engine.metrics(("x", "y"))
        assert metrics == ExecutionMetrics(
            rounds=1,
            messages_sent=5,
            node_halt_rounds={"x": 1, "y": 1},
            halted_nodes=2,
            total_nodes=2,
        )


def _echo_kernel(compact, max_rounds):
    """A toy whole-execution kernel: every node outputs its dense id."""
    engine = CompactEngine(compact.num_nodes, max_rounds)
    for i in range(compact.num_nodes):
        engine.halt(i, 0)
    return list(range(compact.num_nodes)), engine.metrics(compact.node_ids)


def kernel_factory():
    return AlgorithmFactory(
        lambda node_id: StatelessRelay(), compact_kernel=_echo_kernel
    )


class TestRunnerDispatch:
    def test_auto_uses_registered_kernel(self):
        network = sample_network()
        result = Runner(network, kernel_factory()).run()
        compact = CompactNetwork.of(network)
        assert result.outputs == {
            node: i for i, node in enumerate(compact.node_ids)
        }
        assert result.metrics.terminated

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
