"""Tests for the command-line interface (`python -m repro ...`)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["orient", "--algorithm", "bogus"])


class TestTokenDroppingCommand:
    def test_figure2_proposal(self, capsys):
        assert main(["token-dropping", "--figure2", "--tails"]) == 0
        out = capsys.readouterr().out
        assert "game rounds" in out
        assert "token" in out

    def test_random_instance_greedy(self, capsys):
        assert (
            main(
                [
                    "token-dropping",
                    "--levels",
                    "4",
                    "--width",
                    "4",
                    "--algorithm",
                    "greedy",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert "sequential moves" in capsys.readouterr().out

    def test_three_level_algorithm(self, capsys):
        assert (
            main(
                [
                    "token-dropping",
                    "--levels",
                    "3",
                    "--width",
                    "5",
                    "--algorithm",
                    "three-level",
                ]
            )
            == 0
        )
        assert "game rounds" in capsys.readouterr().out

    def test_dot_output(self, tmp_path, capsys):
        dot_file = tmp_path / "game.dot"
        assert main(["token-dropping", "--figure2", "--dot", str(dot_file)]) == 0
        assert dot_file.exists()
        assert dot_file.read_text().startswith("digraph")
        capsys.readouterr()


class TestOrientCommand:
    @pytest.mark.parametrize("algorithm", ["phases", "sequential", "repair", "bounded"])
    def test_all_algorithms(self, algorithm, capsys):
        assert (
            main(
                [
                    "orient",
                    "--workload",
                    "sensor",
                    "--nodes",
                    "30",
                    "--degree",
                    "5",
                    "--algorithm",
                    algorithm,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "stable" in out

    def test_regular_workload_with_dot(self, tmp_path, capsys):
        dot_file = tmp_path / "orientation.dot"
        assert (
            main(
                [
                    "orient",
                    "--workload",
                    "regular",
                    "--nodes",
                    "20",
                    "--degree",
                    "4",
                    "--dot",
                    str(dot_file),
                ]
            )
            == 0
        )
        assert dot_file.exists()
        capsys.readouterr()


class TestAssignCommand:
    @pytest.mark.parametrize("algorithm", ["stable", "bounded", "greedy"])
    def test_all_algorithms(self, algorithm, capsys):
        assert (
            main(
                [
                    "assign",
                    "--jobs",
                    "40",
                    "--servers",
                    "10",
                    "--replicas",
                    "2",
                    "--algorithm",
                    algorithm,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "semi-matching cost" in out

    def test_compare_optimal(self, capsys):
        assert (
            main(
                [
                    "assign",
                    "--jobs",
                    "30",
                    "--servers",
                    "8",
                    "--replicas",
                    "2",
                    "--compare-optimal",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "ratio" in out


def _run_with_src_path(args):
    """Run ``python args...`` in a fresh interpreter that imports this ``repro``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


class TestServeImportCost:
    def test_cli_and_serve_imports_load_neither_networkx_nor_numpy(self):
        # ``python -m repro serve`` imports these two; a restart's time to
        # first answer should not pay for the generators' dependencies.
        probe = (
            "import sys, repro.cli, repro.serve; "
            "print(sorted(m for m in ('networkx', 'numpy') if m in sys.modules))"
        )
        result = _run_with_src_path(["-c", probe])
        assert result.stdout.strip() == "[]"

    def test_served_restart_churn_and_snapshot_stay_numpy_free(self, tmp_path):
        # What a served restart runs: load a snapshot, absorb churn with
        # edge inserts, joins and leaves, write the changed instance back.
        # ``first_answer_s`` and ``peak_rss_mb`` are measured on such a
        # server, so none of it may import NumPy.
        import pickle

        from repro.core.orientation.incremental import DynamicOrientation
        from repro.serve.snapshot import save_state
        from repro.workloads.churn import churn_trace
        from repro.workloads.scenarios import sensor_network_orientation

        graph = sensor_network_orientation(
            num_nodes=60, max_degree=5, density=0.1, seed=2, compact=True
        )
        trace = churn_trace(graph, num_updates=40, seed=3, mix="mixed")
        kinds = {type(delta).__name__ for delta in trace}
        assert {"EdgeInsert", "EdgeDelete", "NodeJoin", "NodeLeave"} <= kinds
        save_state(DynamicOrientation(graph, seed=1), tmp_path / "start.snap")
        (tmp_path / "trace.pickle").write_bytes(pickle.dumps(trace))
        probe = (
            "import pickle, sys\n"
            "from repro.serve.snapshot import load_state, save_state\n"
            f"root = {str(tmp_path)!r}\n"
            "engine = load_state(root + '/start.snap')\n"
            "with open(root + '/trace.pickle', 'rb') as f:\n"
            "    trace = pickle.load(f)\n"
            "for delta in trace:\n"
            "    engine.apply(delta)\n"
            "save_state(engine, root + '/end.snap')\n"
            "print(engine.updates_applied, 'numpy' in sys.modules)\n"
        )
        result = _run_with_src_path(["-c", probe])
        assert result.stdout.split() == [str(len(trace)), "False"]
