#!/usr/bin/env python3
"""CI smoke for the serving layer: real CLI server, closed-loop client.

Starts ``python -m repro serve`` as a subprocess on an ephemeral port,
drives a short closed-loop trace over loopback TCP — point queries,
coalesced update batches, a refused ``NaN`` join, a join with a tuple
id, a snapshot, a
restore-and-compare — then restarts a second server with
``--from-snapshot`` and requires its counts and point answers to equal
the first server's.  Both servers are shut down over the wire and must
exit cleanly.  A third restart, from a snapshot whose header is not
JSON, must exit with code 1 and a one-line error, no traceback.  This is
the deployment path end to end: argument parsing, the solve-then-serve
startup, the restart-from-snapshot startup, the frame codec, the
coalescing updater, and the snapshot op.

Usage (CI runs exactly this)::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.orientation import NodeJoin  # noqa: E402
from repro.graphs.compact import SNAPSHOT_MAGIC, ArraySnapshot  # noqa: E402
from repro.serve import ServeClient, load_state  # noqa: E402
from repro.workloads import serve_smoke, serve_smoke_trace  # noqa: E402

FAMILY_ARGS = [
    "--family",
    "sensor-network",
    "--params",
    '{"num_nodes": 64, "max_degree": 4, "density": 0.1, "seed": 3}',
]


def _start_server(args):
    """Start ``python -m repro serve ARGS``; returns (process, host, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    for line in proc.stdout:
        print(f"[server] {line.rstrip()}")
        match = re.search(r"listening on (\S+):(\d+)", line)
        if match:
            return proc, match.group(1), int(match.group(2))
    proc.wait()
    raise RuntimeError("server exited before announcing its port")


def _shutdown(proc, client) -> None:
    """Stop a server over the wire and require a clean exit."""
    client.shutdown()
    client.close()
    returncode = proc.wait(timeout=30)
    for line in proc.stdout:
        print(f"[server] {line.rstrip()}")
    if returncode != 0:
        raise RuntimeError(f"server exited with {returncode}")


def _refuses_corrupt_snapshot() -> None:
    """``serve --from-snapshot`` on a corrupt file fails in one line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corrupt.rprosnp"
        blob = b"{not json"
        path.write_bytes(SNAPSHOT_MAGIC + len(blob).to_bytes(8, "little") + blob)
        # run() waits for the exit (killing the server on timeout), so
        # no process is left running.
        args = ["--port", "0", "--from-snapshot", str(path)]
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
    print(f"[corrupt] exit {done.returncode}: {done.stderr.rstrip()}")
    assert done.returncode == 1, done
    assert "Traceback" not in done.stderr, done.stderr
    assert done.stderr.count("\n") == 1, done.stderr


def _answers(client, graph) -> dict:
    """Counts and a few point-query answers, for comparing two servers."""
    stats = client.stats()
    edges = [
        (graph.node_ids[graph.edge_u[e]], graph.node_ids[graph.edge_v[e]])
        for e in range(0, graph.num_edges, max(1, graph.num_edges // 8))
    ]
    answers = {
        "counts": (
            stats["num_nodes"],
            stats["num_edges"],
            stats["updates_applied"],
        )
    }
    for u, v in edges:
        answers[("assignment-of", u, v)] = client.assignment_of(u, v)
        answers[("load-of", u)] = client.load_of(u)
    return answers


def main() -> int:
    procs = []
    try:
        proc, host, port = _start_server(FAMILY_ARGS)
        procs.append(proc)
        client = ServeClient(host, port, timeout=30)
        stats = client.stats()
        assert stats["num_nodes"] == 64, stats
        assert stats["updates_applied"] == 0, stats

        # Short closed-loop trace: the serve-gate flap workload, applied
        # in coalesced chunks, matches the documented scenario exactly.
        trace = serve_smoke_trace(serve_smoke())[:128]
        for lo in range(0, len(trace), 32):
            receipt = client.update(trace[lo : lo + 32])
            assert receipt["applied"] == 32, receipt
        assert client.stats()["updates_applied"] == len(trace)

        # Point queries answer from the served flat arrays.
        graph = serve_smoke()
        u, v = graph.node_ids[graph.edge_u[0]], graph.node_ids[graph.edge_v[0]]
        assert client.assignment_of(u, v) in (u, v)
        assert client.load_of(u) >= 0

        # A NaN id is not JSON: the server refuses the frame and keeps
        # serving the same connection.
        nan_join = {"kind": "node-join", "node": float("nan"), "attach": []}
        reply = client.request({"op": "update", "deltas": [nan_join]})
        assert reply["ok"] is False, reply
        assert client.load_of(u) >= 0

        # A tuple id beside the int ids: the snapshot stores the ints in
        # its int64 section and only this id as repr text.
        joined = ("smoke", 0)
        receipt = client.update([NodeJoin(joined, (u, v))])
        assert receipt["applied"] == 1, receipt
        assert client.assignment_of(joined, u) in (joined, u)

        with tempfile.TemporaryDirectory() as tmp:
            # Snapshot over the wire, restore locally, compare a point query.
            path = Path(tmp) / "smoke.rprosnp"
            receipt = client.snapshot(path)
            assert receipt["bytes"] > 0, receipt
            with ArraySnapshot(path) as snap:
                spec = snap.meta["node_ids"]
            assert spec["encoding"] == "split", spec
            with load_state(path) as restored:
                assert restored.updates_applied == len(trace) + 1
                assert restored.load_of(u) == client.load_of(u)
                assert restored.load_of(joined) == client.load_of(joined)

                # Restart from the snapshot through the CLI: the second
                # server must answer exactly like the first.
                proc2, host2, port2 = _start_server(["--from-snapshot", str(path)])
                procs.append(proc2)
                client2 = ServeClient(host2, port2, timeout=30)
                live = restored.solved_arrays()[0]
                expected = _answers(client, live)
                assert _answers(client2, live) == expected, expected
                assert client2.load_of(joined) == client.load_of(joined)
                assert client2.assignment_of(u, joined) == client.assignment_of(
                    u, joined
                )
                _shutdown(proc2, client2)

        _shutdown(proc, client)
        _refuses_corrupt_snapshot()
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    print(
        "serve smoke OK: queries, coalesced updates, refused NaN join, "
        "tuple-id join, "
        "snapshot, restart from snapshot, shutdown, corrupt snapshot refused"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
