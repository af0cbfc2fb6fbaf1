"""Load generation against a real ``python -m repro serve`` subprocess.

Everything here runs in the benchmark process and talks to the server
only through its public wire protocol (length-prefixed JSON frames):

* :class:`ServerProcess` spawns the CLI server from a snapshot and times
  the restart: spawn -> ``listening on`` line -> first ``load-of`` reply.
* :func:`closed_loop` sends pre-encoded frames one at a time on one
  connection, each after the previous reply (a caller that waits).
* :func:`open_loop` sends update frames on connection A at a fixed offered
  rate, whether or not earlier replies have come back (independent
  users), while connection B runs closed-loop point queries.  Each update
  is timed from the moment it was due, so a stall also delays the
  requests queued behind it.

Frames are encoded before any timing starts, so the generator's own cost
inside a timed loop is one ``sendall`` and one framed read per request.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import socket
import struct
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

_LEN = struct.Struct(">I")
_LISTENING = re.compile(r"listening on (\S+):(\d+)")

#: CPU placement when two or more CPUs are allowed: the benchmark process
#: (load generator and in-process solves) on the first, the server on the
#: second.
#: Fixed placement keeps every request's cross-process wake-up the same
#: from run to run; left to the scheduler, the two processes sometimes
#: share a CPU and the round-trip time moves by ~20%.
_ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
BENCH_CPUS = set(_ALLOWED_CPUS[:1]) if len(_ALLOWED_CPUS) >= 2 else set()
SERVER_CPUS = set(_ALLOWED_CPUS[1:2]) if BENCH_CPUS else set()


#: Longest a server may take from spawn to its ``listening on`` line.
STARTUP_TIMEOUT_S = 120.0


def pin_benchmark() -> None:
    """Pin the calling process (and the children it starts) to its CPU."""
    if BENCH_CPUS:
        os.sched_setaffinity(0, BENCH_CPUS)


#: A busy loop at ``SCHED_IDLE`` priority pinned to one CPU: it runs only
#: when nothing else on that CPU is runnable, and exits with its parent.
_SPINNER = """
import os, sys
os.sched_setaffinity(0, {%d})
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)  # at normal priority it would compete with the benchmark
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(20000):
        pass
"""


@contextlib.contextmanager
def keep_awake():
    """Keep the benchmark's CPUs from going idle for the block.

    A virtual CPU with nothing to run halts, and waking it goes through
    the host's scheduler, whose delay depends on the other tenants.  Every
    served request wakes one side or the other, so with idle CPUs the
    served metrics measure the host more than the program.  A
    ``SCHED_IDLE`` spinner per CPU keeps each one busy; any wake-up
    preempts it at once.  Measured on a 2-core VM over six restarts each,
    IQR/median of the query rate fell from 0.17 to 0.09, and of the
    open-loop update p50 from 0.34 to 0.17.
    """
    cpus = sorted(BENCH_CPUS | SERVER_CPUS) or _ALLOWED_CPUS[:1]
    spinners = []
    try:
        for cpu in cpus:
            spinners.append(subprocess.Popen([sys.executable, "-c", _SPINNER % cpu]))
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


def _recv_exactly(sock: socket.socket, nbytes: int) -> bytes:
    chunks = []
    while nbytes:
        chunk = sock.recv(nbytes)
        if not chunk:
            raise ConnectionError("server closed the connection mid frame")
        chunks.append(chunk)
        nbytes -= len(chunk)
    return b"".join(chunks)


class Connection:
    """One blocking loopback connection exchanging raw frames."""

    def __init__(self, address: Tuple[str, int], timeout: float = 60.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, frame: bytes) -> bytes:
        """Send one frame; return the reply frame (prefix included)."""
        self.sock.sendall(frame)
        prefix = _recv_exactly(self.sock, _LEN.size)
        return prefix + _recv_exactly(self.sock, _LEN.unpack(prefix)[0])

    def close(self) -> None:
        self.sock.close()


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live Linux process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


class ServerProcess:
    """A ``python -m repro serve --from-snapshot`` child and its restart times.

    ``spawn_s`` -> ``listen_s`` is process start, import, snapshot restore
    and bind; ``first_answer_s`` adds the first ``load-of`` round trip.
    The child is always stopped and reaped by :meth:`stop`.
    """

    def __init__(
        self,
        root: str,
        snapshot: str,
        env: Dict[str, str],
        first_frame: bytes,
    ) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--from-snapshot", snapshot, "--port", "0",
        ]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.conn: Optional[Connection] = None
        try:
            if SERVER_CPUS:
                os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
            deadline = t0 + STARTUP_TIMEOUT_S
            address = None
            output = []
            for line in self.proc.stdout:
                output.append(line)
                match = _LISTENING.search(line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                    break
                if time.perf_counter() > deadline:
                    break
            if address is None:
                raise RuntimeError(
                    "server did not announce its port:\n" + "".join(output)
                )
            t_listen = time.perf_counter()
            self.address = address
            self.conn = Connection(address)
            t_send = time.perf_counter()
            self.first_reply = self.conn.call(first_frame)
            t_reply = time.perf_counter()
        except BaseException:
            self.stop()
            raise
        self.listen_s = t_listen - t0
        self.first_rtt_s = t_reply - t_send
        self.first_answer_s = t_reply - t0

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, shutdown_frame: Optional[bytes] = None) -> None:
        """Shut the server down over the wire (when given a frame), then reap."""
        try:
            if shutdown_frame is not None and self.conn is not None:
                self.conn.call(shutdown_frame)
            if self.conn is not None:
                self.conn.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def closed_loop(
    conn: Connection,
    frames: Sequence[bytes],
    seconds: float,
    speed,
    *,
    cycle: bool,
    window_s: float = 0.5,
) -> Tuple[List[float], List[bytes], List[float]]:
    """Send frames back to back for ``seconds`` (or until they run out).

    The loop runs in windows of ``window_s``; a calibration probe between
    windows scales that window's latencies and duration to the reference
    speed (see ``speed.py``).  Returns the scaled per-request latencies
    in ns, the raw replies (for checking after the loop) and each
    window's scaled request rate per second.
    """
    latencies: List[float] = []
    replies: List[bytes] = []
    rates: List[float] = []
    n = len(frames)
    clock = time.perf_counter_ns
    remaining = int(seconds * 1e9)
    i = 0
    speed.mark()
    while remaining > 0 and (cycle or i < n):
        window: List[int] = []
        start = clock()
        deadline = start + min(int(window_s * 1e9), remaining)
        while cycle or i < n:
            frame = frames[i % n]
            t0 = clock()
            reply = conn.call(frame)
            t1 = clock()
            window.append(t1 - t0)
            replies.append(reply)
            i += 1
            if t1 >= deadline:
                break
        elapsed = clock() - start
        remaining -= elapsed
        factor = speed.factor()
        latencies.extend(x * factor for x in window)
        rates.append(len(window) / (elapsed / 1e9 * factor))
    return latencies, replies, rates


async def _read_reply(reader: asyncio.StreamReader) -> bytes:
    prefix = await reader.readexactly(_LEN.size)
    return prefix + await reader.readexactly(_LEN.unpack(prefix)[0])


async def _open_loop(address, update_frames, rate, query_frames):
    loop = asyncio.get_running_loop()
    reader_a, writer_a = await asyncio.open_connection(*address)
    reader_b, writer_b = await asyncio.open_connection(*address)
    n = len(update_frames)
    due = [0.0] * n
    sent = [0.0] * n
    done = [0.0] * n
    replies: List[bytes] = [b""] * n
    query_replies: List[bytes] = []
    finished = asyncio.Event()

    async def sender():
        start = loop.time() + 0.005
        for i in range(n):
            due[i] = start + i / rate
            delay = due[i] - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            writer_a.write(update_frames[i])
            sent[i] = loop.time()
        await writer_a.drain()

    async def receiver():
        for i in range(n):
            replies[i] = await _read_reply(reader_a)
            done[i] = loop.time()
        finished.set()

    async def reads_beside():
        m = len(query_frames)
        i = 0
        while not finished.is_set():
            writer_b.write(query_frames[i % m])
            query_replies.append(await _read_reply(reader_b))
            i += 1

    try:
        await asyncio.gather(sender(), receiver(), reads_beside())
    finally:
        for writer in (writer_a, writer_b):
            writer.close()
            await writer.wait_closed()
    latency = [done[i] - due[i] for i in range(n)]
    lag = [sent[i] - due[i] for i in range(n)]
    return due, latency, lag, replies, query_replies


def open_loop(
    address: Tuple[str, int],
    update_frames: Sequence[bytes],
    rate: float,
    query_frames: Sequence[bytes],
):
    """Offer ``update_frames`` at ``rate`` per second beside closed-loop reads.

    Returns ``(due_s, latency_s, lag_s, replies, query_replies)``;
    latency runs from each update's due time to its reply, lag from its
    due time to when it was actually written.
    """
    return asyncio.run(_open_loop(address, update_frames, rate, query_frames))


def live_counts(graph, deltas) -> Tuple[int, int]:
    """Live (node, edge) counts after applying ``deltas`` to ``graph``.

    An independent mirror of the churn trace: neighbour sets are
    materialised from the CSR only for nodes a delta touches.
    """
    from repro.core.orientation.incremental import (
        EdgeDelete,
        EdgeInsert,
        NodeJoin,
        NodeLeave,
    )

    ids, index_of = graph.node_ids, graph.index_of
    n, m = graph.num_nodes, graph.num_edges
    adj: Dict[object, set] = {}

    def nbrs(x) -> set:
        found = adj.get(x)
        if found is None:
            i = index_of.get(x)
            found = set() if i is None else {ids[j] for j in graph.neighbors(i)}
            adj[x] = found
        return found

    for delta in deltas:
        if isinstance(delta, EdgeInsert):
            nbrs(delta.u).add(delta.v)
            nbrs(delta.v).add(delta.u)
            m += 1
        elif isinstance(delta, EdgeDelete):
            nbrs(delta.u).discard(delta.v)
            nbrs(delta.v).discard(delta.u)
            m -= 1
        elif isinstance(delta, NodeJoin):
            adj[delta.node] = set()
            n += 1
            for other in delta.attach:
                nbrs(delta.node).add(other)
                nbrs(other).add(delta.node)
                m += 1
        elif isinstance(delta, NodeLeave):
            gone = nbrs(delta.node)
            for other in gone:
                nbrs(other).discard(delta.node)
            m -= len(gone)
            adj[delta.node] = set()
            n -= 1
    return n, m


#: Knobs that would silently measure a different program; removed from
#: the benchmark process and every child before anything is imported.
STRIPPED_ENV = (
    "REPRO_BACKEND",
    "REPRO_WORKERS",
    "REPRO_PARALLEL_MIN_EDGES",
    "REPRO_TRACE",
    "REPRO_SERVE_MAX_BATCH",
    "REPRO_SERVE_COALESCE_MS",
)


def clean_env(root: str, trace_path: Optional[str]) -> Dict[str, str]:
    """A child's environment: stripped knobs, ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if trace_path is not None:
        env["REPRO_TRACE"] = trace_path
    return env
