"""The asyncio serving front end over a solved :class:`DynamicOrientation`.

One :class:`OrientationServer` holds one engine.  Point queries
(``assignment-of``, ``load-of``, ``stats``) are answered synchronously
straight from the engine's flat arrays — O(1) dict+array lookups, no
materialization.  Update requests are *queued*: a single updater task
drains everything waiting (up to :attr:`ServeConfig.max_batch` deltas,
after an optional :attr:`ServeConfig.coalesce_ms` gathering window) into
ONE :meth:`~repro.core.orientation.incremental.DynamicOrientation.
apply_batch` call, so a burst of concurrent updates pays for one
frontier re-stabilization instead of one per request.  All engine access
happens on the event-loop thread — queries never observe a half-applied
batch.

Every request path is traced through :mod:`repro.obs`:

* ``serve.request`` — one span per request, tagged with the op;
* ``serve.coalesce`` — one span per queue drain (requests + deltas
  gathered);
* ``serve.restabilize`` — the batched engine apply itself.

:class:`ServerThread` runs a server on a background thread's event loop
for in-process harnesses (the closed-loop benchmark, tests, examples).
"""

from __future__ import annotations

import asyncio
import os
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import obs
from repro.core.orientation.incremental import DeltaError, DynamicOrientation
from repro.serve.protocol import (
    ProtocolError,
    delta_from_wire,
    encode_frame,
    node_to_wire,
    read_frame,
    wire_to_node,
)

__all__ = ["ServeConfig", "OrientationServer", "ServerThread"]

#: Environment knobs (documented in the README's "Serving" section).
MAX_BATCH_ENV_VAR = "REPRO_SERVE_MAX_BATCH"
COALESCE_MS_ENV_VAR = "REPRO_SERVE_COALESCE_MS"


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else default


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else default


@dataclass
class ServeConfig:
    """Knobs of one server instance.

    ``max_batch`` caps how many *deltas* one coalesced apply may carry
    (a single oversized request is still applied whole); ``coalesce_ms``
    adds a gathering window after the first queued update before the
    drain, trading per-update latency for a higher coalescing ratio.
    Both default from the environment so deployments can tune a server
    without code changes.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_batch: int = field(
        default_factory=lambda: _env_int(MAX_BATCH_ENV_VAR, 256)
    )
    coalesce_ms: float = field(
        default_factory=lambda: _env_float(COALESCE_MS_ENV_VAR, 0.0)
    )


class _UpdateRequest:
    __slots__ = ("deltas", "future")

    def __init__(self, deltas, future):
        self.deltas = deltas
        self.future = future


def _answer(request: _UpdateRequest, receipt: dict) -> None:
    if not request.future.done():
        request.future.set_result(receipt)


class OrientationServer:
    """Serve one :class:`DynamicOrientation` over length-prefixed JSON/TCP."""

    def __init__(
        self,
        dynamic: DynamicOrientation,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self.dynamic = dynamic
        self.config = config or ServeConfig()
        #: Request/coalescing counters, exported by the ``stats`` op.
        self.counters = {
            "requests": 0,
            "queries": 0,
            "update_requests": 0,
            "deltas_applied": 0,
            "batches": 0,
            "errors": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._queue: Optional[asyncio.Queue] = None
        self._stopping: Optional[asyncio.Event] = None
        self._updater: Optional[asyncio.Task] = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the updater task."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._queue = asyncio.Queue()
        self._stopping = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._updater = asyncio.ensure_future(self._drain_updates())

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` ephemeral binds)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[:2]

    async def serve_forever(self) -> None:
        """Serve until :meth:`stop` (or a client ``shutdown`` op)."""
        await self._stopping.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Request a clean shutdown (idempotent)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _shutdown(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._updater is not None:
            await self._queue.put(None)
            await self._updater
            self._updater = None

    # -- the coalescing updater ----------------------------------------
    async def _drain_updates(self) -> None:
        queue = self._queue
        while True:
            first = await queue.get()
            if first is None:
                break
            if self.config.coalesce_ms > 0:
                # Gathering window: let a burst in flight reach the queue
                # so it re-stabilizes as one frontier.
                await asyncio.sleep(self.config.coalesce_ms / 1000.0)
            batch: List[_UpdateRequest] = [first]
            total = len(first.deltas)
            stop_after = False
            while total < self.config.max_batch and not queue.empty():
                nxt = queue.get_nowait()
                if nxt is None:
                    stop_after = True
                    break
                batch.append(nxt)
                total += len(nxt.deltas)
            with obs.span(
                "serve.coalesce", num_requests=len(batch), num_deltas=total
            ):
                while batch:
                    batch = self._apply_riders(batch)
            if stop_after:
                break

    def _apply_riders(self, riders: List[_UpdateRequest]) -> List[_UpdateRequest]:
        """Apply the riders' deltas as ONE batch and answer each rider.

        When the engine rejects a delta, the deltas before it stay applied
        (the engine re-stabilized them).  The riders wholly before it get
        ``ok: true``; the rider holding it gets ``ok: false`` and the count
        of its deltas that were applied; the riders after it are returned,
        unanswered, to run as their own batch.
        """
        deltas = [d for request in riders for d in request.deltas]
        error: Optional[DeltaError] = None
        with obs.span("serve.restabilize", num_deltas=len(deltas)) as sp:
            try:
                stats = self.dynamic.apply_batch(deltas)
                sp.set(
                    frontier_nodes=stats.frontier_nodes,
                    repair_flips=stats.repair.total_flips,
                )
            except DeltaError as exc:
                error = exc
        applied = len(deltas) if error is None else error.index
        self.counters["batches"] += 1
        self.counters["deltas_applied"] += applied
        obs.add("serve.batches")
        obs.add("serve.deltas_applied", applied)
        start = 0
        for j, request in enumerate(riders):
            end = start + len(request.deltas)
            if error is not None and end > applied:
                self.counters["errors"] += 1
                obs.add("serve.errors")
                _answer(
                    request,
                    {"ok": False, "error": str(error), "applied": applied - start},
                )
                return riders[j + 1 :]
            _answer(
                request,
                {
                    "ok": True,
                    "applied": len(request.deltas),
                    "batch_deltas": len(deltas),
                    "batch_requests": len(riders),
                    "updates_applied": self.dynamic.updates_applied,
                },
            )
            start = end
        return []

    # -- request handling ----------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        try:
            while True:
                try:
                    message = await read_frame(reader)
                except ProtocolError as exc:
                    writer.write(
                        encode_frame({"ok": False, "error": str(exc)})
                    )
                    await writer.drain()
                    break
                if message is None:
                    break
                response, close = await self._dispatch(message)
                writer.write(encode_frame(response))
                await writer.drain()
                if close:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, message) -> Tuple[dict, bool]:
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be an object"}, False
        op = message.get("op")
        self.counters["requests"] += 1
        with obs.span("serve.request", op=str(op)):
            obs.add("serve.requests")
            try:
                if op == "ping":
                    return {"ok": True, "pong": True}, False
                if op == "assignment-of":
                    self.counters["queries"] += 1
                    head = self.dynamic.head_of(
                        wire_to_node(message["u"]), wire_to_node(message["v"])
                    )
                    return {"ok": True, "head": node_to_wire(head)}, False
                if op == "load-of":
                    self.counters["queries"] += 1
                    load = self.dynamic.load_of(wire_to_node(message["node"]))
                    return {"ok": True, "load": load}, False
                if op == "stats":
                    self.counters["queries"] += 1
                    return {
                        "ok": True,
                        "num_nodes": self.dynamic.num_nodes,
                        "num_edges": self.dynamic.num_edges,
                        "updates_applied": self.dynamic.updates_applied,
                        "backend": self.dynamic.backend,
                        "counters": dict(self.counters),
                        "coalescing_ratio": (
                            self.counters["deltas_applied"]
                            / self.counters["batches"]
                            if self.counters["batches"]
                            else None
                        ),
                    }, False
                if op == "update":
                    self.counters["update_requests"] += 1
                    raw = message.get("deltas")
                    if not isinstance(raw, list):
                        raise ProtocolError("update needs a deltas list")
                    deltas = [delta_from_wire(d) for d in raw]
                    future = asyncio.get_running_loop().create_future()
                    await self._queue.put(_UpdateRequest(deltas, future))
                    return await future, False
                if op == "snapshot":
                    from repro.serve.snapshot import save_state

                    meta = save_state(self.dynamic, message["path"])
                    return {
                        "ok": True,
                        "path": message["path"],
                        "bytes": os.path.getsize(message["path"]),
                        "num_nodes": meta["num_nodes"],
                        "num_edges": meta["num_edges"],
                    }, False
                if op == "shutdown":
                    await self.stop()
                    return {"ok": True, "stopping": True}, True
                raise ProtocolError(f"unknown op {op!r}")
            except (ProtocolError, DeltaError, KeyError, OSError) as exc:
                self.counters["errors"] += 1
                obs.add("serve.errors")
                return {"ok": False, "error": str(exc)}, False


class ServerThread:
    """Run an :class:`OrientationServer` on a daemon thread's event loop.

    The in-process harness used by the closed-loop benchmark, the CI
    smoke trace, and the tests: ``start()`` blocks until the socket is
    bound (``address`` is then valid), ``stop()`` requests a clean
    shutdown and joins the thread.  Also usable as a context manager.
    """

    def __init__(
        self,
        dynamic: DynamicOrientation,
        config: Optional[ServeConfig] = None,
    ) -> None:
        self._dynamic = dynamic
        self._config = config
        self.server: Optional[OrientationServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup races
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
            else:
                raise

    async def _main(self) -> None:
        self.server = OrientationServer(self._dynamic, self._config)
        await self.server.start()
        self._loop = asyncio.get_running_loop()
        self.address = self.server.address
        self._ready.set()
        await self.server.serve_forever()

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.server.stop())
            )
        if self._thread is not None:
            self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
