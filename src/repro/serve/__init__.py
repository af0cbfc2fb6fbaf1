"""``repro.serve`` — the serving layer over the solved state.

A long-lived asyncio front end (length-prefixed JSON over TCP) around
one solved :class:`~repro.core.orientation.incremental.
DynamicOrientation`: point queries answered straight from the flat
arrays, update batches coalesced into single re-stabilizations, and
snapshot/restore of the full serving state through the compact
``array('q')`` buffers.  Start one from the CLI with
``python -m repro serve`` or in-process with :class:`ServerThread`.

This package is all-flat-arrays by contract: no module in it imports a
dict-path constructor (asserted by a lint-style test).
"""

from repro.serve.client import ServeClient, ServeError, connect
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    delta_from_wire,
    delta_to_wire,
    encode_frame,
    node_to_wire,
    read_frame,
    wire_to_node,
)
from repro.serve.server import (
    OrientationServer,
    ServeConfig,
    ServerThread,
)
from repro.serve.snapshot import STATE_KIND, load_state, save_state

__all__ = [
    "MAX_FRAME_BYTES",
    "OrientationServer",
    "ProtocolError",
    "STATE_KIND",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "connect",
    "delta_from_wire",
    "delta_to_wire",
    "encode_frame",
    "load_state",
    "node_to_wire",
    "read_frame",
    "save_state",
    "wire_to_node",
]
