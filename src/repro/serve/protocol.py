"""Wire protocol of :mod:`repro.serve`: length-prefixed JSON frames.

Every message — request or response — is one *frame*: a 4-byte
big-endian payload length followed by that many bytes of UTF-8 JSON.
Framing and JSON are deliberately boring; the only repro-specific parts
are the node-id and delta encodings:

* Node ids are the library's Hashables (ints, strings, tuples like
  ``("churn", 3)``).  JSON has no tuple type, so the wire form encodes
  tuples as JSON arrays and :func:`wire_to_node` converts arrays back to
  tuples recursively — lossless because node ids must be hashable, so a
  *list* node id is impossible.
* Deltas travel as ``{"kind": ..., ...}`` dicts, one of ``edge-insert``,
  ``edge-delete``, ``node-join``, ``node-leave`` (see
  :func:`delta_to_wire` / :func:`delta_from_wire`).

Requests are ``{"op": ..., ...}`` dicts; responses always carry an
``"ok"`` bool, with ``"error"`` set when it is false.  See the README's
"Serving" section for the full op table.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

from repro.core.orientation.incremental import (
    Delta,
    EdgeDelete,
    EdgeInsert,
    NodeJoin,
    NodeLeave,
)

__all__ = [
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "decode_payload",
    "delta_from_wire",
    "delta_to_wire",
    "encode_frame",
    "node_to_wire",
    "read_frame",
    "read_frame_bytes",
    "wire_to_node",
]

#: Upper bound on one frame's JSON payload; large enough for a
#: multi-thousand-delta update batch, small enough that a corrupt length
#: prefix cannot make the server allocate gigabytes.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")


class ProtocolError(ValueError):
    """Raised for malformed frames or unencodable payloads."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload) -> bytes:
    """One wire frame: 4-byte big-endian length + compact JSON payload."""
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(blob)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return _LEN.pack(len(blob)) + blob


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


#: Python's ``json`` accepts ``NaN``, ``Infinity`` and ``-Infinity``,
#: which are not JSON; a ``NaN`` node id would be applied and then fail
#: every snapshot.  One module-level decoder, as ``json.loads(blob, **kw)``
#: would build a decoder per frame.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def decode_payload(blob: bytes):
    """Parse one frame's payload bytes (shared by async and sync readers)."""
    try:
        # The text step of ``json.loads`` on bytes.
        return _DECODER.decode(blob.decode(json.detect_encoding(blob), "surrogatepass"))
    except ValueError as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc


async def read_frame_bytes(reader) -> Optional[bytes]:
    """Read one frame's payload bytes from an :class:`asyncio.StreamReader`.

    Returns ``None`` on a clean EOF at a frame boundary; raises
    :class:`ProtocolError` on truncation or oversized lengths, after
    which the stream is out of step.  A payload that then fails
    :func:`decode_payload` leaves the stream at the next frame.
    """
    import asyncio

    try:
        prefix = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ProtocolError("connection closed mid length prefix") from exc
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES}"
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid frame") from exc


async def read_frame(reader) -> Optional[object]:
    """Read one frame from an :class:`asyncio.StreamReader`.

    Returns the decoded payload, or ``None`` on a clean EOF at a frame
    boundary; raises :class:`ProtocolError` on truncation, oversized
    lengths or a payload that is not JSON.
    """
    blob = await read_frame_bytes(reader)
    return None if blob is None else decode_payload(blob)


# ----------------------------------------------------------------------
# Node ids
# ----------------------------------------------------------------------
def node_to_wire(node):
    """Encode a node id as a JSON value (tuples become arrays)."""
    if isinstance(node, tuple):
        return [node_to_wire(part) for part in node]
    if isinstance(node, bool) or node is None:
        return node
    if isinstance(node, (int, float, str)):
        return node
    raise ProtocolError(
        f"node id {node!r} of type {type(node).__name__} is not wire-encodable"
    )


def wire_to_node(value):
    """Decode a JSON value back into a node id (arrays become tuples).

    A JSON object, at any depth, raises :class:`ProtocolError`: it would
    decode to an unhashable dict that no node id can equal.
    """
    if isinstance(value, list):
        return tuple(wire_to_node(part) for part in value)
    if isinstance(value, dict):
        raise ProtocolError(f"node id {value!r} is a JSON object")
    return value


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------
def delta_to_wire(delta: Delta) -> dict:
    """Encode one engine delta as its wire dict."""
    if isinstance(delta, EdgeInsert):
        return {
            "kind": "edge-insert",
            "u": node_to_wire(delta.u),
            "v": node_to_wire(delta.v),
        }
    if isinstance(delta, EdgeDelete):
        return {
            "kind": "edge-delete",
            "u": node_to_wire(delta.u),
            "v": node_to_wire(delta.v),
        }
    if isinstance(delta, NodeJoin):
        return {
            "kind": "node-join",
            "node": node_to_wire(delta.node),
            "attach": [node_to_wire(other) for other in delta.attach],
        }
    if isinstance(delta, NodeLeave):
        return {"kind": "node-leave", "node": node_to_wire(delta.node)}
    raise ProtocolError(f"not a delta: {delta!r}")


def delta_from_wire(value) -> Delta:
    """Decode one wire dict back into an engine delta."""
    if not isinstance(value, dict):
        raise ProtocolError(f"delta must be an object, got {value!r}")
    kind = value.get("kind")
    try:
        if kind == "edge-insert":
            return EdgeInsert(wire_to_node(value["u"]), wire_to_node(value["v"]))
        if kind == "edge-delete":
            return EdgeDelete(wire_to_node(value["u"]), wire_to_node(value["v"]))
        if kind == "node-join":
            attach = value.get("attach", [])
            if not isinstance(attach, list):
                raise ProtocolError(f"node-join attach must be a list: {value!r}")
            return NodeJoin(
                wire_to_node(value["node"]),
                tuple(wire_to_node(other) for other in attach),
            )
        if kind == "node-leave":
            return NodeLeave(wire_to_node(value["node"]))
    except KeyError as exc:
        raise ProtocolError(f"delta {value!r} is missing field {exc}") from exc
    raise ProtocolError(f"unknown delta kind {kind!r}")
