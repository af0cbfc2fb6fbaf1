"""Unit coverage of the serve wire protocol (frames, nodes, deltas)."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.orientation import EdgeDelete, EdgeInsert, NodeJoin, NodeLeave
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_payload,
    delta_from_wire,
    delta_to_wire,
    encode_frame,
    node_to_wire,
    read_frame,
    wire_to_node,
)


def _read_from_bytes(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(run())


class TestFrames:
    def test_round_trip(self):
        payload = {"op": "stats", "nested": {"a": [1, 2, None]}}
        frame = encode_frame(payload)
        assert _read_from_bytes(frame) == payload

    def test_clean_eof_returns_none(self):
        assert _read_from_bytes(b"") is None

    def test_truncated_frame_raises(self):
        frame = encode_frame({"op": "ping"})
        with pytest.raises(ProtocolError):
            _read_from_bytes(frame[:-2])

    def test_truncated_length_prefix_raises(self):
        with pytest.raises(ProtocolError):
            _read_from_bytes(b"\x00\x00")

    def test_oversized_frame_rejected_without_reading_it(self):
        huge = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError):
            _read_from_bytes(huge)

    def test_non_json_payload_raises(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"not json")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_not_json(self, constant):
        # Python's json accepts these; the wire does not.
        with pytest.raises(ProtocolError, match=f"{constant} is not a JSON number"):
            decode_payload(f'{{"node": [1, {constant}]}}'.encode())
        assert decode_payload(b'{"node": [1, 2.5e3]}') == {"node": [1, 2500.0]}


class TestNodeWire:
    @pytest.mark.parametrize(
        "node",
        [0, -3, "server-7", (2, 5), ("churn", 12), (("a", 1), 2), None, True],
    )
    def test_round_trip(self, node):
        assert wire_to_node(node_to_wire(node)) == node

    def test_tuples_become_lists_on_the_wire(self):
        assert node_to_wire((1, (2, "x"))) == [1, [2, "x"]]

    def test_unsupported_type_raises(self):
        with pytest.raises(ProtocolError):
            node_to_wire({"not": "hashable-wire"})

    @pytest.mark.parametrize("value", [{"a": 1}, {}, [1, {"a": 1}], [[{}], 2]])
    def test_json_object_ids_raise_at_any_depth(self, value):
        with pytest.raises(ProtocolError, match="JSON object"):
            wire_to_node(value)
        with pytest.raises(ProtocolError, match="JSON object"):
            delta_from_wire({"kind": "node-join", "node": "n", "attach": [value]})


class TestDeltaWire:
    @pytest.mark.parametrize(
        "delta",
        [
            EdgeInsert((0, 1), (1, 2)),
            EdgeDelete("a", "b"),
            NodeJoin(("churn", 3), ((0, 0), (0, 1))),
            NodeJoin("loner", ()),
            NodeLeave((5, 5)),
        ],
    )
    def test_round_trip(self, delta):
        assert delta_from_wire(delta_to_wire(delta)) == delta

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError):
            delta_from_wire({"kind": "edge-teleport", "u": 0, "v": 1})

    def test_malformed_wire_raises(self):
        with pytest.raises(ProtocolError):
            delta_from_wire("not a dict")
        with pytest.raises(ProtocolError):
            delta_from_wire({"kind": "edge-insert", "u": 0})
