"""Snapshot/restore of the serving state: bit-for-bit and mmap-backed.

The acceptance contract: snapshot → restore → serve round-trips the
orientation, the loads, and the unhappy set bit-for-bit, *and* the
restored engine replays any future delta stream identically (the seed
stream position is part of the state).
"""

from __future__ import annotations

import ast
import json
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.orientation import DynamicOrientation, EdgeDelete
from repro.graphs.compact import (
    CSR_FIELDS,
    SNAPSHOT_MAGIC,
    ArraySnapshot,
    CompactGraph,
    SnapshotError,
    write_array_snapshot,
)
from repro.serve.snapshot import (
    CHECK_CHUNK,
    NODE_IDS_SECTION,
    STATE_KIND,
    _encode_node_ids,
    _plain_literal,
    load_state,
    save_state,
)
from repro.workloads import churn_smoke, churn_smoke_trace
from repro.workloads.churn import churn_trace
from repro.workloads.scenarios import scale_layered_orientation

pytestmark = pytest.mark.integration


def _solved_engine(updates: int = 0):
    instance = churn_smoke(compact=True)
    engine = DynamicOrientation(instance, seed=5)
    trace = list(churn_smoke_trace(instance))
    if updates:
        engine.apply_batch(trace[:updates])
    return engine, trace


def _ring_engine(ids):
    """A solved engine over the cycle through ``ids`` plus one chord."""
    edges = [(ids[i], ids[(i + 1) % len(ids)]) for i in range(len(ids))]
    edges.append((ids[0], ids[2]))
    return DynamicOrientation(CompactGraph.from_edges(edges), seed=3)


def _write_repr_layout(engine, path):
    """Write ``engine`` with every node id as ``repr`` text in the meta.

    The layout of files written before the ``section`` and ``split``
    encodings existed.
    """
    solved, heads, load = engine.solved_arrays()
    sections = dict(solved.snapshot_sections())
    sections["heads"] = array("q", heads)
    sections["load"] = array("q", load)
    meta = {
        "kind": STATE_KIND,
        "num_nodes": solved.num_nodes,
        "num_edges": solved.num_edges,
        "seed": engine.seed,
        "updates_applied": engine.updates_applied,
        "node_ids": {"encoding": "repr", "text": repr(tuple(solved.node_ids))},
    }
    write_array_snapshot(path, sections, meta=meta)


def _edit(change):
    """A corruption: rewrite a snapshot after ``change(meta, sections)``."""

    def corrupt(path):
        with ArraySnapshot(path) as snap:
            meta = snap.meta
            sections = {
                name: array("q", snap.section(name)) for name in snap.section_names()
            }
        change(meta, sections)
        write_array_snapshot(path, sections, meta=meta)

    return corrupt


def _header_not_json(path):
    blob = b"{not json"
    path.write_bytes(SNAPSHOT_MAGIC + len(blob).to_bytes(8, "little") + blob)


#: A node-id spec whose ``repr`` text does not parse.
_UNPARSABLE_IDS = {"encoding": "repr", "text": "(1, 2"}


def _full_state(dynamic):
    graph, heads, load = dynamic.solved_arrays()
    return (
        tuple(graph.node_ids),
        list(graph.indptr),
        list(graph.indices),
        list(graph.slot_edge),
        list(graph.edge_u),
        list(graph.edge_v),
        list(heads),
        list(load),
        sorted(map(repr, dynamic.unhappy_edges())),
        dynamic.seed,
        dynamic.updates_applied,
    )


class TestRoundTrip:
    @pytest.mark.parametrize("updates", [0, 60])
    def test_bit_for_bit(self, tmp_path, updates):
        engine, _ = _solved_engine(updates)
        path = tmp_path / "state.rprosnp"
        meta = save_state(engine, path)
        assert meta["kind"] == STATE_KIND
        assert meta["updates_applied"] == updates
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)

    def test_restored_engine_replays_the_same_future(self, tmp_path):
        engine, trace = _solved_engine(60)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with load_state(path) as restored:
            for delta in trace[60:120]:
                assert restored.apply(delta) == engine.apply(delta)
            assert restored.loads() == engine.loads()
            assert not restored.unhappy_edges()

    def test_restored_engine_accepts_batches(self, tmp_path):
        engine, trace = _solved_engine(30)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with load_state(path) as restored:
            assert restored.apply_batch(trace[30:60]) == engine.apply_batch(
                trace[30:60]
            )

    def test_dense_int_ids_use_the_range_encoding(self, tmp_path):
        # Interning is repr-sorted, so ids 0..9 land in numeric order and
        # the compact range shortcut applies.
        graph = CompactGraph.from_edges(
            [(i, (i + 1) % 10) for i in range(10)], nodes=range(10)
        )
        engine = DynamicOrientation(graph, seed=2)
        path = tmp_path / "dense.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"] == {"encoding": "range", "n": graph.num_nodes}
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)

    def test_scale_family_round_trips_via_section_encoding(self, tmp_path):
        # The scale family's ids are ints in repr order (0, 1, 10, ...), so
        # they miss the range shortcut and go into the int64 section.
        graph = scale_layered_orientation(
            num_levels=6, width=40, edge_probability=0.05, seed=2
        )
        engine = DynamicOrientation(graph, seed=2)
        path = tmp_path / "scale.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"] == {"encoding": "section", "n": graph.num_nodes}
        with ArraySnapshot(path) as snap:
            assert list(snap.section(NODE_IDS_SECTION)) == list(graph.node_ids)
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)

    def test_negative_and_large_int_ids_use_the_section(self, tmp_path):
        ids = [-(2**63), -7, 3, 2**40, 2**63 - 1]
        engine = _ring_engine(ids)
        path = tmp_path / "ints.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"]["encoding"] == "section"
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)
            assert all(type(x) is int for x in restored.solved_arrays()[0].node_ids)

    @pytest.mark.parametrize(
        "ids",
        [
            [("a", 1), ("b", 2), ("c", 3), ("d", 4)],  # tuple ids
            ["x", "y", "z", "w"],  # str ids
            [False, True, 2, 3],  # bools are not plain ints
            [0, 2**63, 5, 9],  # outside int64
        ],
    )
    def test_other_ids_fall_back_to_repr(self, tmp_path, ids):
        engine = _ring_engine(ids)
        path = tmp_path / "other.rprosnp"
        meta = save_state(engine, path)
        # Beside plain int64 ids (which stay in the section) the others
        # are split off; with none, every id is repr text.
        mixed = any(type(x) is int and x < 2**63 for x in ids)
        assert meta["node_ids"]["encoding"] == ("split" if mixed else "repr")
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)
            restored_ids = restored.solved_arrays()[0].node_ids
            assert [type(x) for x in restored_ids] == [
                type(x) for x in engine.solved_arrays()[0].node_ids
            ]

    def test_mixed_ids_split_between_the_section_and_repr_text(self, tmp_path):
        # A churned scale engine: int ids plus ("churn", k) joins.  Only
        # the joins go through repr text; the ints stay in the section.
        graph = scale_layered_orientation(
            num_levels=6, width=40, edge_probability=0.05, seed=2
        )
        engine = DynamicOrientation(graph, seed=2)
        engine.apply_batch(churn_trace(graph, num_updates=80, seed=3))
        node_ids = engine.solved_arrays()[0].node_ids
        joins = [i for i, x in enumerate(node_ids) if type(x) is not int]
        assert joins and len(joins) < len(node_ids)
        path = tmp_path / "mixed.rprosnp"
        spec = save_state(engine, path)["node_ids"]
        assert spec["encoding"] == "split"
        assert spec["positions"] == joins
        assert ast.literal_eval(spec["text"]) == tuple(node_ids[i] for i in joins)
        with ArraySnapshot(path) as snap:
            section = list(snap.section(NODE_IDS_SECTION))
        assert len(section) == len(node_ids)
        assert all(section[i] == x for i, x in enumerate(node_ids) if i not in joins)
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)
            restored_ids = restored.solved_arrays()[0].node_ids
            assert [type(x) for x in restored_ids] == [type(x) for x in node_ids]

    def test_mixed_ids_in_the_repr_layout_still_load(self, tmp_path):
        # Older files carry every id of a churned engine as repr text.
        graph = scale_layered_orientation(
            num_levels=6, width=40, edge_probability=0.05, seed=2
        )
        engine = DynamicOrientation(graph, seed=2)
        engine.apply_batch(churn_trace(graph, num_updates=80, seed=3))
        path = tmp_path / "legacy.rprosnp"
        _write_repr_layout(engine, path)
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)

    @pytest.mark.parametrize(
        "positions", [[0], [0, 1, 2], [1, 1], [-1, 1], [1, 4], [0.0, 1]]
    )
    def test_split_positions_must_match_the_repr_ids(self, tmp_path, positions):
        engine = _ring_engine([0, ("a", 1), ("b", 2), 3])
        path = tmp_path / "mixed.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"]["positions"] == [0, 1]
        spec = dict(meta["node_ids"], positions=positions)
        with ArraySnapshot(path) as snap:
            sections = {
                name: array("q", snap.section(name)) for name in snap.section_names()
            }
        write_array_snapshot(path, sections, meta=dict(meta, node_ids=spec))
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_bool_ids_never_take_the_range_shortcut(self, tmp_path):
        # (False, True) compares equal to (0, 1) but must restore as bools.
        engine = DynamicOrientation(CompactGraph.from_edges([(False, True)]))
        path = tmp_path / "bools.rprosnp"
        meta = save_state(engine, path)
        assert meta["node_ids"]["encoding"] == "repr"
        with load_state(path) as restored:
            node_ids = restored.solved_arrays()[0].node_ids
        assert node_ids == (False, True)
        assert [type(x) for x in node_ids] == [bool, bool]

    def test_int_ids_in_the_repr_layout_still_load(self, tmp_path):
        # Files written before the section encoding carry int ids as repr
        # text in the meta and have no node-id section.
        graph = scale_layered_orientation(
            num_levels=6, width=40, edge_probability=0.05, seed=2
        )
        engine = DynamicOrientation(graph, seed=2)
        ids = graph.node_ids
        engine.apply_batch([EdgeDelete(ids[graph.edge_u[0]], ids[graph.edge_v[0]])])
        path = tmp_path / "legacy.rprosnp"
        _write_repr_layout(engine, path)
        with load_state(path) as restored:
            assert _full_state(restored) == _full_state(engine)

    def test_missing_node_id_section_is_rejected(self, tmp_path):
        graph = scale_layered_orientation(
            num_levels=4, width=20, edge_probability=0.1, seed=2
        )
        engine = DynamicOrientation(graph, seed=2)
        path = tmp_path / "scale.rprosnp"
        save_state(engine, path)
        with ArraySnapshot(path) as snap:
            sections = {
                name: array("q", snap.section(name))
                for name in snap.section_names()
                if name != NODE_IDS_SECTION
            }
            meta = snap.meta
        write_array_snapshot(path, sections, meta=meta)
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_validate_false_skips_the_stability_check(self, tmp_path):
        engine, _ = _solved_engine(10)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with load_state(path, validate=False) as restored:
            assert restored.loads() == engine.loads()


class TestIdCheck:
    """The save-time check that the written repr text parses back."""

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), object(), frozenset({1}), ("a", -float("inf"))],
    )
    def test_unparsable_ids_are_rejected(self, bad):
        # bytes ids parse back but are not skipped, so the bad id sits in
        # the second parsed chunk.
        parsed = tuple(b"c%d" % i for i in range(CHECK_CHUNK))
        ids = (1, "a", ("b", 2)) + parsed + (bad,)
        with pytest.raises(SnapshotError, match="literal-evaluable"):
            _encode_node_ids(ids)

    def test_ids_that_parse_to_other_values_are_rejected(self):
        class Shadow(int):
            pass  # repr "3" parses back as a plain int, so it passes ...

        class Liar:
            def __repr__(self):
                return "7"  # ... and this parses to 7, which it does not equal

        assert _encode_node_ids((Shadow(3), "x"))[0]["encoding"] == "repr"
        with pytest.raises(SnapshotError, match="round-trip"):
            _encode_node_ids((Liar(), "x"))

    @settings(max_examples=60, deadline=None)
    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.text(),
            lambda inner: st.tuples(inner, inner) | st.tuples(inner),
            max_leaves=6,
        )
    )
    def test_plain_literals_parse_back(self, x):
        # The ids the check skips parsing are exactly ones that parse back.
        assert _plain_literal(x)
        assert ast.literal_eval(repr(x)) == x


class TestFileFormat:
    def test_snapshot_is_mmap_backed(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with load_state(path) as restored:
            graph = restored.solved_arrays()[0]
            # The CSR buffers are views into the mapping, not copies.
            assert isinstance(graph.indptr, memoryview)
            assert restored._snapshot is not None

    def test_close_releases_the_mapping(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        restored = load_state(path)
        graph = restored.solved_arrays()[0]
        row = graph.neighbors(0)
        with pytest.raises(BufferError):
            restored.close()  # the row still points into the mapping
        del row
        restored.close()
        assert restored._snapshot is None
        with pytest.raises(ValueError, match="released memoryview"):
            graph.indptr[0]
        restored.close()  # idempotent
        # An engine that was not restored has nothing to release.
        with engine:
            pass
        assert engine.load_of(engine.solved_arrays()[0].node_ids[0]) >= 0

    def test_kernel_run_over_mmap_sections_matches_array_run(self, tmp_path):
        """The phase kernel reads memoryview CSR exactly like ``array`` CSR."""
        import random

        from repro.core.orientation._kernels import stable_orientation_kernel
        from repro.core.orientation.problem import OrientationProblem

        rng = random.Random(3)
        n = 30
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2
        ]
        graph = CompactGraph.from_orientation_problem(
            OrientationProblem(edges, nodes=range(n))
        )
        expected = stable_orientation_kernel(graph, seed=3)
        path = tmp_path / "csr.rprosnp"
        write_array_snapshot(path, graph.snapshot_sections())
        with ArraySnapshot(path) as snap:
            mapped = CompactGraph.from_buffers(
                graph.node_ids, {field: snap.section(field) for field in CSR_FIELDS}
            )
            assert isinstance(mapped.indptr, memoryview)
            assert stable_orientation_kernel(mapped, seed=3) == expected

    def test_wrong_kind_rejected(self, tmp_path):
        from array import array

        path = tmp_path / "other.rprosnp"
        write_array_snapshot(
            path, {"xs": array("q", [1, 2, 3])}, meta={"kind": "other/thing"}
        )
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_truncated_file_rejected(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])
        with pytest.raises(SnapshotError):
            load_state(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.rprosnp"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError):
            ArraySnapshot(path)

    @pytest.mark.parametrize("length", [-1, 1.5])
    def test_bad_section_length_rejected(self, tmp_path, length):
        # A negative length used to shift every later section's offset.
        header = {"version": 1, "meta": {}, "sections": [["a", length], ["b", 1]]}
        blob = json.dumps(header).encode()
        path = tmp_path / "bad.rprosnp"
        path.write_bytes(
            SNAPSHOT_MAGIC + len(blob).to_bytes(8, "little") + blob + bytes(32)
        )
        with pytest.raises(SnapshotError, match=f"bad length {length} of section 'a'"):
            ArraySnapshot(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rprosnp"
        path.write_bytes(b"")
        with pytest.raises(SnapshotError):
            ArraySnapshot(path)

    @pytest.mark.parametrize(
        "corrupt, text, cause",
        [
            (_header_not_json, "malformed header: Expecting", json.JSONDecodeError),
            (_edit(lambda meta, _: meta.pop("seed")), "missing 'seed'", KeyError),
            (
                _edit(lambda meta, _: meta.pop("node_ids")),
                "missing 'node_ids'",
                KeyError,
            ),
            (
                _edit(lambda meta, _: meta["node_ids"].pop("n")),
                "missing 'n'",
                KeyError,
            ),
            (
                _edit(lambda _, sections: sections.pop("heads")),
                "missing 'heads'",
                KeyError,
            ),
            (
                _edit(lambda meta, _: meta.update(node_ids=_UNPARSABLE_IDS)),
                "state.rprosnp: ",
                SyntaxError,
            ),
            (
                _edit(lambda _, sections: sections["load"].append(0)),
                "load array disagrees with the heads array",
                ValueError,
            ),
        ],
        ids=[
            "header-not-json",
            "meta-without-seed",
            "meta-without-node-ids",
            "section-spec-without-n",
            "no-heads-section",
            "unparsable-repr-text",
            "load-disagrees-with-heads",
        ],
    )
    def test_malformed_file_raises_snapshot_error(
        self, tmp_path, capsys, corrupt, text, cause
    ):
        graph = scale_layered_orientation(
            num_levels=4, width=20, edge_probability=0.1, seed=2
        )
        path = tmp_path / "state.rprosnp"
        meta = save_state(DynamicOrientation(graph, seed=2), path)
        assert meta["node_ids"]["encoding"] == "section"
        corrupt(path)
        with pytest.raises(SnapshotError, match=text) as info:
            load_state(path)
        assert type(info.value.__cause__) is cause
        assert str(info.value.__cause__) in str(info.value)
        # The CLI restart reports the same error in one line, no traceback.
        assert cli.main(["serve", "--from-snapshot", str(path)]) == 1
        out, err = capsys.readouterr()
        assert not out
        assert err == f"serve: cannot load snapshot: {info.value}\n"

    def test_array_snapshot_context_manager(self, tmp_path):
        engine, _ = _solved_engine(0)
        path = tmp_path / "state.rprosnp"
        save_state(engine, path)
        with ArraySnapshot(path) as snap:
            assert snap.meta["kind"] == STATE_KIND
            assert "heads" in snap.section_names()
            assert len(snap.section("load")) == engine.num_nodes
