"""Snapshot/restore of the full serving state — one mmap-able file.

:func:`save_state` materializes a :class:`~repro.core.orientation.
incremental.DynamicOrientation` into its canonical flat arrays (the five
CSR buffers of the live graph plus ``heads`` and ``load``) and writes
them through :func:`~repro.graphs.compact.write_array_snapshot`; the
header's meta block carries the node-id spec and the engine's seed
stream position (``seed``, ``updates_applied``), so a restored engine
answers every query *and* replays every future delta bit-for-bit like
the engine it was saved from.  An engine no update has changed exports
its base graph as is; a churned one is rebuilt by
:meth:`~repro.graphs.compact.DeltaOverlayGraph.to_compact` straight from
the stored endpoints, ordering the edges by ``repr`` rank pairs (no
string per edge) and mapping each head through the returned edge order.
At the 100k tier with ~7.7k tuple joins that rebuild is the bulk of the
op, ~0.6–0.7 s in pure Python, and it lifts the server's peak RSS from
~98 MB to ~155 MB.  The spans ``snapshot.export``,
``snapshot.encode_ids`` and ``snapshot.write`` split the
``serve.snapshot.save`` span.

:func:`load_state` memory-maps the file and enters through the trusted
constructor :meth:`~repro.core.orientation.incremental.
DynamicOrientation.from_solved_arrays` — no dict round-trip anywhere on
the path.  What is mapped and what is copied:

* *mapped* — the five CSR buffers (``indptr``, ``indices``,
  ``slot_edge``, ``edge_u``, ``edge_v``; the bulk of the payload) stay
  zero-copy views into the mapping for the engine's lifetime;
* *copied* — ``heads`` and ``load`` into the engine's mutable working
  lists, the overlay's per-edge endpoint lists, and the node-id table
  into a tuple (plus its ``id -> dense`` dict).

Node ids are stored in one of four encodings, picked at save time.  A
*plain int* is an ``int`` (``bool`` excluded) that fits in int64:

* ``range`` — the ids are exactly ``0 .. n-1`` as plain ints, in
  dense order; only ``n`` is stored.  Node ids are interned in ``repr``
  order, which puts ``10`` before ``2``, so this holds only for
  ``n <= 10``; a larger ``0 .. n-1`` instance takes ``section``;
* ``section`` — every id is a plain int; the table is an ``array('q')``
  section named ``node_ids``, read back with one ``tuple()`` call;
* ``split`` — some ids are plain ints and some are not (a churned int
  instance with ``("churn", k)`` joins): the plain ints go into the
  ``node_ids`` section (with 0 at the other positions), and only the
  other ids go into the meta, as their ``positions`` plus the ``repr``
  text of their tuple;
* ``repr`` — no id is a plain int (str, tuple ids): the tuple's
  ``repr`` text in the meta.  Files written before the ``section`` and
  ``split`` encodings existed carry every id this way and still load.

``repr`` text is parsed with :func:`ast.literal_eval` (lossless for the
library's id types), and the save verifies that the text it wrote parses
back to the same ids, so only the non-int ids are ever turned into text.
"""

from __future__ import annotations

import ast
import os
from array import array
from typing import Optional, Tuple

from repro import obs
from repro.core.orientation.incremental import DynamicOrientation
from repro.graphs.compact import (
    CSR_FIELDS,
    ArraySnapshot,
    CompactGraph,
    SnapshotError,
    write_array_snapshot,
)

__all__ = ["STATE_KIND", "load_state", "save_state"]

#: The ``meta["kind"]`` tag distinguishing serving-state snapshots from
#: other array-snapshot files.
STATE_KIND = "repro.serve/dynamic-orientation"

#: Name of the int64 node-id section of the ``section`` and ``split``
#: encodings.
NODE_IDS_SECTION = "node_ids"


def _encode_node_ids(node_ids) -> Tuple[dict, Optional[array]]:
    """The meta spec of ``node_ids`` and its ``node_ids`` section, if any."""
    n = len(node_ids)
    others = [i for i, x in enumerate(node_ids) if not _is_int64(x)]
    if not others:
        if all(x == i for i, x in enumerate(node_ids)):
            return {"encoding": "range", "n": n}, None
        return {"encoding": "section", "n": n}, array("q", node_ids)
    other_ids = tuple(node_ids[i] for i in others)
    text = repr(other_ids)
    try:
        parsed = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise SnapshotError(
            f"node ids are not literal-evaluable from repr: {exc}"
        ) from exc
    if parsed != other_ids:
        raise SnapshotError("node ids do not round-trip through repr")
    if len(others) == n:
        return {"encoding": "repr", "text": text}, None
    ints = list(node_ids)
    for i in others:
        ints[i] = 0
    spec = {"encoding": "split", "n": n, "positions": others, "text": text}
    return spec, array("q", ints)


def _is_int64(x) -> bool:
    """Whether ``x`` is a plain ``int`` (``bool`` excluded) that fits int64."""
    return type(x) is int and -(2**63) <= x < 2**63


def _id_section(spec, snapshot: ArraySnapshot):
    if NODE_IDS_SECTION not in snapshot.section_names():
        raise SnapshotError("node-id section is missing")
    ids = snapshot.section(NODE_IDS_SECTION)
    if len(ids) != spec["n"]:
        raise SnapshotError(
            f"node-id section has {len(ids)} entries for {spec['n']} nodes"
        )
    return ids


def _decode_node_ids(spec, snapshot: ArraySnapshot) -> Tuple:
    if not isinstance(spec, dict):
        raise SnapshotError(f"malformed node-id spec {spec!r}")
    encoding = spec.get("encoding")
    if encoding == "range":
        return tuple(range(spec["n"]))
    if encoding == "section":
        return tuple(_id_section(spec, snapshot))
    if encoding == "repr":
        return tuple(ast.literal_eval(spec["text"]))
    if encoding == "split":
        ids = list(_id_section(spec, snapshot))
        positions = spec["positions"]
        others = ast.literal_eval(spec["text"])
        if (
            len(others) != len(positions)
            or len(set(positions)) != len(positions)
            or not all(type(i) is int and 0 <= i < len(ids) for i in positions)
        ):
            raise SnapshotError(
                f"node-id positions {positions!r} do not match {len(others)} "
                "repr ids"
            )
        for i, x in zip(positions, others):
            ids[i] = x
        return tuple(ids)
    raise SnapshotError(f"unknown node-id encoding {encoding!r}")


def save_state(dynamic: DynamicOrientation, path) -> dict:
    """Write the engine's full serving state to ``path``; returns the meta."""
    with obs.span("serve.snapshot.save") as sp:
        with obs.span("snapshot.export"):
            graph, heads, load = dynamic.solved_arrays()
            sections = dict(graph.snapshot_sections())
            sections["heads"] = array("q", heads)
            sections["load"] = array("q", load)
            del heads, load
        with obs.span("snapshot.encode_ids"):
            node_ids, id_section = _encode_node_ids(graph.node_ids)
        if id_section is not None:
            sections[NODE_IDS_SECTION] = id_section
        meta = {
            "kind": STATE_KIND,
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
            "seed": dynamic.seed,
            "updates_applied": dynamic.updates_applied,
            "node_ids": node_ids,
        }
        with obs.span("snapshot.write"):
            write_array_snapshot(path, sections, meta=meta)
        sp.set(
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            bytes=os.path.getsize(path),
        )
    return meta


def load_state(path, *, validate: bool = True) -> DynamicOrientation:
    """Rebuild a serving engine from a :func:`save_state` file.

    The returned engine keeps the underlying :class:`ArraySnapshot` mapping
    open (the graph's CSR buffers are views into it) until its
    :meth:`~repro.core.orientation.incremental.DynamicOrientation.close`,
    which a ``with load_state(path) as engine:`` block calls on exit.
    ``validate=False`` skips the O(m) stability re-check for trusted files.
    """
    with obs.span("serve.snapshot.load", validate=validate) as sp:
        snapshot = ArraySnapshot(path)
        try:
            meta = snapshot.meta
            if meta.get("kind") != STATE_KIND:
                raise SnapshotError(
                    f"{path}: not a serving-state snapshot "
                    f"(kind={meta.get('kind')!r})"
                )
            node_ids = _decode_node_ids(meta["node_ids"], snapshot)
            graph = CompactGraph.from_buffers(
                node_ids,
                {field: snapshot.section(field) for field in CSR_FIELDS},
            )
            dynamic = DynamicOrientation.from_solved_arrays(
                graph,
                snapshot.section("heads"),
                snapshot.section("load"),
                seed=meta["seed"],
                updates_applied=meta["updates_applied"],
                validate=validate,
            )
        except Exception:
            snapshot.close()
            raise
        # The graph's CSR views point into the mapping; tie the snapshot's
        # lifetime to the engine that owns them.
        dynamic._snapshot = snapshot
        sp.set(num_nodes=graph.num_nodes, num_edges=graph.num_edges)
    return dynamic
