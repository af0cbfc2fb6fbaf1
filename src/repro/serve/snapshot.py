"""Snapshot/restore of the full serving state — one mmap-able file.

:func:`save_state` materializes a :class:`~repro.core.orientation.
incremental.DynamicOrientation` into its canonical flat arrays (the five
CSR buffers of the live graph plus ``heads`` and ``load``) and writes
them through :func:`~repro.graphs.compact.write_array_snapshot`; the
header's meta block carries the node-id spec and the engine's seed
stream position (``seed``, ``updates_applied``), so a restored engine
answers every query *and* replays every future delta bit-for-bit like
the engine it was saved from.

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

Node ids are stored in one of three encodings, picked at save time:

* ``range`` — the ids are exactly ``0 .. n-1`` as plain ints; only
  ``n`` is stored;
* ``section`` — every id is a plain ``int`` (``bool`` excluded) that
  fits in int64; the table is an ``array('q')`` section named
  ``node_ids``, read back with one ``tuple()`` call;
* ``repr`` — anything else (str, tuple, mixed ids): the tuple's ``repr``
  text in the meta, parsed back with :func:`ast.literal_eval` (lossless
  for the library's id types; verified at save time).  Files written
  before the ``section`` encoding existed use it for int ids too and
  still load.
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

#: Name of the int64 node-id section of the ``section`` encoding.
NODE_IDS_SECTION = "node_ids"


def _encode_node_ids(node_ids) -> Tuple[dict, Optional[array]]:
    """The meta spec of ``node_ids`` and its ``node_ids`` section, if any."""
    n = len(node_ids)
    if all(type(x) is int for x in node_ids):
        if all(x == i for i, x in enumerate(node_ids)):
            return {"encoding": "range", "n": n}, None
        try:
            return {"encoding": "section", "n": n}, array("q", node_ids)
        except OverflowError:
            pass
    text = repr(tuple(node_ids))
    try:
        parsed = ast.literal_eval(text)
    except (ValueError, SyntaxError) as exc:
        raise SnapshotError(
            f"node ids are not literal-evaluable from repr: {exc}"
        ) from exc
    if parsed != tuple(node_ids):
        raise SnapshotError("node ids do not round-trip through repr")
    return {"encoding": "repr", "text": text}, None


def _decode_node_ids(spec, snapshot: ArraySnapshot) -> Tuple:
    if not isinstance(spec, dict):
        raise SnapshotError(f"malformed node-id spec {spec!r}")
    encoding = spec.get("encoding")
    if encoding == "range":
        return tuple(range(spec["n"]))
    if encoding == "section":
        if NODE_IDS_SECTION not in snapshot.section_names():
            raise SnapshotError("node-id section is missing")
        ids = snapshot.section(NODE_IDS_SECTION)
        if len(ids) != spec["n"]:
            raise SnapshotError(
                f"node-id section has {len(ids)} entries for {spec['n']} nodes"
            )
        return tuple(ids)
    if encoding == "repr":
        return tuple(ast.literal_eval(spec["text"]))
    raise SnapshotError(f"unknown node-id encoding {encoding!r}")


def save_state(dynamic: DynamicOrientation, path) -> dict:
    """Write the engine's full serving state to ``path``; returns the meta."""
    with obs.span("serve.snapshot.save") as sp:
        graph, heads, load = dynamic.solved_arrays()
        sections = dict(graph.snapshot_sections())
        sections["heads"] = array("q", heads)
        sections["load"] = array("q", load)
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
    open for its lifetime (the graph's CSR buffers are views into it).
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
