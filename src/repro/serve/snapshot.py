"""Snapshot/restore of the full serving state — one mmap-able file.

:func:`save_state` writes the sections of :meth:`~repro.core.orientation.
incremental.DynamicOrientation.export_sections` (the five CSR buffers of
the live graph plus ``heads`` and ``load``, all ``array('q')``) through
:func:`~repro.graphs.compact.write_array_snapshot`, with no graph
object or id dict in between; the header's meta block
carries the node-id spec and the engine's seed stream position
(``seed``, ``updates_applied``), so a restored engine answers every
query *and* replays every future delta bit-for-bit like the engine it
was saved from.  An engine no update has changed exports its base graph
as is; a churned one merges the base CSR with the overlay
(:meth:`~repro.graphs.compact.DeltaOverlayGraph.export_sections`).  At
the 100k tier after 32k mixed deltas (~7.7k tuple joins), on a 2-core
box, the save takes ~0.43–0.57 s against ~0.65–0.79 s for the rebuild
it replaced, and ``tracemalloc`` puts its peak at ~1.4x the 12.5 MB
file against ~4.7x.
The spans ``snapshot.export``, ``snapshot.encode_ids`` and
``snapshot.write`` split the ``serve.snapshot.save`` span.

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
The check parses chunks of :data:`CHECK_CHUNK` ids, not one tree for the
whole text, and skips ids whose type always parses back (exact ``int``,
``str``, ``bool``, ``None``, finite ``float`` and tuples of them), so it
rejects exactly the ids a whole-text parse rejects.
"""

from __future__ import annotations

import ast
import math
import os
from array import array
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.core.orientation.incremental import DynamicOrientation
from repro.graphs.compact import (
    _MALFORMED,
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
    others = [i for i, x in enumerate(node_ids) if type(x) is not int]
    ints = list(node_ids)
    for i in others:
        ints[i] = 0
    try:
        section = array("q", ints)
    except OverflowError:
        others = [i for i, x in enumerate(node_ids) if not _is_int64(x)]
        for i in others:
            ints[i] = 0
        section = array("q", ints)
    del ints
    if not others:
        if all(x == i for i, x in enumerate(node_ids)):
            return {"encoding": "range", "n": n}, None
        return {"encoding": "section", "n": n}, section
    other_ids = tuple(node_ids[i] for i in others)
    text = repr(other_ids)
    _check_literal([x for x in other_ids if not _plain_literal(x)])
    if len(others) == n:
        return {"encoding": "repr", "text": text}, None
    return {"encoding": "split", "n": n, "positions": others, "text": text}, section


#: Ids per :func:`ast.literal_eval` call of the save-time check: the
#: parse tree of one chunk, not of the whole text, bounds its memory.
CHECK_CHUNK = 4096


def _plain_literal(x) -> bool:
    """Whether ``x`` is of a type whose ``repr`` always parses back to it.

    An exact ``int``, ``str``, ``bool`` or ``None``, a finite ``float``,
    or an exact ``tuple`` of such values: :func:`ast.literal_eval` of the
    ``repr`` of one gives an equal value, so the save skips parsing it.
    """
    t = type(x)
    if t is tuple:
        return all(map(_plain_literal, x))
    if t is float:
        return math.isfinite(x)
    return t is int or t is str or t is bool or x is None


def _check_literal(ids: Sequence) -> None:
    """Raise :class:`SnapshotError` unless ``repr(tuple(ids))`` parses back
    to the same ids.

    The text is checked chunk by chunk: a tuple's ``repr`` is its items'
    reprs joined by ``", "``, so each chunk's ``repr`` is a slice of the
    same item texts, and one chunk's parse tree is all that is held.
    """
    for lo in range(0, len(ids), CHECK_CHUNK):
        chunk = tuple(ids[lo : lo + CHECK_CHUNK])
        try:
            parsed = ast.literal_eval(repr(chunk))
        except (ValueError, SyntaxError) as exc:
            raise SnapshotError(
                f"node ids are not literal-evaluable from repr: {exc}"
            ) from exc
        if parsed != chunk:
            raise SnapshotError("node ids do not round-trip through repr")


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
            node_ids, sections, _ = dynamic.export_sections()
        with obs.span("snapshot.encode_ids"):
            spec, id_section = _encode_node_ids(node_ids)
        if id_section is not None:
            sections[NODE_IDS_SECTION] = id_section
        meta = {
            "kind": STATE_KIND,
            "num_nodes": len(node_ids),
            "num_edges": len(sections["edge_u"]),
            "seed": dynamic.seed,
            "updates_applied": dynamic.updates_applied,
            "node_ids": spec,
        }
        with obs.span("snapshot.write"):
            write_array_snapshot(path, sections, meta=meta)
        sp.set(
            num_nodes=meta["num_nodes"],
            num_edges=meta["num_edges"],
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
    A malformed or truncated file raises :class:`~repro.graphs.compact.
    SnapshotError`, chained to the error that found it.
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
        except Exception as exc:
            snapshot.close()
            if isinstance(exc, SnapshotError) or not isinstance(exc, _MALFORMED):
                raise
            # A meta field or section is missing, id text does not parse,
            # or from_solved_arrays rejects the arrays: the text is kept.
            reason = f"missing {exc}" if isinstance(exc, KeyError) else exc
            raise SnapshotError(f"{path}: {reason}") from exc
        # The graph's CSR views point into the mapping; tie the snapshot's
        # lifetime to the engine that owns them.
        dynamic._snapshot = snapshot
        sp.set(num_nodes=graph.num_nodes, num_edges=graph.num_edges)
    return dynamic
