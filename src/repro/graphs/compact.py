"""Compact indexed graph cores: CSR adjacency over dense integer ids.

Every algorithm in the reproduction was originally written against
dict-of-Hashable adjacency maps (:class:`~repro.core.orientation.problem.
OrientationProblem`, :class:`~repro.graphs.bipartite.CustomerServerGraph`).
Those are the *reference* representations: easy to inspect, easy to prove
correct, and agnostic about what a node id is.  Their hot loops, however,
pay hashing, boxing, and ``repr``-based ordering costs on every edge
visit.

This module re-represents an instance **once**, up front:

* node ids (arbitrary Hashables) are interned into dense integers
  ``0 .. n-1`` in ``repr``-sorted order — the same deterministic order the
  reference structures use — so "dense id order" and "reference iteration
  order" coincide and fast-path kernels can reproduce reference results
  exactly;
* adjacency is stored in flat CSR arrays (:mod:`array` of signed 64-bit
  ints, exposed as :class:`memoryview`\\ s — no numpy dependency);
* the translation is lossless: :meth:`CompactGraph.to_orientation_problem`
  and :meth:`CompactBipartite.to_customer_server_graph` rebuild structures
  that compare equal to the originals.

The int-array algorithm kernels that run on these structures live next to
their reference implementations (``repro.core.orientation._kernels``,
``repro.core.assignment._kernels``) and are dispatched automatically from
the public entry points; see :mod:`repro.dispatch` for the dispatch rule.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from itertools import accumulate
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

NodeId = Hashable

#: Typecode for all index arrays: signed 64-bit, large enough for any
#: realistic instance and directly usable as a memoryview format.
INDEX_TYPECODE = "q"

_ITEMSIZE = array(INDEX_TYPECODE).itemsize


def _zeros(n: int) -> array:
    """A zero-initialised index array of length ``n``."""
    return array(INDEX_TYPECODE, bytes(_ITEMSIZE * n))


def intern_nodes(
    nodes: Iterable[NodeId],
) -> Tuple[Tuple[NodeId, ...], Dict[NodeId, int]]:
    """Intern arbitrary Hashable node ids into dense integers.

    Returns ``(ids, index_of)`` where ``ids[i]`` is the original id of
    dense node ``i`` and ``index_of`` inverts the mapping.  The order is
    ``repr``-sorted, matching the deterministic iteration order of the
    reference dict structures (``OrientationProblem.nodes``,
    ``CustomerServerGraph.customers`` / ``.servers``), which is what lets
    the compact kernels replay reference tie-breaking exactly.
    """
    ids = tuple(sorted(set(nodes), key=repr))
    return ids, {node: i for i, node in enumerate(ids)}


def _csr(
    n_rows: int, n_cols: int, rows: Sequence[int], cols: Sequence[int]
) -> Tuple[array, array, array]:
    """CSR ``(indptr, indices, source)`` of the arcs ``(rows[k], cols[k])``.

    The one CSR builder behind every compact structure: a stable
    counting sort, first by column and then by row, over flat
    ``array('q')`` scratch (no per-arc tuples).  Row ``r``'s columns are
    ``indices[indptr[r]:indptr[r+1]]``, ascending — dense ids are
    ``repr``-sorted, so that is reference order — and ``source[slot]``
    is the input position ``k`` of the arc stored in ``slot``; equal
    ``(row, col)`` arcs keep their input order.
    """
    m = len(rows)
    start = [0] * (n_cols + 1)
    for c in cols:
        start[c + 1] += 1
    start = list(accumulate(start))
    by_col = _zeros(m)
    for k, c in enumerate(cols):
        s = start[c]
        by_col[s] = k
        start[c] = s + 1

    counts = [0] * (n_rows + 1)
    for r in rows:
        counts[r + 1] += 1
    indptr = array(INDEX_TYPECODE, accumulate(counts))
    # Placing the column-sorted arcs into per-row cursors leaves every
    # row's columns ascending.
    cursor = indptr.tolist()
    indices = _zeros(m)
    source = _zeros(m)
    for k in by_col:
        r = rows[k]
        s = cursor[r]
        indices[s] = cols[k]
        source[s] = k
        cursor[r] = s + 1
    return indptr, indices, source


#: The five flat CSR buffers of a :class:`CompactGraph`, in snapshot
#: section order.
CSR_FIELDS = ("indptr", "indices", "slot_edge", "edge_u", "edge_v")


class SnapshotError(ValueError):
    """Raised for malformed or truncated array-snapshot files."""


#: Magic prefix of the single-file array snapshot format (version in the
#: trailing byte; bump it on incompatible layout changes).
SNAPSHOT_MAGIC = b"RPROSNP1"


def write_array_snapshot(path, sections: Dict[str, "array"], meta=None) -> None:
    """Write named ``array('q')`` sections into one snapshot file.

    Layout: the 8-byte magic, an 8-byte little-endian header length, a
    JSON header (``{"version", "meta", "sections": [[name, length], ...]}``),
    zero padding up to an 8-byte boundary, then the raw int64 payload of
    every section concatenated in header order.  The payload alignment is
    what makes the file mmap-able: :class:`ArraySnapshot` casts slices of
    the mapping straight to ``'q'`` memoryviews, so loading never copies
    the arrays.

    The write is atomic (temp file + rename in the target directory): a
    crash mid-write can never leave a truncated file under ``path``,
    which matters when a live server snapshots over its previous state.
    """
    import json
    import os

    names = list(sections)
    header = {
        "version": 1,
        "meta": {} if meta is None else meta,
        "sections": [[name, len(sections[name])] for name in names],
    }
    blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode("utf-8")
    pad = (-(len(SNAPSHOT_MAGIC) + 8 + len(blob))) % _ITEMSIZE
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(len(blob).to_bytes(8, "little"))
            fh.write(blob)
            fh.write(b"\0" * pad)
            for name in names:
                fh.write(memoryview(sections[name]).cast("B"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ArraySnapshot:
    """A read-only, mmap-backed view of a :func:`write_array_snapshot` file.

    ``meta`` is the header's meta dict; :meth:`section` returns each
    named section as a zero-copy ``'q'`` memoryview into the mapping.
    ``close()`` releases the views and the mapping — consumers that keep
    a section (e.g. a :class:`CompactGraph` built over it) must keep the
    snapshot open for as long as they use it.
    """

    def __init__(self, path) -> None:
        import json
        import mmap

        self.path = path
        self._fh = open(path, "rb")
        self._views: List = []
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:
            self._fh.close()
            raise SnapshotError(f"{path}: empty or unmappable snapshot file")
        try:
            raw = memoryview(self._mm)
            self._views.append(raw)
            magic = bytes(raw[: len(SNAPSHOT_MAGIC)])
            if magic != SNAPSHOT_MAGIC:
                raise SnapshotError(
                    f"{path}: bad magic {magic!r} (expected {SNAPSHOT_MAGIC!r})"
                )
            pos = len(SNAPSHOT_MAGIC)
            header_len = int.from_bytes(bytes(raw[pos : pos + 8]), "little")
            pos += 8
            if pos + header_len > len(raw):
                raise SnapshotError(f"{path}: truncated header")
            header = json.loads(bytes(raw[pos : pos + header_len]))
            pos += header_len
            pos += (-pos) % _ITEMSIZE
            if header.get("version") != 1:
                raise SnapshotError(
                    f"{path}: unsupported snapshot version {header.get('version')!r}"
                )
            self.meta = header["meta"]
            self._sections: Dict[str, memoryview] = {}
            for name, length in header["sections"]:
                nbytes = length * _ITEMSIZE
                if pos + nbytes > len(raw):
                    raise SnapshotError(f"{path}: truncated section {name!r}")
                sliced = raw[pos : pos + nbytes]
                cast = sliced.cast(INDEX_TYPECODE)
                self._views.append(sliced)
                self._views.append(cast)
                self._sections[name] = cast
                pos += nbytes
        except Exception:
            self.close()
            raise

    def section(self, name: str) -> memoryview:
        """Zero-copy ``'q'`` view of one named section."""
        return self._sections[name]

    def section_names(self) -> Tuple[str, ...]:
        return tuple(self._sections)

    def close(self) -> None:
        self._sections = {}
        for view in reversed(self._views):
            view.release()
        self._views = []
        mm = getattr(self, "_mm", None)
        if mm is not None:
            mm.close()
            self._mm = None
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "ArraySnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArraySnapshot({self.path!r}, sections={list(self._sections)})"


class CompactGraph:
    """An immutable undirected simple graph in CSR form.

    Attributes
    ----------
    node_ids:
        Dense id → original Hashable id, ``repr``-sorted.
    indptr, indices:
        CSR adjacency: the neighbours of dense node ``i`` are
        ``indices[indptr[i]:indptr[i+1]]``, ascending.
    slot_edge:
        Parallel to ``indices``: the edge index of each adjacency slot.
    edge_u, edge_v:
        Per-edge dense endpoints in canonical
        :func:`~repro.core.orientation.problem.edge_key` order, with edges
        sorted exactly like ``OrientationProblem.edges`` (by ``repr`` of
        the canonical key), so edge index ``e`` means the same edge in
        both representations.
    """

    __slots__ = (
        "node_ids",
        "index_of",
        "indptr",
        "indices",
        "slot_edge",
        "edge_u",
        "edge_v",
        "derived",
        "_problem",
        "_edge_index",
    )

    def __init__(
        self,
        node_ids: Tuple[NodeId, ...],
        index_of: Dict[NodeId, int],
        indptr: array,
        indices: array,
        slot_edge: array,
        edge_u: array,
        edge_v: array,
    ) -> None:
        self.node_ids = node_ids
        self.index_of = index_of
        self.indptr = indptr
        self.indices = indices
        self.slot_edge = slot_edge
        self.edge_u = edge_u
        self.edge_v = edge_v
        #: Memo for immutable structures kernels derive from this graph
        #: (e.g. directed repr ranks); keyed by kernel family.  Graphs are
        #: immutable, so derived structures are computed at most once.
        self.derived: Dict[str, object] = {}
        self._problem = None
        self._edge_index: Optional[Dict[Tuple[NodeId, NodeId], int]] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = ()
    ) -> "CompactGraph":
        """Build from an undirected edge iterable (plus isolated nodes).

        Applies the same validation as :class:`OrientationProblem`
        (self-loops and duplicate edges are rejected) and produces the
        same node and edge order, without building the reference
        representation or any per-edge dict or tuple list, so
        million-edge streams fit: endpoints are interned first-seen into
        growing ``array('q')`` buffers as the stream is consumed, edges
        are ordered by the ``repr`` of their canonical key (assembled
        from per-node ``repr`` strings cached once per node), and both
        directions of every edge are counting-sorted into CSR by
        :func:`_csr`.
        """
        from repro.core.orientation.problem import OrientationError, edge_key

        tmp_index: Dict[NodeId, int] = {}
        tmp_nodes: List[NodeId] = []
        tmp_reprs: List[str] = []

        def intern(node: NodeId) -> int:
            i = tmp_index.get(node)
            if i is None:
                i = len(tmp_nodes)
                tmp_index[node] = i
                tmp_nodes.append(node)
                tmp_reprs.append(repr(node))
            return i

        for node in nodes:
            intern(node)
        stream_u = array(INDEX_TYPECODE)
        stream_v = array(INDEX_TYPECODE)
        for u, v in edges:
            ku, kv = edge_key(u, v)
            stream_u.append(intern(ku))
            stream_v.append(intern(kv))
        m = len(stream_u)

        # Exactly ``repr((ku, kv))`` of each canonical key, assembled
        # from the cached per-node reprs; sorting by it gives the
        # reference edge order (sorted() is stable, so ties keep
        # first-seen order like the reference dict's insertion order).
        edge_strs = [
            "(" + tmp_reprs[stream_u[e]] + ", " + tmp_reprs[stream_v[e]] + ")"
            for e in range(m)
        ]
        order = sorted(range(m), key=edge_strs.__getitem__)

        # Duplicates now sit inside runs of equal key strings (a run is
        # almost always a single edge; distinct nodes can share a repr
        # only for pathological id types).
        k = 0
        while k < m:
            j = k + 1
            while j < m and edge_strs[order[j]] == edge_strs[order[k]]:
                j += 1
            if j - k > 1:
                run_pairs = set()
                for t in range(k, j):
                    e = order[t]
                    pair = (stream_u[e], stream_v[e])
                    if pair in run_pairs:
                        raise OrientationError("duplicate edge " + edge_strs[e])
                    run_pairs.add(pair)
            k = j

        n = len(tmp_nodes)
        node_order = sorted(range(n), key=tmp_reprs.__getitem__)
        node_ids = tuple(tmp_nodes[i] for i in node_order)
        index_of = {node: i for i, node in enumerate(node_ids)}
        rank = _zeros(n)
        for dense, i in enumerate(node_order):
            rank[i] = dense

        edge_u = _zeros(m)
        edge_v = _zeros(m)
        for e, k in enumerate(order):
            edge_u[e] = rank[stream_u[k]]
            edge_v[e] = rank[stream_v[k]]
        del stream_u, stream_v, edge_strs, order, tmp_reprs, tmp_index, rank

        # Arc k < m is edge k read u -> v, arc m + k the same edge v -> u.
        indptr, indices, source = _csr(n, n, edge_u + edge_v, edge_v + edge_u)
        slot_edge = array(INDEX_TYPECODE, (k % m for k in source))
        return cls(node_ids, index_of, indptr, indices, slot_edge, edge_u, edge_v)

    @classmethod
    def from_orientation_problem(cls, problem) -> "CompactGraph":
        """Intern an :class:`OrientationProblem` (lossless; see round-trip tests)."""
        compact = cls.from_edges(problem.edges, nodes=problem.adjacency.keys())
        compact._problem = problem
        return compact

    def to_orientation_problem(self):
        """The equivalent reference :class:`OrientationProblem` (cached)."""
        if self._problem is None:
            from repro.core.orientation.problem import OrientationProblem

            self._problem = OrientationProblem(
                edges=self.edge_keys(), nodes=self.node_ids
            )
        return self._problem

    # -- queries --------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_edges(self) -> int:
        return len(self.edge_u)

    def degree(self, i: int) -> int:
        """Degree of dense node ``i``."""
        return self.indptr[i + 1] - self.indptr[i]

    def max_degree(self) -> int:
        ptr = self.indptr
        return max(
            (ptr[i + 1] - ptr[i] for i in range(self.num_nodes)), default=0
        )

    def neighbors(self, i: int) -> memoryview:
        """Dense neighbour ids of dense node ``i`` as a zero-copy memoryview."""
        return memoryview(self.indices)[self.indptr[i] : self.indptr[i + 1]]

    def edge_keys(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """Original-id canonical edge keys, in edge-index order (cached)."""
        cached = self.derived.get("edge_keys")
        if cached is None:
            ids = self.node_ids
            cached = tuple(
                (ids[self.edge_u[e]], ids[self.edge_v[e]])
                for e in range(self.num_edges)
            )
            self.derived["edge_keys"] = cached
        return cached

    def edge_index(self, u: NodeId, v: NodeId) -> int:
        """Edge index of the undirected edge {u, v} (original ids)."""
        from repro.core.orientation.problem import edge_key

        if self._edge_index is None:
            self._edge_index = {key: e for e, key in enumerate(self.edge_keys())}
        return self._edge_index[edge_key(u, v)]

    # -- snapshots ------------------------------------------------------
    def snapshot_sections(self) -> Dict[str, array]:
        """The five CSR buffers keyed by field name, in section order.

        The write side of the snapshot round trip: pass these (plus any
        caller sections) to :func:`write_array_snapshot` and rebuild with
        :meth:`from_buffers` over an :class:`ArraySnapshot`'s views.
        """
        return {field: getattr(self, field) for field in CSR_FIELDS}

    @classmethod
    def from_buffers(
        cls, node_ids: Sequence[NodeId], sections: Dict[str, memoryview]
    ) -> "CompactGraph":
        """Rebuild a graph over externally-owned CSR buffers — zero copy.

        ``sections`` maps the :data:`CSR_FIELDS` names to ``'q'``
        buffers (typically :meth:`ArraySnapshot.section` views, which
        stay mmap-backed).  Buffer lengths are cross-checked; the caller
        keeps the backing storage alive for the graph's lifetime.
        """
        node_ids = tuple(node_ids)
        n = len(node_ids)
        missing = [f for f in CSR_FIELDS if f not in sections]
        if missing:
            raise SnapshotError(f"missing CSR sections: {missing}")
        indptr = sections["indptr"]
        indices = sections["indices"]
        slot_edge = sections["slot_edge"]
        edge_u = sections["edge_u"]
        edge_v = sections["edge_v"]
        m = len(edge_u)
        if len(indptr) != n + 1:
            raise SnapshotError(
                f"indptr has {len(indptr)} entries for {n} nodes"
            )
        if len(edge_v) != m or len(indices) != 2 * m or len(slot_edge) != 2 * m:
            raise SnapshotError("CSR section lengths are inconsistent")
        return cls(
            node_ids=node_ids,
            index_of=dict(zip(node_ids, range(n))),
            indptr=indptr,
            indices=indices,
            slot_edge=slot_edge,
            edge_u=edge_u,
            edge_v=edge_v,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompactGraph(nodes={self.num_nodes}, edges={self.num_edges})"


class DeltaError(ValueError):
    """Raised for invalid graph deltas (unknown nodes, duplicate edges, ...).

    ``index`` is the batch position of the rejected delta when
    :meth:`~repro.core.orientation.incremental.DynamicOrientation.
    apply_batch` raised the error (the deltas before it were applied),
    and ``None`` otherwise.
    """

    index: Optional[int] = None


class DeltaOverlayGraph:
    """A mutable node/edge overlay over an immutable :class:`CompactGraph`.

    The incremental engine (:mod:`repro.core.orientation.incremental`)
    applies long churn traces to a solved instance; rebuilding the CSR
    arrays per update would cost O(n + m) each time.  This view instead
    keeps the base graph untouched and layers deltas on top:

    * base edges carry their original edge indices; deleting one only
      flips its bit in ``edge_alive``;
    * inserted edges get fresh indices ``>= base.num_edges`` with their
      endpoints appended to ``edge_u``/``edge_v`` and their adjacency
      kept in per-node overlay lists;
    * joined nodes get fresh dense ids ``>= base.num_nodes`` (appended,
      *not* repr-sorted — consumers of the overlay never rely on the
      dense-order-equals-repr-order invariant of :class:`CompactGraph`);
    * a node that leaves keeps its dense slot (dead, degree 0) so edge
      endpoints never dangle; re-joining the same id revives the slot.

    Edge lookup (``{u, v}`` -> live edge index) keeps no per-edge map of
    the base graph: a CSR row holds its columns ascending, so a base
    edge is one bisect for ``v``'s dense id in ``u``'s row, then
    ``slot_edge`` and an ``edge_alive`` check.  Only inserted edges sit
    in a dict, keyed by their dense endpoint pair (smaller id first).  A
    base edge that was deleted and re-inserted is found through the dict
    (its base slot stays dead), so at most one live index answers for a
    pair.  Constructing the overlay is therefore O(n) list copies plus
    O(m) for the endpoint lists, with no hashing per edge.

    Memo invalidation is precise: the base graph's ``derived`` cache
    (``directed_ranks``, ``edge_keys``) is never touched — the base is
    immutable, so those stay valid for anyone still holding the base —
    while the overlay's own aggregate memos (``derived``) are dropped on
    every mutation.  Per-edge facts (endpoints, repr keys derived from
    them) are immutable per edge index and are therefore cached by
    consumers without any invalidation protocol.
    """

    __slots__ = (
        "base",
        "node_ids",
        "index_of",
        "node_alive",
        "edge_u",
        "edge_v",
        "edge_alive",
        "extra_adj",
        "_extra_dead",
        "degrees",
        "sum_sq_degree",
        "_extra_edge",
        "_num_live_nodes",
        "_num_live_edges",
        "derived",
    )

    def __init__(self, base: CompactGraph) -> None:
        self.base = base
        n = base.num_nodes
        m = base.num_edges
        self.node_ids: List[NodeId] = list(base.node_ids)
        self.index_of: Dict[NodeId, int] = dict(base.index_of)
        self.node_alive = bytearray([1]) * n if n else bytearray()
        self.edge_u: List[int] = list(base.edge_u)
        self.edge_v: List[int] = list(base.edge_v)
        self.edge_alive = bytearray([1]) * m if m else bytearray()
        #: Dense node id -> overlay edge ids touching it (may contain
        #: dead ids; iteration filters on ``edge_alive``).
        self.extra_adj: Dict[int, List[int]] = {}
        #: Dense node id -> dead ids currently in its ``extra_adj`` list.
        #: A long-lived engine under steady edge churn (the serving
        #: workload: delete/re-insert flaps) would otherwise grow these
        #: lists without bound and every frontier refresh would slow
        #: down; ``_kill_edge`` compacts a list once half of it is dead,
        #: which is amortized O(1) per kill.
        self._extra_dead: Dict[int, int] = {}
        ptr = base.indptr
        self.degrees: List[int] = [ptr[i + 1] - ptr[i] for i in range(n)]
        #: Σ deg(v)² over live nodes, maintained incrementally (sizes the
        #: repair loop's safety valve without an O(n) rescan per update).
        self.sum_sq_degree = sum(d * d for d in self.degrees)
        #: (smaller, larger) dense endpoint pair -> live *inserted* edge
        #: index; live base edges are found through the CSR instead.
        self._extra_edge: Dict[Tuple[int, int], int] = {}
        self._num_live_nodes = n
        self._num_live_edges = m
        #: Aggregate memos (dropped on every mutation); per-edge facts
        #: never change for a given edge index and need no invalidation.
        self.derived: Dict[str, object] = {}

    # -- queries --------------------------------------------------------
    @property
    def num_live_nodes(self) -> int:
        return self._num_live_nodes

    @property
    def num_live_edges(self) -> int:
        return self._num_live_edges

    @property
    def num_edge_slots(self) -> int:
        """Total edge indices ever allocated (live and dead)."""
        return len(self.edge_u)

    def has_node(self, node: NodeId) -> bool:
        i = self.index_of.get(node)
        return i is not None and bool(self.node_alive[i])

    def _live_edge(self, u: NodeId, v: NodeId) -> int:
        """Live edge index of {u, v}, or ``-1`` when there is none.

        Raises :class:`~repro.core.orientation.problem.OrientationError`
        for a self-loop, like :func:`~repro.core.orientation.problem.
        edge_key` does.
        """
        if u == v:
            from repro.core.orientation.problem import edge_key

            edge_key(u, v)
        index_of = self.index_of
        ui = index_of.get(u)
        vi = index_of.get(v)
        if ui is None or vi is None:
            return -1
        base = self.base
        n = base.num_nodes
        if ui < n and vi < n:
            # One bisect for vi in ui's ascending CSR row.
            ptr = base.indptr
            indices = base.indices
            hi = ptr[ui + 1]
            s = bisect_left(indices, vi, ptr[ui], hi)
            if s < hi and indices[s] == vi:
                e = base.slot_edge[s]
                if self.edge_alive[e]:
                    return e
        return self._extra_edge.get((ui, vi) if ui < vi else (vi, ui), -1)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        return self._live_edge(u, v) >= 0

    def edge_index(self, u: NodeId, v: NodeId) -> int:
        """Live edge index of {u, v}; raises :class:`DeltaError` if absent."""
        e = self._live_edge(u, v)
        if e < 0:
            from repro.core.orientation.problem import edge_key

            raise DeltaError(f"no live edge {edge_key(u, v)!r}")
        return e

    def incident_edges(self, i: int):
        """Live edge indices incident to dense node ``i`` (lazy)."""
        alive = self.edge_alive
        if i < self.base.num_nodes:
            ptr = self.base.indptr
            slot_edge = self.base.slot_edge
            for s in range(ptr[i], ptr[i + 1]):
                e = slot_edge[s]
                if alive[e]:
                    yield e
        for e in self.extra_adj.get(i, ()):
            if alive[e]:
                yield e

    def live_node_indices(self) -> List[int]:
        return [i for i in range(len(self.node_ids)) if self.node_alive[i]]

    def live_edge_indices(self) -> List[int]:
        return [e for e in range(len(self.edge_u)) if self.edge_alive[e]]

    def edge_keys(self) -> Tuple[Tuple[NodeId, NodeId], ...]:
        """Canonical keys of the live edges, in edge-index order (memoized)."""
        cached = self.derived.get("edge_keys")
        if cached is None:
            ids = self.node_ids
            from repro.core.orientation.problem import edge_key

            cached = tuple(
                edge_key(ids[self.edge_u[e]], ids[self.edge_v[e]])
                for e in self.live_edge_indices()
            )
            self.derived["edge_keys"] = cached
        return cached

    # -- mutation -------------------------------------------------------
    def add_node(self, node: NodeId) -> int:
        """Add (or revive) an isolated node; returns its dense id."""
        i = self.index_of.get(node)
        if i is not None:
            if self.node_alive[i]:
                raise DeltaError(f"node {node!r} already exists")
            self.node_alive[i] = 1
        else:
            i = len(self.node_ids)
            self.node_ids.append(node)
            self.index_of[node] = i
            self.node_alive.append(1)
            self.degrees.append(0)
        self._num_live_nodes += 1
        self.derived.clear()
        return i

    def remove_node(self, node: NodeId) -> List[int]:
        """Remove a node and its incident edges; returns the removed edge ids."""
        i = self.index_of.get(node)
        if i is None or not self.node_alive[i]:
            raise DeltaError(f"node {node!r} does not exist")
        removed = list(self.incident_edges(i))
        for e in removed:
            self._kill_edge(e)
        self.node_alive[i] = 0
        self._num_live_nodes -= 1
        self.derived.clear()
        return removed

    def add_edge(self, u: NodeId, v: NodeId) -> int:
        """Insert edge {u, v} between existing live nodes; returns its id."""
        from repro.core.orientation.problem import edge_key

        key = edge_key(u, v)
        if self._live_edge(u, v) >= 0:
            raise DeltaError(f"duplicate edge {key!r}")
        ui = self.index_of.get(u)
        vi = self.index_of.get(v)
        if ui is None or not self.node_alive[ui]:
            raise DeltaError(f"unknown node {u!r} in edge {key!r}")
        if vi is None or not self.node_alive[vi]:
            raise DeltaError(f"unknown node {v!r} in edge {key!r}")
        e = len(self.edge_u)
        # Endpoints stored in canonical-key order, like CompactGraph.
        ku, kv = key
        self.edge_u.append(self.index_of[ku])
        self.edge_v.append(self.index_of[kv])
        self.edge_alive.append(1)
        self.extra_adj.setdefault(ui, []).append(e)
        self.extra_adj.setdefault(vi, []).append(e)
        self._extra_edge[(ui, vi) if ui < vi else (vi, ui)] = e
        self._bump_degree(ui, +1)
        self._bump_degree(vi, +1)
        self._num_live_edges += 1
        self.derived.clear()
        return e

    def remove_edge(self, u: NodeId, v: NodeId) -> int:
        """Delete edge {u, v}; returns the edge id that died."""
        e = self.edge_index(u, v)
        self._kill_edge(e)
        self.derived.clear()
        return e

    def _kill_edge(self, e: int) -> None:
        u, v = self.edge_u[e], self.edge_v[e]
        self.edge_alive[e] = 0
        self._bump_degree(u, -1)
        self._bump_degree(v, -1)
        self._num_live_edges -= 1
        if e >= self.base.num_edges:
            # Only inserted edges live in extra_adj and _extra_edge; base
            # edges are tombstoned in place inside the (bounded) CSR slots.
            del self._extra_edge[(u, v) if u < v else (v, u)]
            self._prune_extra(u)
            self._prune_extra(v)

    def _prune_extra(self, i: int) -> None:
        """Drop dead ids from ``extra_adj[i]`` once half the list is dead.

        Keeps the relative order of the live ids, so incident-edge
        iteration order — and with it every downstream tie-break — is
        unchanged.
        """
        dead = self._extra_dead.get(i, 0) + 1
        extra = self.extra_adj[i]
        if len(extra) >= 8 and dead * 2 >= len(extra):
            alive = self.edge_alive
            self.extra_adj[i] = [x for x in extra if alive[x]]
            self._extra_dead[i] = 0
        else:
            self._extra_dead[i] = dead

    def _bump_degree(self, i: int, delta: int) -> None:
        d = self.degrees[i]
        self.degrees[i] = d + delta
        self.sum_sq_degree += (d + delta) * (d + delta) - d * d

    # -- materialization ------------------------------------------------
    def to_compact(self) -> CompactGraph:
        """Materialize the live graph as a fresh (repr-sorted) CompactGraph."""
        return CompactGraph.from_edges(
            self.edge_keys(),
            nodes=[self.node_ids[i] for i in self.live_node_indices()],
        )

    def to_orientation_problem(self):
        """Materialize the live graph as a reference OrientationProblem."""
        from repro.core.orientation.problem import OrientationProblem

        return OrientationProblem(
            edges=self.edge_keys(),
            nodes=[self.node_ids[i] for i in self.live_node_indices()],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DeltaOverlayGraph(live_nodes={self._num_live_nodes}, "
            f"live_edges={self._num_live_edges}, "
            f"slots={len(self.edge_u)})"
        )


class CompactBipartite:
    """An immutable customer--server bipartite graph in CSR form.

    Customers and servers are interned separately (each side
    ``repr``-sorted), with both adjacency directions stored:
    ``cust_indptr``/``cust_indices`` map a dense customer id to its dense
    server ids (ascending, i.e. in reference ``repr`` order) and
    ``serv_indptr``/``serv_indices`` the reverse.
    """

    __slots__ = (
        "customer_ids",
        "server_ids",
        "customer_index",
        "server_index",
        "cust_indptr",
        "cust_indices",
        "serv_indptr",
        "serv_indices",
        "_graph",
    )

    def __init__(
        self,
        customer_ids: Tuple[NodeId, ...],
        server_ids: Tuple[NodeId, ...],
        customer_index: Dict[NodeId, int],
        server_index: Dict[NodeId, int],
        cust_indptr: array,
        cust_indices: array,
        serv_indptr: array,
        serv_indices: array,
    ) -> None:
        self.customer_ids = customer_ids
        self.server_ids = server_ids
        self.customer_index = customer_index
        self.server_index = server_index
        self.cust_indptr = cust_indptr
        self.cust_indices = cust_indices
        self.serv_indptr = serv_indptr
        self.serv_indices = serv_indices
        self._graph = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        customers: Iterable[NodeId],
        servers: Iterable[NodeId],
        edges: Iterable[Tuple[NodeId, NodeId]],
    ) -> "CompactBipartite":
        """Build directly from ``(customer, server)`` edges.

        Mirrors :class:`CustomerServerGraph` validation: overlapping ids,
        unknown endpoints, duplicate edges, and isolated customers are all
        rejected, so the two constructors accept exactly the same inputs.
        Edges go straight into ``array('q')`` buffers and each CSR
        direction is one :func:`_csr` call; duplicates are found after
        the sort, as equal neighbouring slots of a customer's row.
        """
        from repro.graphs.bipartite import BipartiteGraphError

        customer_ids, customer_index = intern_nodes(customers)
        server_ids, server_index = intern_nodes(servers)
        overlap = set(customer_ids) & set(server_ids)
        if overlap:
            raise BipartiteGraphError(
                f"identifiers used on both sides: {sorted(map(repr, overlap))}"
            )

        stream_c = array(INDEX_TYPECODE)
        stream_s = array(INDEX_TYPECODE)
        for edge in edges:
            if len(edge) != 2:
                raise BipartiteGraphError(
                    f"edge {edge!r} is not a (customer, server) pair"
                )
            customer, server = edge
            ci = customer_index.get(customer)
            if ci is None:
                raise BipartiteGraphError(
                    f"unknown customer {customer!r} in edge {edge!r}"
                )
            si = server_index.get(server)
            if si is None:
                raise BipartiteGraphError(f"unknown server {server!r} in edge {edge!r}")
            stream_c.append(ci)
            stream_s.append(si)

        num_c, num_s = len(customer_ids), len(server_ids)
        cust_indptr, cust_indices, _ = _csr(num_c, num_s, stream_c, stream_s)
        for ci in range(num_c):
            for slot in range(cust_indptr[ci] + 1, cust_indptr[ci + 1]):
                if cust_indices[slot] == cust_indices[slot - 1]:
                    raise BipartiteGraphError(
                        f"duplicate edge ({customer_ids[ci]!r}, "
                        f"{server_ids[cust_indices[slot]]!r})"
                    )
        isolated = [
            customer_ids[ci]
            for ci in range(num_c)
            if cust_indptr[ci] == cust_indptr[ci + 1]
        ]
        if isolated:
            raise BipartiteGraphError(
                "every customer needs at least one adjacent server; isolated "
                f"customer(s): {sorted(map(repr, isolated))}"
            )
        serv_indptr, serv_indices, _ = _csr(num_s, num_c, stream_s, stream_c)
        return cls(
            customer_ids,
            server_ids,
            customer_index,
            server_index,
            cust_indptr,
            cust_indices,
            serv_indptr,
            serv_indices,
        )

    @classmethod
    def from_customer_server_graph(cls, graph) -> "CompactBipartite":
        """Intern a :class:`CustomerServerGraph` (lossless; see round-trip tests)."""
        compact = cls.from_edges(
            customers=graph.customer_adjacency.keys(),
            servers=graph.server_adjacency.keys(),
            edges=graph.edges(),
        )
        compact._graph = graph
        return compact

    def to_customer_server_graph(self):
        """The equivalent reference :class:`CustomerServerGraph` (cached)."""
        if self._graph is None:
            from repro.graphs.bipartite import CustomerServerGraph

            edges = []
            for ci in range(self.num_customers):
                customer = self.customer_ids[ci]
                for slot in range(self.cust_indptr[ci], self.cust_indptr[ci + 1]):
                    edges.append((customer, self.server_ids[self.cust_indices[slot]]))
            self._graph = CustomerServerGraph(
                customers=self.customer_ids, servers=self.server_ids, edges=edges
            )
        return self._graph

    # -- queries --------------------------------------------------------
    @property
    def num_customers(self) -> int:
        return len(self.customer_ids)

    @property
    def num_servers(self) -> int:
        return len(self.server_ids)

    @property
    def num_edges(self) -> int:
        return len(self.cust_indices)

    def customer_degree(self, ci: int) -> int:
        return self.cust_indptr[ci + 1] - self.cust_indptr[ci]

    def server_degree(self, si: int) -> int:
        return self.serv_indptr[si + 1] - self.serv_indptr[si]

    def servers_of(self, ci: int) -> memoryview:
        """Dense server ids adjacent to dense customer ``ci`` (ascending)."""
        return memoryview(self.cust_indices)[
            self.cust_indptr[ci] : self.cust_indptr[ci + 1]
        ]

    def customers_of(self, si: int) -> memoryview:
        """Dense customer ids adjacent to dense server ``si`` (ascending)."""
        return memoryview(self.serv_indices)[
            self.serv_indptr[si] : self.serv_indptr[si + 1]
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompactBipartite(customers={self.num_customers}, "
            f"servers={self.num_servers}, edges={self.num_edges})"
        )
