"""Compressed sparse row directed graph.

This is the storage substrate the whole reproduction runs on.  It plays the
role that GraphChi's in-memory shard representation plays in the paper: a
static directed graph whose vertices carry integer labels ``0..V-1`` (the
paper's ``L_v``) and whose edges carry stable integer identifiers
``0..E-1`` used to index the per-edge data arrays in
:mod:`repro.engine.state`.

Both adjacency directions are materialized (CSR over out-edges and CSC
over in-edges) because the paper's update functions run in *pull mode*:
``f(v)``'s scope is ``v`` plus **all** incident edges, read during gather
(typically in-edges) and written during scatter (typically out-edges).

Everything is NumPy-backed and immutable after construction; per the
hpc-parallel guides, hot paths expose vectorized array views rather than
per-edge Python objects.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["DiGraph", "ragged_ids", "sorted_unique"]


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array, by a sort and an
    adjacent-difference mask (``np.unique`` hashes integer keys, which
    costs several times as much)."""
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def ragged_ids(ids: np.ndarray, indptr: np.ndarray,
               eid: np.ndarray) -> np.ndarray:
    """Concatenated ``eid[indptr[v]:indptr[v + 1]]`` for the vertices
    ``ids``: the CSR/CSC edge-id slices of a vertex set."""
    ids = np.asarray(ids, dtype=np.int64)
    lo = indptr[ids]
    lens = indptr[ids + 1] - lo
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Vectorized multi-slice gather: positions = concat(range(lo, hi)).
    pos = np.repeat(lo - np.concatenate(([0], lens[:-1])).cumsum(), lens)
    pos += np.arange(total, dtype=np.int64)
    return eid[pos]


class DiGraph:
    """An immutable directed graph in CSR/CSC form.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``V``.  Vertex labels are ``0..V-1``.
    src, dst:
        Parallel integer arrays of edge endpoints.  Edges are re-ordered
        internally so that edge id ``e`` is the ``e``-th edge in
        ``(src, dst)`` lexicographic order; parallel duplicate edges are
        allowed (the builder can be asked to deduplicate them) and
        self-loops are allowed unless the builder strips them.

    Notes
    -----
    Use :class:`repro.graph.builder.GraphBuilder` or the module-level
    constructors in :mod:`repro.graph.generators` for anything beyond raw
    arrays.
    """

    __slots__ = (
        "_n",
        "_m",
        "_src",
        "_dst",
        "_out_indptr",
        "_out_dst",
        "_out_eid",
        "_in_indptr",
        "_in_src",
        "_in_eid",
    )

    def __init__(self, num_vertices: int, src: Sequence[int], dst: Sequence[int]):
        n = int(num_vertices)
        if n < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        src_arr = np.asarray(src, dtype=np.int64)
        dst_arr = np.asarray(dst, dtype=np.int64)
        if src_arr.ndim != 1 or dst_arr.ndim != 1:
            raise ValueError("src and dst must be one-dimensional")
        if src_arr.shape != dst_arr.shape:
            raise ValueError(
                f"src and dst must have equal length, got {src_arr.size} and {dst_arr.size}"
            )
        if src_arr.size:
            lo = min(src_arr.min(), dst_arr.min())
            hi = max(src_arr.max(), dst_arr.max())
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"edge endpoint out of range [0, {n}): found value {lo if lo < 0 else hi}"
                )

        # Canonical edge ids: lexicographic (src, dst) order.  A stable
        # sort keeps duplicate edges in input order, which makes edge-data
        # round-trips through io.py deterministic.
        order = np.lexsort((dst_arr, src_arr))
        self._src = np.ascontiguousarray(src_arr[order])
        self._dst = np.ascontiguousarray(dst_arr[order])
        self._n = n
        self._m = int(self._src.size)

        self._out_indptr, self._in_indptr = (np.concatenate((
            [0], np.cumsum(np.bincount(a, minlength=n)))).astype(np.int64)
            for a in (self._src, self._dst))
        self._out_dst = self._dst  # already grouped by src
        self._out_eid = np.arange(self._m, dtype=np.int64)

        in_order = np.lexsort((self._src, self._dst))
        self._in_src = np.ascontiguousarray(self._src[in_order])
        self._in_eid = np.ascontiguousarray(in_order.astype(np.int64))

    @classmethod
    def _spliced(cls, n: int, src: np.ndarray, dst: np.ndarray,
                 in_src: np.ndarray, in_eid: np.ndarray,
                 out_indptr: np.ndarray, in_indptr: np.ndarray,
                 out_eid: np.ndarray) -> "DiGraph":
        """The graph ``__init__`` would build, from int64 arrays already
        in its CSR (``src``, ``dst``, ``out_indptr``) and CSC (``in_src``,
        ``in_eid``, ``in_indptr``) order, unchecked; ``out_eid``, an
        ``arange``, is shared if it is long enough."""
        g = cls.__new__(cls)
        g._n, g._m = n, int(src.size)
        g._src, g._dst, g._out_dst = src, dst, dst  # grouped by src
        g._out_eid = (out_eid[:g._m] if out_eid.size >= g._m
                      else np.arange(g._m, dtype=np.int64))
        g._in_src, g._in_eid = in_src, in_eid
        g._out_indptr, g._in_indptr = out_indptr, in_indptr
        return g

    # ------------------------------------------------------------------
    # Size queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|V|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """``|E|`` (directed edges)."""
        return self._m

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiGraph(V={self._n}, E={self._m})"

    # ------------------------------------------------------------------
    # Edge endpoint arrays (views; treat as read-only)
    # ------------------------------------------------------------------
    @property
    def edge_src(self) -> np.ndarray:
        """Source vertex of every edge, indexed by edge id."""
        return self._src

    @property
    def edge_dst(self) -> np.ndarray:
        """Destination vertex of every edge, indexed by edge id."""
        return self._dst

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """Return ``(src, dst)`` of edge ``eid``."""
        if not 0 <= eid < self._m:
            raise IndexError(f"edge id {eid} out of range [0, {self._m})")
        return int(self._src[eid]), int(self._dst[eid])

    # ------------------------------------------------------------------
    # Adjacency
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> int:
        v = int(v)
        if not 0 <= v < self._n:
            raise IndexError(f"vertex {v} out of range [0, {self._n})")
        return v

    def out_degree(self, v: int) -> int:
        v = self._check_vertex(v)
        return int(self._out_indptr[v + 1] - self._out_indptr[v])

    def in_degree(self, v: int) -> int:
        v = self._check_vertex(v)
        return int(self._in_indptr[v + 1] - self._in_indptr[v])

    def degree(self, v: int) -> int:
        """Total incident degree (in + out)."""
        return self.out_degree(v) + self.in_degree(v)

    def out_degrees(self) -> np.ndarray:
        """Vector of out-degrees for all vertices."""
        return np.diff(self._out_indptr)

    def in_degrees(self) -> np.ndarray:
        """Vector of in-degrees for all vertices."""
        return np.diff(self._in_indptr)

    def out_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbors, edge_ids)`` for edges leaving ``v``.

        Neighbors are sorted ascending (a consequence of canonical edge
        ordering), which gives the engine a deterministic scatter order.
        """
        v = self._check_vertex(v)
        lo, hi = self._out_indptr[v], self._out_indptr[v + 1]
        return self._out_dst[lo:hi], self._out_eid[lo:hi]

    def in_edges(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbors, edge_ids)`` for edges entering ``v``."""
        v = self._check_vertex(v)
        lo, hi = self._in_indptr[v], self._in_indptr[v + 1]
        return self._in_src[lo:hi], self._in_eid[lo:hi]

    def out_edge_ids(self, ids: np.ndarray) -> np.ndarray:
        """Edge ids of every edge *leaving* a vertex in ``ids``.

        For ascending ``ids`` the result is ascending too (canonical
        edge ids are grouped by source) — the frontier's out-edge CSR
        slice the direction-optimizing push path scatters over.
        """
        return ragged_ids(ids, self._out_indptr, self._out_eid)

    def in_edge_ids(self, ids: np.ndarray) -> np.ndarray:
        """Edge ids of every edge *entering* a vertex in ``ids``.

        Returned in CSC order — grouped by destination (in ``ids``
        order), ascending source within each group — the segment layout
        gather-side combines reduce over.
        """
        return ragged_ids(ids, self._in_indptr, self._in_eid)

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.out_edges(v)[0]

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.in_edges(v)[0]

    def incident_eids(self, v: int) -> np.ndarray:
        """Edge ids of *all* edges incident to ``v`` (the scope of ``f(v)``)."""
        return np.concatenate([self.in_edges(v)[1], self.out_edges(v)[1]])

    def neighbors(self, v: int) -> np.ndarray:
        """Distinct vertices adjacent to ``v`` in either direction."""
        return np.unique(np.concatenate([self.in_neighbors(v), self.out_neighbors(v)]))

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the directed edge ``u -> v`` exists."""
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        lo, hi = self._out_indptr[u], self._out_indptr[u + 1]
        i = np.searchsorted(self._out_dst[lo:hi], v)
        return bool(i < hi - lo and self._out_dst[lo + i] == v)

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``u -> v`` (first one if parallel edges exist).

        Raises ``KeyError`` when the edge does not exist.
        """
        u = self._check_vertex(u)
        v = self._check_vertex(v)
        lo, hi = self._out_indptr[u], self._out_indptr[u + 1]
        i = np.searchsorted(self._out_dst[lo:hi], v)
        if i < hi - lo and self._out_dst[lo + i] == v:
            return int(self._out_eid[lo + i])
        raise KeyError(f"no edge {u} -> {v}")

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield ``(eid, src, dst)`` in edge-id order."""
        for e in range(self._m):
            yield e, int(self._src[e]), int(self._dst[e])

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "DiGraph":
        """Graph with every edge direction flipped."""
        return DiGraph(self._n, self._dst.copy(), self._src.copy())

    def as_undirected_pairs(self) -> np.ndarray:
        """Distinct unordered endpoint pairs, as an ``(k, 2)`` array."""
        lo = np.minimum(self._src, self._dst)
        hi = np.maximum(self._src, self._dst)
        pairs = np.stack([lo, hi], axis=1)
        return np.unique(pairs, axis=0) if pairs.size else pairs

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal CSR/CSC invariants; raises ``AssertionError``.

        Exposed so property-based tests can hammer arbitrary inputs.
        """
        assert self._out_indptr[0] == 0 and self._out_indptr[-1] == self._m
        assert self._in_indptr[0] == 0 and self._in_indptr[-1] == self._m
        assert np.all(np.diff(self._out_indptr) >= 0)
        assert np.all(np.diff(self._in_indptr) >= 0)
        # CSR round-trip: expanding indptr reproduces edge_src.
        counts = np.diff(self._out_indptr)
        assert np.array_equal(np.repeat(np.arange(self._n), counts), self._src)
        # CSC carries a permutation of edge ids.
        assert np.array_equal(np.sort(self._in_eid), np.arange(self._m))
        # Each CSC slot references an edge whose dst is the owning vertex.
        counts_in = np.diff(self._in_indptr)
        owner = np.repeat(np.arange(self._n), counts_in)
        assert np.array_equal(self._dst[self._in_eid], owner)
        assert np.array_equal(self._src[self._in_eid], self._in_src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._src, other._src)
            and np.array_equal(self._dst, other._dst)
        )

    def __hash__(self) -> int:  # graphs are immutable, so hashing is safe
        return hash((self._n, self._m, self._src.tobytes(), self._dst.tobytes()))
