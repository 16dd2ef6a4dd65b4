"""Incremental construction of :class:`~repro.graph.digraph.DiGraph`.

The paper represents undirected edges as two opposite directed edges
(§II); :meth:`GraphBuilder.add_undirected_edge` implements exactly that
convention.  The builder also handles the data-cleaning chores real
edge-list files need: deduplication, self-loop stripping, and compaction
of sparse vertex ids onto the dense label space ``0..V-1`` the paper's
``L_v`` requires.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from .digraph import DiGraph

__all__ = ["GraphBuilder"]


def _unique_pairs(src: np.ndarray,
                  dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(np.stack([src, dst], 1), axis=0)``, by sorting one
    scalar key ``src * span + dst`` instead of rows."""
    span = int(max(src.max(), dst.max())) + 1
    if span * span > np.iinfo(np.int64).max:
        raise ValueError(f"vertex ids up to {span - 1} overflow the int64 "
                         "pair key used for deduplication")
    keys = np.sort(src * np.int64(span) + dst)  # np.unique hashes: slower
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys // span, keys % span


class GraphBuilder:
    """Accumulates edges and produces an immutable :class:`DiGraph`.

    Parameters
    ----------
    num_vertices:
        If given, the vertex set is fixed to ``0..num_vertices-1`` and
        out-of-range endpoints raise immediately.  If omitted, the vertex
        count is inferred (``max endpoint + 1``) unless ``relabel=True``
        is passed to :meth:`build`.
    """

    def __init__(self, num_vertices: int | None = None):
        if num_vertices is not None and num_vertices < 0:
            raise ValueError("num_vertices must be >= 0")
        self._fixed_n = num_vertices
        self._src: list[int] = []
        self._dst: list[int] = []

    @property
    def num_pending_edges(self) -> int:
        """Edges added so far (before dedup/loop stripping)."""
        return len(self._src)

    def _check(self, v: int) -> int:
        v = int(v)
        if v < 0:
            raise ValueError(f"negative vertex id {v}")
        if self._fixed_n is not None and v >= self._fixed_n:
            raise ValueError(f"vertex {v} out of fixed range [0, {self._fixed_n})")
        return v

    def add_edge(self, u: int, v: int) -> "GraphBuilder":
        """Add the directed edge ``u -> v``; returns self for chaining."""
        self._src.append(self._check(u))
        self._dst.append(self._check(v))
        return self

    def add_undirected_edge(self, u: int, v: int) -> "GraphBuilder":
        """Add ``u -> v`` and ``v -> u`` (the paper's undirected encoding)."""
        self.add_edge(u, v)
        if u != v:
            self.add_edge(v, u)
        return self

    def add_edges(self, edges: Iterable[tuple[int, int]]) -> "GraphBuilder":
        for u, v in edges:
            self.add_edge(u, v)
        return self

    def add_edge_arrays(self, src, dst) -> "GraphBuilder":
        """Bulk-add from parallel arrays (vectorized range check)."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be equal-length 1-D arrays")
        if src.size:
            lo = min(src.min(), dst.min())
            if lo < 0:
                raise ValueError(f"negative vertex id {lo}")
            if self._fixed_n is not None:
                hi = max(src.max(), dst.max())
                if hi >= self._fixed_n:
                    raise ValueError(f"vertex {hi} out of fixed range [0, {self._fixed_n})")
        self._src.extend(src.tolist())
        self._dst.extend(dst.tolist())
        return self

    def build(
        self,
        *,
        dedup: bool = False,
        drop_self_loops: bool = False,
        relabel: bool = False,
    ) -> DiGraph:
        """Produce the immutable graph.

        Parameters
        ----------
        dedup:
            Collapse parallel duplicate edges into one.
        drop_self_loops:
            Remove ``v -> v`` edges.
        relabel:
            Compact the set of endpoint ids actually used onto
            ``0..V-1`` (dense labels).  Incompatible with a fixed
            ``num_vertices``.
        """
        if relabel:
            if self._fixed_n is not None:
                raise ValueError("relabel=True conflicts with a fixed num_vertices")
            return self._relabeled(dedup, drop_self_loops)[0]
        src, dst = self._edges(dedup, drop_self_loops)
        if self._fixed_n is not None:
            n = self._fixed_n
        else:
            n = int(max(src.max(), dst.max()) + 1) if src.size else 0
        return DiGraph(n, src, dst)

    def build_relabeled(
        self, *, dedup: bool = False, drop_self_loops: bool = False
    ) -> tuple[DiGraph, Mapping[int, int]]:
        """Like ``build(relabel=True)`` but also returns old->new id map."""
        graph, ids = self._relabeled(dedup, drop_self_loops)
        return graph, {int(old): new for new, old in enumerate(ids.tolist())}

    def _edges(self, dedup: bool, drop_self_loops: bool):
        src = np.asarray(self._src, dtype=np.int64)
        dst = np.asarray(self._dst, dtype=np.int64)
        if drop_self_loops and src.size:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        if dedup and src.size:
            src, dst = _unique_pairs(src, dst)
        return src, dst

    def _relabeled(self, dedup: bool, drop_self_loops: bool):
        """The graph on the used ids compacted to ``0..V-1``, and the ids;
        compacting (which keeps order) first keeps the pair keys small."""
        src, dst = self._edges(False, drop_self_loops)
        ids = np.sort(np.concatenate([src, dst]))  # as in _unique_pairs
        ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        src, dst = np.searchsorted(ids, src), np.searchsorted(ids, dst)
        if dedup and src.size:
            src, dst = _unique_pairs(src, dst)
        return DiGraph(int(ids.size), src, dst), ids
