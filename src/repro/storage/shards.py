"""GraphChi-style shards and Parallel Sliding Windows (PSW).

The paper's substrate is GraphChi, whose defining mechanism is the
Parallel Sliding Windows disk layout (Kyrola et al., OSDI'12): vertices
are split into ``K`` execution **intervals**; shard ``k`` holds every
edge whose *destination* lies in interval ``k``, sorted by source.
Processing interval ``k`` then needs shard ``k`` (the in-edges of the
interval) plus one sequential *sliding window* from each other shard
(the out-edges of the interval, which are contiguous there thanks to
the source sort) — ``K`` mostly-sequential reads instead of random I/O.

:class:`ShardStore` is that layout in one aligned container, opened as
read-only memmaps; :meth:`ShardStore.nondet_runner` executes the racy
engine over it interval by interval
(:mod:`repro.engine.nondet_outofcore`), bit-identical to the in-memory
engines, with :class:`IOStats` counting the bytes it moves.  The paper
loads its graphs fully in memory and excludes I/O from Fig. 3; this is
the memory-footprint story of "large-scale graph computation on just a
PC", kept out of those measurements.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..graph import DiGraph
from .binfmt import (
    KIND_EDGE,
    KIND_META,
    KIND_TOPO_DST,
    KIND_TOPO_SRC,
    KIND_VERTEX,
    open_container,
    write_container,
)

__all__ = [
    "ShardStore",
    "StoreGraphView",
    "IOStats",
    "edge_balanced_bounds",
    "psw_layout",
]


def edge_balanced_bounds(in_degrees: np.ndarray, parts: int) -> np.ndarray:
    """``parts + 1`` bounds of contiguous vertex blocks holding fewer
    than ``m / parts`` plus the largest in-degree in-edges each (block
    ``w`` starts at the first vertex with ``w * m / parts`` in-edges
    before it; a block may be empty)."""
    before = np.concatenate(([0], np.cumsum(in_degrees, dtype=np.int64)))
    bounds = np.searchsorted(before, np.arange(parts + 1) * before[-1] / parts)
    bounds[-1] = in_degrees.size
    return bounds.astype(np.int64)


def psw_layout(src: np.ndarray, dst: np.ndarray, bounds: np.ndarray):
    """The PSW slot order over the vertex blocks ``bounds``: ``(perm,
    shard_offsets, window_index)`` as :class:`ShardStore` stores them
    (slot ``i`` holds canonical edge ``perm[i]``; ties in a shard's
    source sort go by canonical id, so every destination's in-edges keep
    their canonical order)."""
    k, m = bounds.size - 1, src.size
    shard_id = np.searchsorted(bounds, dst, side="right") - 1
    perm = np.lexsort((np.arange(m), src, shard_id))
    psw_src = src[perm]
    shard_offsets = np.searchsorted(shard_id[perm], np.arange(k + 1)).astype(np.int64)
    window_index = np.empty((k, k + 1), dtype=np.int64)
    for j in range(k):
        a, b = shard_offsets[j], shard_offsets[j + 1]
        window_index[j] = a + np.searchsorted(psw_src[a:b], bounds)
    return perm.astype(np.int64), shard_offsets, window_index


class StoreGraphView:
    """Read-only graph facade over a :class:`ShardStore`'s topology.

    Exposes exactly the surface :class:`~repro.engine.state.FieldSpec`
    initializers and ``initial_frontier`` implementations use —
    ``num_vertices``/``num_edges``, zero-copy canonical ``edge_src`` /
    ``edge_dst`` memmap views, and the degree vectors — without
    materializing a :class:`~repro.graph.DiGraph` CSR in memory.
    """

    __slots__ = ("_store", "_in_degrees")

    def __init__(self, store: "ShardStore"):
        self._store = store
        self._in_degrees: np.ndarray | None = None

    @property
    def num_vertices(self) -> int:
        return self._store.num_vertices

    @property
    def num_edges(self) -> int:
        return self._store.num_edges

    @property
    def edge_src(self) -> np.ndarray:
        """Canonical-order edge sources (read-only memmap)."""
        return self._store.canon_src

    @property
    def edge_dst(self) -> np.ndarray:
        """Canonical-order edge destinations (read-only memmap)."""
        return self._store.canon_dst

    def out_degrees(self) -> np.ndarray:
        return self._store.out_degrees

    def in_degrees(self) -> np.ndarray:
        # Shard by shard (shard ``k`` holds interval ``k``'s in-edges):
        # temporaries stay shard-sized.
        if self._in_degrees is None:
            s = self._store
            self._in_degrees = np.concatenate([
                np.bincount(s.psw_dst[s.shard_offsets[k]:s.shard_offsets[k + 1]]
                            - s.bounds[k],
                            minlength=int(s.bounds[k + 1] - s.bounds[k]))
                for k in range(s.num_intervals)]).astype(np.int64)
        return self._in_degrees


class ShardStore:
    """On-disk PSW shard store in a single aligned v2 container.

    The canonical edge list is reordered *shard-major*: slot ``i`` of the
    store belongs to shard ``shard(i)`` (the interval owning the edge's
    destination), and within a shard slots are sorted by source with ties
    broken by canonical edge id — so within a shard the canonical ids are
    strictly ascending, which keeps duplicate-edge accumulation order and
    provenance ordering identical to the in-memory engines.

    Container blocks::

        src, dst                 canonical topology (kinds 2/3)
        psw_src, psw_dst         shard-major endpoints     (edge kind)
        psw_eid                  slot -> canonical edge id (edge kind)
        out_degrees              per-vertex out-degree     (vertex kind)
        bounds                   K+1 interval boundaries   (meta)
        shard_offsets            K+1 slot offsets of shards (meta)
        window_index             (K, K+1) flattened: window_index[j, k]
                                 is the first slot of shard j whose
                                 source is >= bounds[k]       (meta)

    Everything is opened as read-only ``np.memmap`` views; an execution
    touches only the slot ranges of the interval it is currently
    running, so resident set stays bounded by the largest interval.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        n, m, blocks = open_container(self.path, mmap=True)
        self.num_vertices = n
        self.num_edges = m
        named = {name: arr for name, _, arr in blocks}
        try:
            self.canon_src = named["src"]
            self.canon_dst = named["dst"]
            self.psw_src = named["psw_src"]
            self.psw_dst = named["psw_dst"]
            self.psw_eid = named["psw_eid"]
            self.out_degrees = named["out_degrees"]
            # The small index arrays are copied into private memory: they
            # are consulted constantly, and a run's scratch holds them
            # without holding the store.
            self.bounds = np.asarray(named["bounds"]).copy()
            self.shard_offsets = np.asarray(named["shard_offsets"]).copy()
            window_flat = np.asarray(named["window_index"]).copy()
        except KeyError as exc:
            raise ValueError(f"{self.path}: not a shard store (missing block {exc})") from None
        self.num_intervals = int(self.bounds.size - 1)
        self.window_index = window_flat.reshape(self.num_intervals, self.num_intervals + 1)
        self._runner = None

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: DiGraph,
        path: str | os.PathLike,
        num_intervals: int,
    ) -> "ShardStore":
        """Preprocess ``graph`` into a shard store at ``path``."""
        if num_intervals < 1:
            raise ValueError("num_intervals must be >= 1")
        n, m = graph.num_vertices, graph.num_edges
        k = int(num_intervals)
        bounds = np.linspace(0, n, k + 1).astype(np.int64)
        src = np.asarray(graph.edge_src, dtype=np.int64)
        dst = np.asarray(graph.edge_dst, dtype=np.int64)
        perm, shard_offsets, window_index = psw_layout(src, dst, bounds)
        write_container(
            path,
            num_vertices=n,
            num_edges=m,
            arrays=[
                ("src", KIND_TOPO_SRC, src),
                ("dst", KIND_TOPO_DST, dst),
                ("psw_src", KIND_EDGE, src[perm]),
                ("psw_dst", KIND_EDGE, dst[perm]),
                ("psw_eid", KIND_EDGE, perm),
                ("out_degrees", KIND_VERTEX, graph.out_degrees().astype(np.int64)),
                ("bounds", KIND_META, bounds),
                ("shard_offsets", KIND_META, shard_offsets),
                ("window_index", KIND_META, window_index.reshape(-1)),
            ],
        )
        return cls(path)

    @classmethod
    def open(cls, path: str | os.PathLike) -> "ShardStore":
        return cls(path)

    # -- interval access -------------------------------------------------
    def interval(self, k: int) -> tuple[int, int]:
        """Vertex range ``[lo, hi)`` of interval ``k``."""
        return int(self.bounds[k]), int(self.bounds[k + 1])

    def interval_ranges(self, k: int) -> list[tuple[int, int]]:
        """Slot ranges covering every edge incident to interval ``k``:
        the full shard ``k`` (in-edges) plus one sliding window from
        every other shard (out-edges).  Ranges are disjoint, ascending,
        and non-empty."""
        ranges: list[tuple[int, int]] = []
        for j in range(self.num_intervals):
            if j == k:
                lo, hi = int(self.shard_offsets[j]), int(self.shard_offsets[j + 1])
            else:
                lo, hi = int(self.window_index[j, k]), int(self.window_index[j, k + 1])
            if hi > lo:
                ranges.append((lo, hi))
        return ranges

    def graph_view(self) -> StoreGraphView:
        return StoreGraphView(self)

    def nondet_runner(self):
        """The (cached) out-of-core nondeterministic runner for this
        store.  Cached so supervised restarts resume against the same
        live scratch state; the runner holds the store through a weak
        proxy, so dropping the store's last reference tears down its
        pool and unmaps its scratch without waiting for the cyclic GC."""
        if self._runner is None:
            from ..engine.nondet_outofcore import OutOfCoreNondetRunner

            self._runner = OutOfCoreNondetRunner(self)
        return self._runner

    def validate(self) -> None:
        """Raise :class:`ValueError` unless the stored layout is the one
        :func:`psw_layout` derives from the canonical topology."""
        src, dst = np.asarray(self.canon_src), np.asarray(self.canon_dst)
        n, b = self.num_vertices, self.bounds
        if b[0] != 0 or b[-1] != n or np.any(np.diff(b) < 0):
            raise ValueError("interval bounds do not cut [0, n) in order")
        perm, offsets, windows = psw_layout(src, dst, b)
        for name, want in (("psw_eid", perm), ("psw_src", src[perm]),
                           ("psw_dst", dst[perm]), ("shard_offsets", offsets),
                           ("window_index", windows),
                           ("out_degrees", np.bincount(src, minlength=n))):
            if not np.array_equal(want, np.asarray(getattr(self, name))):
                raise ValueError(f"stored {name} disagrees with the topology")


@dataclass
class IOStats:
    """What an out-of-core execution hands to its steps, in slot ranges.

    The scratch is mapped, so no call moves bytes.  A *load* is one
    interval's ranges — its shard and its windows — in one fix-point
    round, which detects on them and may run a pass over them (a slice
    pass views fewer); ``interval_loads`` counts them.  ``bytes_read``:
    the slots of every load and of every commit range (twice on a
    pool, whose workers count conflicts on the commit ranges), times the
    bytes of one slot's topology and edge values (``psw_src``/``psw_dst``
    plus one value per edge field); ``bytes_written``: the loads' and
    commit ranges' slots times one value per written field.  Read amplification is
    ``bytes_read`` over the store's size.  ``seconds`` is wall time
    spent zeroing the mapped outputs (each iteration's ``shard_io``
    phase) and moving edge arrays between canonical and slot order.
    """

    bytes_read: int = 0
    bytes_written: int = 0
    interval_loads: int = 0
    seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "interval_loads": self.interval_loads,
            "seconds": self.seconds,
        }
