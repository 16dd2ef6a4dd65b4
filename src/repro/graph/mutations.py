"""Seeded edge insert/delete batches against a standing :class:`DiGraph`.

The delta-accumulative engine (:mod:`repro.engine.nondet_delta`) opens the
dynamic-graph workload: a stream of small edge mutations against a big
standing graph whose result is *repaired* instead of recomputed.  This
module is the graph side of that story.  :class:`DiGraph` stays immutable
— a mutation batch produces a **new** graph plus an :class:`EdgeDiff`
describing exactly what changed, which is all the repair pass needs.

Batches are generated from a seed so the workload is replayable: the same
``(graph, num_batches, frac, seed)`` always yields the same mutation
stream, and the bench harness can compare repair against from-scratch
recompute on bit-identical graphs.

Edge weights under mutation need care: :class:`repro.algorithms.sssp.SSSP`
seeds its default weights by *edge index*, and edge indices reshuffle when
the edge set changes.  :func:`stable_weights` instead hashes each
``(src, dst)`` endpoint pair (with a seed), so an edge that survives a
mutation keeps its weight — the property repair-vs-recompute equivalence
tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .digraph import DiGraph

__all__ = [
    "MutationBatch",
    "EdgeDiff",
    "generate_batches",
    "BATCH_SPEC",
    "batches_from_spec",
    "apply_batch",
    "apply_batches",
    "stable_weights",
]


def _as_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"edge pairs must have shape (k, 2), got {arr.shape}")
    return arr


@dataclass(frozen=True)
class MutationBatch:
    """One batch of edge mutations: ``inserts`` and ``deletes``.

    Both are ``(k, 2)`` int64 arrays of ``(src, dst)`` pairs.  Deletes
    remove one occurrence of the pair (graphs may hold parallel edges);
    deleting a pair not present in the graph is an error at apply time —
    batches are generated against a known graph, so a miss means the
    stream is being applied out of order.
    """

    inserts: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))
    deletes: np.ndarray = field(default_factory=lambda: np.empty((0, 2), np.int64))

    def __post_init__(self):
        object.__setattr__(self, "inserts", _as_pairs(self.inserts))
        object.__setattr__(self, "deletes", _as_pairs(self.deletes))

    @property
    def size(self) -> int:
        return int(self.inserts.shape[0] + self.deletes.shape[0])

    def to_dict(self) -> dict:
        return {"inserts": self.inserts.tolist(),
                "deletes": self.deletes.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "MutationBatch":
        return cls(inserts=payload.get("inserts", []),
                   deletes=payload.get("deletes", []))


@dataclass(frozen=True)
class EdgeDiff:
    """What one applied batch changed, in repair-pass terms.

    ``inserted``/``deleted`` are the ``(k, 2)`` pairs that actually took
    effect.  ``affected_sources`` is the sorted unique set of vertices
    whose **out**-edge multiset changed (their scatter contributions are
    stale); ``affected_targets`` the vertices whose **in**-edge multiset
    changed (their gathered value lost or gained a contribution).
    """

    inserted: np.ndarray
    deleted: np.ndarray

    @property
    def affected_sources(self) -> np.ndarray:
        return np.unique(np.concatenate(
            [self.inserted[:, 0], self.deleted[:, 0]]))

    @property
    def affected_targets(self) -> np.ndarray:
        return np.unique(np.concatenate(
            [self.inserted[:, 1], self.deleted[:, 1]]))

    @property
    def affected_vertices(self) -> np.ndarray:
        return np.union1d(self.affected_sources, self.affected_targets)


def _pair_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Collision-free scalar key per (src, dst) pair for set arithmetic."""
    return src.astype(np.int64) * np.int64(n) + dst.astype(np.int64)


def apply_batch(graph: DiGraph, batch: MutationBatch) -> tuple[DiGraph, EdgeDiff]:
    """Apply one batch; returns the new graph and the realized diff.

    Deletes remove exactly one occurrence per listed pair and raise
    ``ValueError`` if the pair is absent — silent no-op deletes would let
    a repair pass skip work the caller believes happened.

    The result equals ``DiGraph(n, kept ++ inserts)`` array for array,
    but only the batch is sorted: the kept canonical CSR and CSC orders
    carry over, and the sorted inserts are merged into each after any
    equal key (where the stable rebuild would place them).
    """
    n = graph.num_vertices
    src, dst = graph.edge_src, graph.edge_dst
    keys = _pair_keys(src, dst, n)  # canonical order: non-decreasing

    deletes = _as_pairs(batch.deletes)
    keep = np.ones(src.size, dtype=bool)
    if deletes.size:
        if deletes.min(initial=0) < 0 or deletes.max(initial=-1) >= n:
            raise ValueError("delete endpoint out of range")
        want, want_counts = np.unique(
            _pair_keys(deletes[:, 0], deletes[:, 1], n), return_counts=True)
        # For each distinct wanted pair, drop the first `count` matching
        # edge ids (canonical order makes this deterministic).
        lo = np.searchsorted(keys, want, side="left")
        hi = np.searchsorted(keys, want, side="right")
        missing = want_counts > hi - lo
        if missing.any():
            k = int(want[missing][0])
            raise ValueError(
                f"cannot delete edge ({k // n}, {k % n}): not present "
                "(or fewer occurrences than requested)")
        for start, count in zip(lo, want_counts):
            keep[start:start + count] = False

    inserts = _as_pairs(batch.inserts)
    if inserts.size:
        if inserts.min(initial=0) < 0 or inserts.max(initial=-1) >= n:
            raise ValueError("insert endpoint out of range")
    ins = inserts[np.lexsort((inserts[:, 1], inserts[:, 0]))]

    # CSR: the sorted inserts go after equal kept keys.
    at = np.searchsorted(keys[keep], _pair_keys(ins[:, 0], ins[:, 1], n),
                         side="right")
    new_src = np.insert(src[keep], at, ins[:, 0])
    new_dst = np.insert(dst[keep], at, ins[:, 1])
    ins_eid = at + np.arange(at.size)

    # CSC: the old order's survivors, renumbered, then the inserts by
    # (dst, src, new id) after equal (dst, src) keys.
    renumber = np.full(src.size, -1)
    renumber[keep] = np.delete(np.arange(new_src.size), ins_eid)
    in_eid = renumber[graph._in_eid]
    alive = in_eid >= 0
    in_eid, in_src = in_eid[alive], graph._in_src[alive]
    in_dst = np.repeat(np.arange(n), graph.in_degrees())[alive]
    by_dst = np.lexsort((ins[:, 0], ins[:, 1]))
    at = np.searchsorted(_pair_keys(in_dst, in_src, n),
                         _pair_keys(ins[by_dst, 1], ins[by_dst, 0], n),
                         side="right")
    in_eid = np.insert(in_eid, at, ins_eid[by_dst])
    in_src = np.insert(in_src, at, ins[by_dst, 0])

    new_graph = DiGraph._from_canonical(n, new_src, new_dst, in_src, in_eid)
    diff = EdgeDiff(inserted=inserts.copy(), deleted=deletes.copy())
    return new_graph, diff


def apply_batches(graph: DiGraph,
                  batches: list[MutationBatch]) -> tuple[DiGraph, list[EdgeDiff]]:
    """Fold a batch sequence; returns the final graph and per-batch diffs."""
    diffs = []
    for batch in batches:
        graph, diff = apply_batch(graph, batch)
        diffs.append(diff)
    return graph, diffs


def generate_batches(graph: DiGraph, num_batches: int, frac: float,
                     seed: int, *, insert_frac: float = 0.5) -> list[MutationBatch]:
    """Seeded mutation stream: ``num_batches`` batches, each touching
    ``frac`` of the *current* edge count (half inserts, half deletes by
    default).

    Deletes sample existing edges without replacement within a batch;
    inserts draw uniform non-self-loop pairs.  The stream is generated
    against the evolving edge multiset, so batches always apply cleanly
    in order.
    """
    if not 0.0 < frac <= 1.0:
        raise ValueError(f"frac must be in (0, 1], got {frac}")
    if not 0.0 <= insert_frac <= 1.0:
        raise ValueError(f"insert_frac must be in [0, 1], got {insert_frac}")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    if n < 2:
        raise ValueError("mutation batches need at least 2 vertices")
    src = graph.edge_src.copy()
    dst = graph.edge_dst.copy()

    batches = []
    for _ in range(int(num_batches)):
        m = src.size
        size = max(1, int(round(m * frac)))
        num_ins = int(round(size * insert_frac))
        num_del = min(size - num_ins, m)

        del_ids = rng.choice(m, size=num_del, replace=False) if num_del else \
            np.empty(0, dtype=np.int64)
        deletes = np.stack([src[del_ids], dst[del_ids]], axis=1) if num_del \
            else np.empty((0, 2), np.int64)

        ins_src = rng.integers(0, n, size=num_ins, dtype=np.int64)
        ins_dst = rng.integers(0, n - 1, size=num_ins, dtype=np.int64)
        ins_dst[ins_dst >= ins_src] += 1  # skip self-loops
        inserts = np.stack([ins_src, ins_dst], axis=1)

        batches.append(MutationBatch(inserts=inserts, deletes=deletes))

        keep = np.ones(m, dtype=bool)
        keep[del_ids] = False
        src = np.concatenate([src[keep], ins_src])
        dst = np.concatenate([dst[keep], ins_dst])
    return batches


#: the seeded batch spec a run or a service job names instead of edge
#: arrays, with its defaults: ``generate_batches(graph, num_batches, frac,
#: seed)``
BATCH_SPEC = {"num_batches": 3, "frac": 0.001, "seed": 7}


def batches_from_spec(graph: DiGraph, spec: dict) -> list[MutationBatch]:
    """The batches a :data:`BATCH_SPEC`-shaped dict names (missing keys
    take its defaults): the one expansion the CLI and the job runner
    share, so a ``run --mutate`` and a job with the same spec repair the
    same stream."""
    spec = {**BATCH_SPEC, **spec}
    return generate_batches(graph, int(spec["num_batches"]),
                            float(spec["frac"]), int(spec["seed"]))


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 (wrapping arithmetic)."""
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def stable_weights(graph: DiGraph, *, seed: int = 12345,
                   low: float = 1.0, high: float = 10.0) -> np.ndarray:
    """Per-edge weights keyed by endpoints, stable under mutation.

    Weight of edge ``(u, v)`` depends only on ``(u, v, seed)``, so a
    surviving edge keeps its weight when the edge set (and hence edge
    indexing) changes around it.  Parallel edges share a weight.
    """
    with np.errstate(over="ignore"):
        key = (graph.edge_src.astype(np.uint64)
               * np.uint64(0x9E3779B97F4A7C15)
               + graph.edge_dst.astype(np.uint64)
               + np.uint64(seed) * np.uint64(0xD1B54A32D192ED03))
    mixed = _splitmix64(key)
    unit = mixed.astype(np.float64) / float(2**64)
    return (low + unit * (high - low)).astype(np.float64)
