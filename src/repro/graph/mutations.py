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
    effect, with their edge ids in the new and the old graph.
    ``affected_sources`` is the sorted unique set of vertices whose
    **out**-edge multiset changed (their scatter contributions are
    stale).
    """

    inserted: np.ndarray
    deleted: np.ndarray
    inserted_eids: np.ndarray
    deleted_eids: np.ndarray

    @property
    def affected_sources(self) -> np.ndarray:
        return np.unique(np.r_[self.inserted[:, 0], self.deleted[:, 0]])


def _splice(indptr: np.ndarray, col: np.ndarray, dels: np.ndarray,
            ins: np.ndarray, arrays: list, values: list):
    """Splice sorted ``(row, col)`` pairs out of and into a row-sorted
    index (``indptr``, ``col``) and its parallel ``arrays``: a pair
    deleted *r* times loses its first *r* occurrences; an insert goes
    after every equal entry, with ``values[j][i]`` in ``arrays[j]``.  Only
    touched rows are bisected; each array is copied once (run by run, or
    masked for many events).  Returns the new arrays, the deleted and
    the inserted positions, and every old position's shift, as runs."""
    k = dels.shape[0]
    rows, keys = np.concatenate((dels, ins)).T
    keys = keys + (np.arange(rows.size) >= k)  # inserts: after equal ones
    # Branchless lower bound in each row: the first entry >= key lies in
    # [pos, pos + size]; halve size, moving pos up past entries < key.
    pos, size = indptr[rows], indptr[rows + 1] - indptr[rows]
    while (half := size >> 1).any():
        pos += half * (col.take(pos + half, mode="clip") < keys)
        size -= half
    if col.size:
        pos += (size > 0) & (col.take(pos, mode="clip") < keys)
    # The i-th repeat of a pair: its run's first position + i.  (A pair
    # with enough occurrences ends before the next pair's first one.)
    ids = np.arange(k)
    pos[:k] = np.maximum.accumulate(pos[:k] - ids) + ids
    hit = pos[:k] < indptr[dels[:, 0] + 1]
    hit[hit] = col[pos[:k][hit]] == dels[hit, 1]
    if not hit.all():
        u, v = dels[np.argmin(hit)]
        raise ValueError(f"cannot delete edge ({u}, {v}): not present "
                         "(or fewer occurrences than requested)")
    # Events in position order, an insert before a delete at the same
    # position; each moves what follows it by +1 or -1.
    order = np.argsort(2 * pos + (np.arange(pos.size) < k), kind="stable")
    is_ins = order >= k
    at, shift = pos[order], np.r_[0, np.cumsum(np.where(is_ins, 1, -1))]
    starts = np.r_[0, at + ~is_ins]
    new_pos = (at + shift[1:] - 1)[is_ins]
    m_new = col.size + ins.shape[0] - k
    # A Python step per kept run pays off below one event per ≈400 edges
    # (the two copies cross at 350–420 on rmat-12..16); above, masks.
    if few := 400 * at.size < col.size:
        runs = list(zip(starts.tolist(), at.tolist() + [col.size],
                        (starts + shift).tolist()))
    else:
        kept, slot = np.ones(col.size, bool), np.ones(m_new, bool)
        kept[pos[:k]] = slot[new_pos] = False
    out = []
    for a, vals in zip(arrays, values):
        new = np.empty(m_new, dtype=a.dtype)
        for lo, hi, to in runs if few else ():
            new[to:to + hi - lo] = a[lo:hi]
        if not few:
            new[slot] = a[kept]
        new[new_pos] = vals
        out.append(new)
    return out, pos[:k], new_pos, (shift, np.diff(np.r_[starts, col.size]))


def apply_batch(graph: DiGraph, batch: MutationBatch) -> tuple[DiGraph, EdgeDiff]:
    """Apply one batch; returns the new graph and the realized diff.

    Deletes remove exactly one occurrence per listed pair and raise
    ``ValueError`` if the pair is absent — silent no-op deletes would let
    a repair pass skip work the caller believes happened.

    The result equals ``DiGraph(n, kept ++ inserts)`` array for array
    at a cost that follows the batch, plus one copy of each edge array
    (:func:`_splice`): the indptrs move by the degree deltas and
    ``in_eid`` is renumbered in one pass over a table of shifts.
    """
    n = graph.num_vertices
    deletes, inserts = _as_pairs(batch.deletes), _as_pairs(batch.inserts)
    for pairs, what in ((deletes, "delete"), (inserts, "insert")):
        if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError(f"{what} endpoint out of range")
    def by(pairs, row):  # stable order by column ``row``, then the other
        return np.argsort(pairs[:, row] * n + pairs[:, 1 - row], kind="stable")
    # CSR, rows by source: the inserts' new positions are their edge ids.
    by_src = [by(p, 0) for p in (deletes, inserts)]
    dels, ins = deletes[by_src[0]], inserts[by_src[1]]
    (src, dst), gone, new_eid, (shift, runs) = _splice(
        graph._out_indptr, graph._dst, dels, ins, [graph._src, graph._dst],
        [ins[:, 0], ins[:, 1]])
    # CSC, rows by destination, sorted by source (then edge id).  Kept
    # edge ids move as their CSR positions did: one pass over a table of
    # the shifts in the narrowest dtype; the inserts' slots are set after.
    by_dst = [by(p, 1) for p in (dels, ins)]
    (in_src, in_eid), _, c_at, _ = _splice(
        graph._in_indptr, graph._in_src, dels[by_dst[0], ::-1],
        ins[by_dst[1], ::-1], [graph._in_src, graph._in_eid],
        [ins[by_dst[1], 0], np.zeros(ins.shape[0], np.int64)])
    if graph.num_edges:
        narrow = np.min_scalar_type(-1 - max(ins.shape[0], dels.shape[0]))
        in_eid += np.repeat(shift.astype(narrow), runs).take(in_eid,
                                                             mode="clip")
    in_eid[c_at] = new_eid[by_dst[1]]

    def moved(indptr, add, sub):  # + the net events in earlier rows
        rows = np.concatenate((add, sub))
        order = np.argsort(rows, kind="stable")
        steps = np.r_[0, np.cumsum(np.where(order < add.size, 1, -1))]
        return indptr + np.repeat(steps, np.diff(np.r_[0, rows[order] + 1,
                                                      n + 1]))

    new_graph = DiGraph._spliced(
        n, src, dst, in_src, in_eid,
        moved(graph._out_indptr, ins[:, 0], dels[:, 0]),
        moved(graph._in_indptr, ins[:, 1], dels[:, 1]), graph._out_eid)
    return new_graph, EdgeDiff(inserts.copy(), deletes.copy(),
                               new_eid[np.argsort(by_src[1])],
                               gone[np.argsort(by_src[0])])


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

        del_ids = (rng.choice(m, size=num_del, replace=False) if num_del
                   else np.empty(0, dtype=np.int64))
        deletes = np.stack([src[del_ids], dst[del_ids]], axis=1)

        ins_src = rng.integers(0, n, size=num_ins, dtype=np.int64)
        ins_dst = rng.integers(0, n - 1, size=num_ins, dtype=np.int64)
        ins_dst[ins_dst >= ins_src] += 1  # skip self-loops
        inserts = np.stack([ins_src, ins_dst], axis=1)

        batches.append(MutationBatch(inserts=inserts, deletes=deletes))

        src = np.concatenate([np.delete(src, del_ids), ins_src])
        dst = np.concatenate([np.delete(dst, del_ids), ins_dst])
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
