"""Dynamic graphs: mutation batches, incremental repair, provenance.

The contract under test is the one the bench harness banks on: streaming
a mutation batch through a converged delta run and letting the engine
*repair* must land on exactly the state a from-scratch run on the
mutated graph would reach — bit-exact for MIN kernels (including the
honest full-restart path), within truncation noise for ADD — and the
flight recorder must name the repaired region so a repair is auditable
after the fact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, SSSP, PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.engine.nondet_delta import (
    _levels,
    delta_state,
    resolve_delta_kernel,
    run_delta,
)
from repro.graph import DiGraph, generators
from repro.graph.mutations import (
    MutationBatch,
    apply_batch,
    apply_batches,
    generate_batches,
    stable_weights,
)

EPS = 1e-4


def _graph(scale=8):
    return generators.rmat(scale, 8.0, seed=3)


def _sssp():
    return SSSP(source=0, weight_fn=lambda g: stable_weights(g, seed=5))


class TestGenerateApply:
    def test_batches_are_seed_deterministic(self):
        g = _graph()
        a = generate_batches(g, 3, 0.01, seed=7)
        b = generate_batches(g, 3, 0.01, seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x.inserts, y.inserts)
            assert np.array_equal(x.deletes, y.deletes)
        c = generate_batches(g, 3, 0.01, seed=8)
        assert not all(np.array_equal(x.deletes, y.deletes)
                       for x, y in zip(a, c))

    def test_batch_sizing_and_sanity(self):
        g = _graph()
        batches = generate_batches(g, 4, 0.01, seed=7)
        assert len(batches) == 4
        for b in batches:
            assert b.size == pytest.approx(g.num_edges * 0.01, rel=0.5)
            assert not np.any(b.inserts[:, 0] == b.inserts[:, 1]), \
                "generated inserts must not be self-loops"

    def test_apply_updates_edge_multiset(self):
        g = _graph(6)
        batches = generate_batches(g, 2, 0.05, seed=7)
        g1, diff = apply_batch(g, batches[0])
        assert g1.num_edges == (g.num_edges + diff.inserted.shape[0]
                                - diff.deleted.shape[0])
        assert g1.num_vertices == g.num_vertices
        # every realized delete existed in the old graph
        old = set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))
        for s, d in diff.deleted.tolist():
            assert (s, d) in old

    def test_missing_delete_raises(self):
        g = _graph(6)
        absent = [[0, 1]]
        while tuple(absent[0]) in set(
                zip(g.edge_src.tolist(), g.edge_dst.tolist())):
            absent[0][1] += 1
        with pytest.raises(ValueError, match="not present"):
            apply_batch(g, MutationBatch(deletes=absent))

    def test_diff_affected_sets(self):
        g = _graph(6)
        b = MutationBatch(inserts=[[1, 2]],
                          deletes=[[int(g.edge_src[0]), int(g.edge_dst[0])]])
        _, diff = apply_batch(g, b)
        assert set(diff.affected_sources) == {1, int(g.edge_src[0])}

    def test_apply_batches_folds(self):
        g = _graph(6)
        batches = generate_batches(g, 3, 0.02, seed=7)
        final, diffs = apply_batches(g, batches)
        assert len(diffs) == 3
        step = g
        for b in batches:
            step, _ = apply_batch(step, b)
        assert np.array_equal(final.edge_src, step.edge_src)
        assert np.array_equal(final.edge_dst, step.edge_dst)

    def test_batch_round_trips_through_dict(self):
        b = MutationBatch(inserts=[[1, 2], [3, 4]], deletes=[[5, 6]])
        b2 = MutationBatch.from_dict(b.to_dict())
        assert np.array_equal(b.inserts, b2.inserts)
        assert np.array_equal(b.deletes, b2.deletes)


_CSR_CSC = ("_src", "_dst", "_out_indptr", "_out_dst", "_out_eid",
            "_in_indptr", "_in_src", "_in_eid")


@st.composite
def _graph_and_batch(draw):
    """A small multigraph (parallel edges, self-loops) and a batch that
    deletes some of its edges — possibly one of several duplicates — and
    inserts pairs that may repeat existing edges or each other."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=24))
    deletes = draw(st.lists(st.sampled_from(range(len(edges))),
                            unique=True).map(
        lambda ids: [edges[i] for i in ids])) if edges else []
    inserts = draw(st.lists(
        st.sampled_from(edges) | pair if edges else pair, max_size=8))
    graph = DiGraph(n, [u for u, _ in edges], [v for _, v in edges])
    return graph, MutationBatch(inserts=inserts, deletes=deletes)


#: ~8k edges with parallel edges and self-loops kept: a batch of at most
#: 20 edits has few enough events that apply_batch copies kept runs
#: instead of masking, the path the tiny drawn graphs never take.
_MULTI = generators.rmat(10, 8.0, seed=3, dedup=False, drop_self_loops=False)


@st.composite
def _small_batch_on_multigraph(draw):
    ids = draw(st.lists(st.integers(0, _MULTI.num_edges - 1), unique=True,
                        max_size=10))
    deletes = [(int(_MULTI.edge_src[e]), int(_MULTI.edge_dst[e]))
               for e in ids]
    vertex = st.integers(0, _MULTI.num_vertices - 1)
    inserts = draw(st.lists(st.sampled_from(deletes) | st.tuples(vertex, vertex)
                            if deletes else st.tuples(vertex, vertex),
                            max_size=10))
    return _MULTI, MutationBatch(inserts=inserts, deletes=deletes)


def _rebuilt(graph, batch):
    """Reference: drop the first matching canonical edge per delete,
    then rebuild from scratch with ``DiGraph(n, kept ++ inserts)``."""
    src, dst = graph.edge_src.tolist(), graph.edge_dst.tolist()
    keep = [True] * len(src)
    for u, v in batch.deletes.tolist():
        keep[next(e for e in range(len(src))
                  if keep[e] and (src[e], dst[e]) == (u, v))] = False
    kept = [e for e in range(len(src)) if keep[e]]
    return DiGraph(graph.num_vertices,
                   [src[e] for e in kept] + batch.inserts[:, 0].tolist(),
                   [dst[e] for e in kept] + batch.inserts[:, 1].tolist())


class TestApplyBatchMerge:
    """apply_batch merges the batch into the canonical arrays; the
    result must be the from-scratch rebuild, array for array."""

    @settings(max_examples=300, deadline=None)
    @given(_graph_and_batch())
    @example((DiGraph(2, [0, 0, 1], [1, 1, 1]),
              MutationBatch(inserts=[[0, 1], [1, 1], [0, 1]],
                            deletes=[[0, 1]])))
    @example((DiGraph(2, [], []), MutationBatch()))
    def test_equals_rebuild(self, case):
        graph, batch = case
        merged, diff = apply_batch(graph, batch)
        reference = _rebuilt(graph, batch)
        for name in _CSR_CSC:
            got, want = getattr(merged, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        merged.validate()
        assert np.array_equal(diff.inserted, batch.inserts)
        assert np.array_equal(diff.deleted, batch.deletes)

    @settings(max_examples=40, deadline=None)
    @given(_small_batch_on_multigraph())
    def test_run_copy_equals_rebuild(self, case):
        graph, batch = case
        merged, _ = apply_batch(graph, batch)
        reference = _rebuilt(graph, batch)
        for name in _CSR_CSC:
            got, want = getattr(merged, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name

    @settings(max_examples=200, deadline=None)
    @given(_graph_and_batch() | _small_batch_on_multigraph())
    @example((DiGraph(2, [0, 0, 1], [1, 1, 1]),
              MutationBatch(inserts=[[0, 1], [1, 1], [0, 1]],
                            deletes=[[0, 1], [0, 1]])))
    def test_diff_carries_edge_ids(self, case):
        """``deleted_eids`` name, in the old graph, the first canonical
        occurrences of each deleted pair; ``inserted_eids`` name, in the
        new graph, distinct edges with each inserted pair's endpoints."""
        graph, batch = case
        merged, diff = apply_batch(graph, batch)
        for g, pairs, eids in ((graph, diff.deleted, diff.deleted_eids),
                               (merged, diff.inserted, diff.inserted_eids)):
            assert eids.dtype == np.int64
            assert len(set(eids.tolist())) == eids.size
            assert np.array_equal(g.edge_src[eids], pairs[:, 0])
            assert np.array_equal(g.edge_dst[eids], pairs[:, 1])
        for (u, v), e in zip(diff.deleted.tolist(), diff.deleted_eids):
            earlier = np.flatnonzero((graph.edge_src[:e] == u)
                                     & (graph.edge_dst[:e] == v))
            assert set(earlier.tolist()) <= set(diff.deleted_eids.tolist())

    def test_errors_unchanged(self):
        g = DiGraph(3, [0, 1], [1, 2])
        cases = [
            (MutationBatch(deletes=[[0, 3]]), "delete endpoint out of range"),
            (MutationBatch(deletes=[[1, 2], [1, 2], [2, 0]]),
             "cannot delete edge (1, 2): not present (or fewer occurrences "
             "than requested)"),
            (MutationBatch(inserts=[[-1, 0]]), "insert endpoint out of range"),
            (MutationBatch(inserts=[[0, 5]], deletes=[[0, 1]]),
             "insert endpoint out of range"),
        ]
        for batch, message in cases:
            with pytest.raises(ValueError) as err:
                apply_batch(g, batch)
            assert str(err.value) == message


@st.composite
def _graph_and_stream(draw):
    """A small multigraph — a tree hanging from vertex 0, a cycle, extra
    edges (parallel ones and self-loops among them) — and 1-5 batches.
    Each batch deletes a drawn subset of the edges present at that point,
    so tight tree edges, non-tree edges and cycle edges are all deleted
    sooner or later, and inserts drawn pairs."""
    n = draw(st.integers(2, 8))
    vertex = st.integers(0, n - 1)
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    ring = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    edges += list(zip(ring, ring[1:] + ring[:1]))
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=8))
    graph = DiGraph(n, [u for u, _ in edges], [v for _, v in edges])
    batches = []
    for _ in range(draw(st.integers(1, 5))):
        gone = set(draw(st.lists(st.sampled_from(range(len(edges))),
                                 unique=True, max_size=5))) if edges else set()
        inserts = draw(st.lists(st.tuples(vertex, vertex), max_size=3))
        batches.append(MutationBatch(
            inserts=inserts, deletes=[edges[i] for i in sorted(gone)]))
        edges = [e for i, e in enumerate(edges) if i not in gone] + inserts
    return graph, batches


def _assert_supported(graph, cut, program):
    """The level invariant on a delta cut: every vertex whose value is
    not its initial value, and whose level is not awaiting re-levelling
    (NaN), has a tight neighbour at a strictly lower level."""
    kernel = resolve_delta_kernel(program)(program)
    x, level = cut.vertex(kernel.field), cut.vertex("level")
    init = np.minimum(*kernel.initial(graph))
    near = {v: set() for v in range(graph.num_vertices)}
    for u, v in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
        near[u].add(v)
        near[v].add(u)
    for v, ws in near.items():
        if x[v] != init[v] and not np.isnan(level[v]):
            assert any(x[w] == x[v] and level[w] < level[v] for w in ws), \
                (v, x.tolist(), level.tolist())


class TestMinRepairProperty:
    """Delta repair of every MIN kernel is byte-equal to a from-scratch
    run after every batch, on graphs where cycles, self-loops and
    parallel edges offer same-value support that must not count; and
    WCC's cut keeps the level invariant after every batch, both before
    and after the re-levelling the next batch would do."""

    @settings(max_examples=60, deadline=None)
    @given(_graph_and_stream())
    @example((DiGraph(4, [0, 1, 2, 3], [1, 2, 3, 1]),
              [MutationBatch(deletes=[[0, 1]])]))
    @example((DiGraph(2, [0, 0, 1], [1, 1, 1]),
              [MutationBatch(deletes=[[0, 1]]),
               MutationBatch(inserts=[[1, 0]], deletes=[[0, 1]])]))
    # r=0, a=1, b=2: edges r->a, a->b, b->a, then r->a is deleted
    @example((DiGraph(3, [0, 1, 2], [1, 2, 1]),
              [MutationBatch(deletes=[[0, 1]])]))
    # The same trap with stale levels: r=0, c=4, a=2, s=1, b=3.  Batch 1
    # levels r0 c1 a2 s0 b1, resets c and merges {s, b} into label 0
    # without resetting them; unless b and s are re-levelled, batch 2
    # (delete r->a) finds a supported by b at level 1 and b never tested.
    @example((DiGraph(5, [0, 4, 1], [4, 2, 3]),
              [MutationBatch(inserts=[[0, 2], [2, 3], [3, 2]],
                             deletes=[[0, 4]]),
               MutationBatch(deletes=[[0, 2]])]))
    def test_repair_equals_scratch_after_every_batch(self, case):
        graph, batches = case
        for factory in (WeaklyConnectedComponents, _sssp, BFS):
            for k in range(1, len(batches) + 1):
                cut = delta_state(factory(), graph)
                res = run_delta(factory(), graph, EngineConfig(seed=0),
                                state=cut, mutations=batches[:k])
                assert res.converged
                mutated, _ = apply_batches(graph, batches[:k])
                scratch = run(factory(), mutated, mode="deterministic",
                              config=EngineConfig(seed=0))
                assert res.result().tobytes() == scratch.result().tobytes()
                if "level" in cut.vertex_field_names:
                    _assert_supported(mutated, cut, factory())
                    kernel = resolve_delta_kernel(factory())(factory())
                    x, level = cut.vertex("label"), cut.vertex("level")
                    _levels(kernel, mutated, x,
                            np.minimum(*kernel.initial(mutated)), level)
                    assert not np.isnan(level).any()
                    _assert_supported(mutated, cut, factory())

    def test_sssp_duplicate_insert_repairs_with_its_own_weight(self):
        """An insert that duplicates a pair seeds the repair with its own
        edge's weight.  Here a weight depends on the edge's rank among
        its parallel copies, so the new copy (weight 1) is lighter than
        the edge it duplicates (weight 10)."""
        def by_rank(g):
            first = np.r_[True, (np.diff(g.edge_src) != 0)
                          | (np.diff(g.edge_dst) != 0)]
            return np.where(first, 10.0, 1.0)

        graph = DiGraph(3, [0, 1], [1, 2])
        batches = [MutationBatch(inserts=[[0, 1]])]
        sssp = lambda: SSSP(source=0, weight_fn=by_rank)  # noqa: E731
        res = run_delta(sssp(), graph, EngineConfig(seed=0),
                        mutations=batches)
        mutated, _ = apply_batches(graph, batches)
        scratch = run(sssp(), mutated, mode="deterministic",
                      config=EngineConfig(seed=0))
        assert scratch.result().tolist() == [0.0, 1.0, 11.0]
        assert res.result().tobytes() == scratch.result().tobytes()


class TestStableWeights:
    def test_weights_keyed_by_endpoints(self):
        """An edge that survives a mutation keeps its weight even though
        its edge id reshuffles — the property index-seeded weights lack."""
        g = _graph()
        w = stable_weights(g, seed=5)
        g1, _ = apply_batch(g, generate_batches(g, 1, 0.01, seed=7)[0])
        w1 = stable_weights(g1, seed=5)
        by_pair = {}
        for i in range(g.num_edges):
            by_pair.setdefault(
                (int(g.edge_src[i]), int(g.edge_dst[i])), w[i])
        for i in range(g1.num_edges):
            pair = (int(g1.edge_src[i]), int(g1.edge_dst[i]))
            if pair in by_pair:
                assert w1[i] == by_pair[pair]

    def test_range_and_seed(self):
        g = _graph(6)
        w = stable_weights(g, seed=5, low=1.0, high=10.0)
        assert w.shape == (g.num_edges,)
        assert np.all((w >= 1.0) & (w < 10.0))
        assert not np.array_equal(w, stable_weights(g, seed=6))


class TestIncrementalRepair:
    """Repair ≡ from-scratch, per kernel and repair mode."""

    def _scratch(self, factory, graph):
        res = run(factory(), graph, mode="nondeterministic",
                  vectorized="require", config=EngineConfig(threads=4, seed=0))
        assert res.converged
        return res.result()

    @pytest.mark.parametrize("name,factory", [
        ("sssp", _sssp), ("bfs", BFS), ("wcc", WeaklyConnectedComponents),
    ])
    def test_min_repair_bit_exact(self, name, factory):
        graph = _graph()
        batches = generate_batches(graph, 2, 0.005, seed=7)
        res = run_delta(factory(), graph, EngineConfig(threads=4, seed=0),
                        mutations=batches)
        assert res.converged
        assert res.extra["mutations_applied"] == 2
        assert res.extra["delta"]["accumulation_identity"]
        mutated, _ = apply_batches(graph, batches)
        assert res.extra["final_num_edges"] == mutated.num_edges
        assert np.array_equal(res.result(), self._scratch(factory, mutated))
        # from-scratch *delta* on the mutated graph agrees too
        scratch_delta = run_delta(factory(), mutated,
                                  EngineConfig(threads=4, seed=0))
        assert np.array_equal(res.result(), scratch_delta.result())

    def test_pagerank_reseed_matches_scratch(self):
        graph = _graph()
        batches = generate_batches(graph, 2, 0.005, seed=7)
        factory = lambda: PageRank(epsilon=EPS)  # noqa: E731
        res = run_delta(factory(), graph, EngineConfig(threads=4, seed=0),
                        mutations=batches)
        assert res.converged
        for m in res.extra["mutations"]:
            assert m["repair_mode"] == "reseed"
            assert m["repaired_vertices"] > 0
            assert m["repair_seconds"] >= 0
        mutated, _ = apply_batches(graph, batches)
        scratch = run_delta(factory(), mutated,
                            EngineConfig(threads=4, seed=0))
        assert np.max(np.abs(res.result() - scratch.result())) <= 100 * EPS

    def test_wcc_full_restart_is_honest_and_exact(self):
        """Deleting every edge of a star's centre (the minimum label)
        leaves all leaves at level 1 with no lower-level support, so the
        region exceeds the cap: the engine must say ``full_restart`` —
        and still be bit-exact.  A ring joins the leaves, so their
        same-label neighbours are tight but do not count."""
        n = 200
        leaves = list(range(1, n))
        graph = DiGraph(n, [0] * len(leaves) + leaves,
                        leaves + leaves[1:] + leaves[:1])
        batch = MutationBatch(deletes=[[0, v] for v in leaves])
        res = run_delta(WeaklyConnectedComponents(), graph,
                        EngineConfig(threads=4, seed=0), mutations=[batch])
        [m] = res.extra["mutations"]
        assert m["repair_mode"] == "full_restart"
        assert m["region_capped"] is True
        mutated, _ = apply_batch(graph, batch)
        assert np.array_equal(
            res.result(),
            self._scratch(WeaklyConnectedComponents, mutated))

    def test_wcc_small_batch_repairs_in_place(self):
        """A 0.1%-edge batch on rmat(10) repairs a bounded region: the
        giant component's labels are supported level by level."""
        graph = _graph(10)
        batches = generate_batches(graph, 3, 0.001, seed=7)
        res = run_delta(WeaklyConnectedComponents(), graph,
                        EngineConfig(threads=4, seed=0), mutations=batches)
        assert [m["repair_mode"] for m in res.extra["mutations"]] == \
            ["taint"] * 3
        mutated, _ = apply_batches(graph, batches)
        assert np.array_equal(
            res.result(),
            self._scratch(WeaklyConnectedComponents, mutated))

    def test_repair_provenance_recorded(self):
        """The flight recorder names the repaired region: mode, counts,
        and seed vertices, per batch."""
        from repro.obs import Recorder

        recorder = Recorder(policy="all")
        graph = _graph(7)
        batches = generate_batches(graph, 2, 0.01, seed=7)
        res = run_delta(_sssp(), graph, EngineConfig(threads=2, seed=0),
                        mutations=batches, record=recorder)
        assert res.converged
        repairs = [e for e in recorder.records if e.get("type") == "repair"]
        assert len(repairs) == 2
        for i, rec in enumerate(repairs):
            assert rec["batch"] == i
            assert rec["repair_mode"] in ("taint", "full_restart")
            assert rec["repaired_vertices"] >= 0
            assert isinstance(rec["seeds"], list)
            assert rec["inserted"] + rec["deleted"] > 0

    def test_mutation_telemetry_events(self):
        from repro.obs import Telemetry

        sink = Telemetry()
        graph = _graph(7)
        res = run_delta(_sssp(), graph, EngineConfig(seed=0),
                        mutations=generate_batches(graph, 1, 0.01, seed=7))
        assert res.converged
        sink2 = Telemetry()
        res2 = run_delta(_sssp(), graph, EngineConfig(seed=0),
                         mutations=generate_batches(graph, 1, 0.01, seed=7),
                         telemetry=sink2)
        assert np.array_equal(res.result(), res2.result()), \
            "telemetry must not perturb the repair"
        phases = {}
        for span in sink2.spans:
            for k, v in span.extra.get("phases", {}).items():
                phases[k] = phases.get(k, 0.0) + v
        assert phases.get("mutate_repair", 0.0) > 0.0

    def test_mutations_via_dicts(self):
        """run() accepts JSON-shaped batches (the service path)."""
        graph = _graph(7)
        batches = generate_batches(graph, 1, 0.01, seed=7)
        res = run(_sssp(), graph, mode="delta",
                  config=EngineConfig(seed=0),
                  mutations=[b.to_dict() for b in batches])
        ref = run(_sssp(), graph, mode="delta",
                  config=EngineConfig(seed=0), mutations=batches)
        assert np.array_equal(res.result(), ref.result())
