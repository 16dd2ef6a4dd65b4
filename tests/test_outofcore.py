"""Out-of-core sharded execution: container v2, PSW shards, and the
interval-sliced nondeterministic runner.

Three layers are pinned here:

* the RPROGRF2 container — page-aligned blocks, zero-copy ``np.memmap``
  views, torn-header rejection;
* the :class:`~repro.storage.shards.ShardStore` PSW layout — interval
  coverage, source-sort, and the single-writer slot ownership that makes
  the §II scope rule compose across intervals;
* the :class:`~repro.engine.nondet_outofcore.OutOfCoreNondetRunner` —
  bit-identical to the in-memory vectorized engine (which is itself
  bit-identical to the object engine) for every kernel, in both the
  single-process and the persistent-pool process backends, including
  fix-point pass counts, conflict accounting, and recorder provenance.

The ``outofcore`` marker selects the bounded-RAM scale test the CI
out-of-core job runs (`pytest -m outofcore`).
"""

import mmap as _mmap
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, OutOfCoreNondetRunner, Refused, run
from repro.engine.dispatch import DispatchPolicy
from repro.graph import DiGraph, generators
from repro.obs import Recorder
from repro.storage import ShardStore
from repro.storage.shards import edge_balanced_bounds, psw_layout
from repro.storage.binfmt import MAGIC2, load_graph, save_graph

from .test_nondet_vectorized import ALGORITHMS, assert_bit_identical


# ---------------------------------------------------------------------------
# container v2: mmap views and torn headers
# ---------------------------------------------------------------------------

class TestContainerV2:
    def test_mmap_views_are_zero_copy_and_page_aligned(self, tmp_path, rmat_small):
        path = tmp_path / "g.rpro"
        rng = np.random.default_rng(0)
        vx = rng.random(rmat_small.num_vertices)
        ew = rng.random(rmat_small.num_edges)
        save_graph(rmat_small, path, vertex_arrays={"vx": vx},
                   edge_arrays={"ew": ew})
        g1, va1, ea1 = load_graph(path)
        g2, va2, ea2 = load_graph(path, mmap=True)
        assert g1 == g2 == rmat_small
        assert np.array_equal(va1["vx"], va2["vx"])
        assert np.array_equal(ea1["ew"], ea2["ew"])
        for arr in (va2["vx"], ea2["ew"]):
            assert isinstance(arr, np.memmap)
            assert not arr.flags.writeable
            assert arr.offset % _mmap.ALLOCATIONGRANULARITY == 0
        assert not isinstance(va1["vx"], np.memmap)
        va1["vx"][0] = -1.0  # plain load stays privately writable

    def test_v1_still_readable_but_not_mappable(self, tmp_path, rmat_small):
        path = tmp_path / "g.rpro"
        save_graph(rmat_small, path, version=1)
        back, _, _ = load_graph(path)
        assert back == rmat_small
        with pytest.raises(ValueError, match="mmap=True requires a v2"):
            load_graph(path, mmap=True)

    def test_torn_fixed_header_rejected(self, tmp_path, rmat_small):
        path = tmp_path / "g.rpro"
        save_graph(rmat_small, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(MAGIC2) + 4])
        with pytest.raises(ValueError, match="torn header"):
            load_graph(path)

    def test_torn_toc_rejected(self, tmp_path, rmat_small):
        path = tmp_path / "g.rpro"
        save_graph(rmat_small, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(MAGIC2) + 24 + 3])
        with pytest.raises(ValueError, match="torn header"):
            load_graph(path)

    def test_byte_poke_in_payload_detected(self, tmp_path, rmat_small):
        path = tmp_path / "g.rpro"
        save_graph(rmat_small, path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_graph(path)


# ---------------------------------------------------------------------------
# PSW shard-store invariants (property tests over rmat scales)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale,num_intervals",
                         [(8, 4), (11, 7), (14, 16)])
def test_psw_invariants_on_rmat(tmp_path, scale, num_intervals):
    """Interval coverage, source-sort, and single-writer ownership,
    re-derived from the canonical topology independently of validate()."""
    g = generators.rmat(scale, 8.0, seed=scale)
    store = ShardStore.build(g, tmp_path / "g.shards", num_intervals)
    store.validate()

    src = np.asarray(store.canon_src)
    dst = np.asarray(store.canon_dst)
    eid = np.asarray(store.psw_eid)
    n, m, k = store.num_vertices, store.num_edges, store.num_intervals

    # Intervals partition the vertex set.
    bounds = [store.interval(j) for j in range(k)]
    assert bounds[0][0] == 0 and bounds[-1][1] == n
    for (a, b), (c, d) in zip(bounds, bounds[1:]):
        assert b == c

    interval_of = np.searchsorted(store.bounds, np.arange(n), side="right") - 1
    slot_owner_dst = np.full(m, -1)   # interval whose shard holds the slot
    slot_owner_src = np.full(m, -1)   # interval whose window holds the slot
    for j in range(k):
        a, b = int(store.shard_offsets[j]), int(store.shard_offsets[j + 1])
        assert slot_owner_dst[a:b].max(initial=-1) == -1, "shard overlap"
        slot_owner_dst[a:b] = j
        # Source-sorted within the shard, canonical id ascending overall.
        assert np.all(np.diff(np.asarray(store.psw_src[a:b])) >= 0)
        for t in range(k):
            wa, wb = int(store.window_index[j, t]), int(store.window_index[j, t + 1])
            assert slot_owner_src[wa:wb].max(initial=-1) == -1, "window overlap"
            slot_owner_src[wa:wb] = t
    # Every slot has exactly one dst-side and one src-side owner, and they
    # are the endpoint intervals — the cross-interval scope rule.
    assert np.all(slot_owner_dst >= 0) and np.all(slot_owner_src >= 0)
    assert np.array_equal(slot_owner_dst, interval_of[dst[eid]])
    assert np.array_equal(slot_owner_src, interval_of[src[eid]])

    # Coverage: interval k's ranges are exactly the slots incident to it.
    for j in range(k):
        covered = np.zeros(m, dtype=bool)
        for (a, b) in store.interval_ranges(j):
            assert not covered[a:b].any(), "ranges overlap"
            covered[a:b] = True
        incident = (slot_owner_dst == j) | (slot_owner_src == j)
        assert np.array_equal(covered, incident)


BALANCE_GRAPHS = {
    "rmat-8": lambda: generators.rmat(8, 8.0, seed=8),
    "rmat-11": lambda: generators.rmat(11, 8.0, seed=11),
    # Every edge enters vertex 0: one block holds them all, others none.
    "star": lambda: DiGraph(50, np.arange(50), np.zeros(50, dtype=np.int64)),
    "empty": lambda: DiGraph(5, np.array([], dtype=np.int64),
                             np.array([], dtype=np.int64)),
}


@pytest.mark.parametrize("parts", [1, 2, 3, 7, 64])
@pytest.mark.parametrize("name", sorted(BALANCE_GRAPHS))
def test_edge_balanced_psw_layout(name, parts):
    """The process backend's segment layout: every shard holds at most
    ceil(m / P) + (max in-degree) edges, and the shards — and, apart,
    the windows — partition the slots by the blocks of the endpoints."""
    g = BALANCE_GRAPHS[name]()
    n, m = g.num_vertices, g.num_edges
    in_deg = g.in_degrees()
    bounds = edge_balanced_bounds(in_deg, parts)
    assert bounds[0] == 0 and bounds[-1] == n and np.all(np.diff(bounds) >= 0)
    perm, offsets, windows = psw_layout(g.edge_src, g.edge_dst, bounds)
    assert np.array_equal(np.sort(perm), np.arange(m))
    assert offsets[0] == 0 and offsets[-1] == m
    assert np.all(np.diff(offsets) <= -(-m // parts) + in_deg.max(initial=0))
    block_of = np.searchsorted(bounds, np.arange(n), side="right") - 1
    shard_of = np.full(m, -1)
    window_of = np.full(m, -1)
    for j in range(parts):
        assert windows[j, 0] == offsets[j] and windows[j, -1] == offsets[j + 1]
        shard_of[offsets[j]:offsets[j + 1]] = j
        for k in range(parts):
            assert windows[j, k] <= windows[j, k + 1]
            window_of[windows[j, k]:windows[j, k + 1]] = k
    assert np.array_equal(shard_of, block_of[g.edge_dst[perm]])
    assert np.array_equal(window_of, block_of[g.edge_src[perm]])


@given(st.integers(1, 24), st.integers(0, 2**31), st.lists(
    st.floats(0, 1), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_psw_layout_invariants_on_arbitrary_bounds(n, seed, cuts):
    """psw_layout on its own, over random multigraphs (self-loops, empty
    blocks): shards hold their block's in-edges sorted by (source,
    canonical id), and windows span their shard in block order."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(0, 4 * n))
    g = DiGraph(n, rng.integers(0, n, m), rng.integers(0, n, m))
    src, dst = g.edge_src, g.edge_dst
    bounds = np.array([0, *sorted(int(c * n) for c in cuts), n])
    k = bounds.size - 1
    perm, offsets, windows = psw_layout(src, dst, bounds)
    assert np.array_equal(np.sort(perm), np.arange(m))
    assert offsets[0] == 0 and offsets[-1] == m
    assert np.all(np.diff(offsets) >= 0)
    for j in range(k):
        a, b = offsets[j], offsets[j + 1]
        e = perm[a:b]
        assert np.all((dst[e] >= bounds[j]) & (dst[e] < bounds[j + 1]))
        # Strictly ascending (source, canonical id) pairs.
        key = src[e] * max(m, 1) + e
        assert np.all(np.diff(key) > 0)
        assert windows[j, 0] == a and windows[j, k] == b
        assert np.all(np.diff(windows[j]) >= 0)
        for t in range(k):
            w = src[perm[windows[j, t]:windows[j, t + 1]]]
            assert np.all((w >= bounds[t]) & (w < bounds[t + 1]))


def test_store_rejects_corrupted_layout(tmp_path, rmat_small):
    store = ShardStore.build(rmat_small, tmp_path / "g.shards", 4)
    store.validate()
    with pytest.raises(ValueError):
        ShardStore.build(rmat_small, tmp_path / "bad.shards", 0)


def test_graph_view_matches_source_graph(tmp_path, rmat_small):
    store = ShardStore.build(rmat_small, tmp_path / "g.shards", 4)
    view = store.graph_view()
    assert view.num_vertices == rmat_small.num_vertices
    assert view.num_edges == rmat_small.num_edges
    assert np.array_equal(view.edge_src, rmat_small.edge_src)
    assert np.array_equal(view.edge_dst, rmat_small.edge_dst)
    assert np.array_equal(view.out_degrees(), rmat_small.out_degrees())


# ---------------------------------------------------------------------------
# bit-identity: out-of-core == in-memory vectorized == object engine
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ooc_graph():
    return generators.rmat(6, 8.0, seed=3)


@pytest.fixture
def ooc_store(ooc_graph, tmp_path):
    store = ShardStore.build(ooc_graph, tmp_path / "g.shards", 4)
    yield store
    runner = store.nondet_runner()
    runner.close()


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("seed", [0, 1])
def test_out_of_core_bit_identical(ooc_graph, ooc_store, algo, seed):
    config = EngineConfig(threads=4, seed=seed, jitter=0.5)
    vec = run(ALGORITHMS[algo](), ooc_graph, mode="nondeterministic",
              config=config, vectorized="require")
    ooc = run(ALGORITHMS[algo](), ooc_store, mode="nondeterministic",
              config=config)
    assert ooc.extra.get("out_of_core") is True
    assert ooc.extra.get("vectorized") is True
    assert ooc.extra["num_intervals"] == 4
    assert ooc.extra["io"]["bytes_read"] > 0
    assert_bit_identical(vec, ooc)
    assert ooc.extra["fixpoint_passes"] == vec.extra["fixpoint_passes"]


@st.composite
def ooc_cases(draw):
    """A random multigraph (self-loops and parallel edges included) on
    ``K`` in {1, 2, 3, 5} intervals — half the time with one interval's
    in-edges dropped and an out-edge added per vertex of it, so its
    shard is empty while its windows are not — with a kernel, a
    configuration of 1, 2 or 3 threads (``direction_alpha`` 1 makes
    repairs slice often) and the backend: in this process or a pool of
    ``min(threads, K)`` workers."""
    n = draw(st.integers(1, 64))
    k = draw(st.sampled_from([1, 2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 6 * n))
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    if draw(st.booleans()):
        cut = np.linspace(0, n, k + 1).astype(np.int64)
        j = draw(st.integers(0, k - 1))
        lo, hi = cut[j], cut[j + 1]
        keep = (dst < lo) | (dst >= hi)
        # Every vertex of the interval points at vertex 0 (or at n - 1,
        # when 0 is in it), unless the interval is the whole graph.
        own = np.arange(lo, hi) if hi - lo < n else np.arange(0)
        src = np.concatenate((src[keep], own))
        dst = np.concatenate(
            (dst[keep], np.full(own.size, 0 if lo else n - 1)))
    graph = DiGraph(n, src.astype(np.int64), dst.astype(np.int64))
    config = EngineConfig(
        threads=draw(st.sampled_from([1, 2, 3])),
        seed=draw(st.integers(0, 2**16)),
        jitter=draw(st.sampled_from([0.0, 0.5])),
        dispatch=draw(st.sampled_from(list(DispatchPolicy))),
        direction_alpha=draw(st.sampled_from([14.0, 1.0])))
    return (draw(st.sampled_from(sorted(ALGORITHMS))), graph, k, config,
            draw(st.sampled_from([None, "process"])))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=ooc_cases())
def test_out_of_core_equals_vectorized_property(tmp_path_factory, case):
    """Generated inputs for the hand grid above: state bytes, every
    ``IterationStats`` row, the conflict summary with its per-iteration
    counts and ``fixpoint_passes`` equal the in-memory run's, and so
    does ``repair_slice_passes``: the vectorized run's in this process,
    the in-memory process backend's on a pool (which counts each of
    ``config.threads`` model threads' dirty share by ``thr_v``, so the
    pool's fewer workers must answer for all of them)."""
    algo, graph, k, config, backend = case
    store = ShardStore.build(graph, tmp_path_factory.mktemp("ooc") / "g", k)
    try:
        vec = run(ALGORITHMS[algo](), graph, config=config,
                  vectorized="require")
        ooc = run(ALGORITHMS[algo](), store, config=config, backend=backend)
        assert_bit_identical(vec, ooc)
        assert ooc.extra["fixpoint_passes"] == vec.extra["fixpoint_passes"]
        same = vec if backend is None else run(
            ALGORITHMS[algo](), graph, config=config, backend="process")
        assert (ooc.extra["repair_slice_passes"]
                == same.extra["repair_slice_passes"])
    finally:
        store.nondet_runner().close()


def test_result_keeps_its_own_edges(ooc_graph, ooc_store):
    """A result's edges are its own run's, whatever the store's runner
    did after it: another run, or its close()."""
    config = EngineConfig(threads=2, seed=1, jitter=0.5)
    runs = [(run(PageRank(epsilon=epsilon), ooc_graph, config=config,
                 vectorized="require"),
             run(PageRank(epsilon=epsilon), ooc_store, config=config))
            for epsilon in (1e-1, 1e-4)]
    mine, later = (vec.state.edge("value") for vec, _ in runs)
    assert not np.array_equal(mine, later)
    ooc_store.nondet_runner().close()
    for vec, ooc in runs:
        assert np.array_equal(ooc.state.edge("value"), vec.state.edge("value"))


def test_slot_index_builds_without_edge_sized_temporaries(tmp_path):
    """The first make_state() on a store writes the slot index into its
    mapping a chunk or a shard at a time: the anonymous-memory peak
    stays near the largest shard's int64 slots (a quarter of the edges
    here), under half of one m-length int64 array — building it whole
    took two."""
    small = ShardStore.build(generators.rmat(6, 8.0, seed=3),
                             tmp_path / "small.shards", 2)
    warm = OutOfCoreNondetRunner(small)  # imports and caches
    warm.make_state(WeaklyConnectedComponents())
    warm.close()
    graph = generators.rmat(13, 16.0, seed=3)
    store = ShardStore.build(graph, tmp_path / "g.shards", 16)
    runner = OutOfCoreNondetRunner(store)
    runner.CHUNK = 1 << 12
    tracemalloc.start()
    try:
        runner.make_state(WeaklyConnectedComponents())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        runner.close()
    assert peak < 8 * graph.num_edges / 2


def test_out_of_core_repairs_slice(tmp_path):
    """Solo rmat-14 PageRank on 8 intervals takes the slice path where
    the vectorized run does, and as often."""
    graph = generators.rmat(14, 8.0, seed=3)
    store = ShardStore.build(graph, tmp_path / "g.shards", 8)
    try:
        config = EngineConfig(threads=2, seed=0, jitter=0.5)
        vec = run(PageRank(epsilon=1e-3), graph, config=config,
                  vectorized="require")
        ooc = run(PageRank(epsilon=1e-3), store, config=config)
        assert vec.extra["repair_slice_passes"] > 0
        assert (ooc.extra["repair_slice_passes"]
                == vec.extra["repair_slice_passes"])
        assert_bit_identical(vec, ooc)
    finally:
        store.nondet_runner().close()


def test_interval_with_no_in_edges(tmp_path):
    """Interval 1 (vertices 2, 3) has out-edges but an empty shard: its
    passes still scatter over every one of its sliding windows."""
    g = DiGraph(8, np.array([2, 2, 3, 3, 0, 1, 4, 5, 6, 7, 0]),
                np.array([0, 5, 1, 6, 1, 0, 5, 4, 7, 6, 4]))
    store = ShardStore.build(g, tmp_path / "g.shards", 4)
    try:
        assert store.shard_offsets[1] == store.shard_offsets[2]
        config = EngineConfig(threads=2, seed=1, jitter=0.5)
        for algo in sorted(ALGORITHMS):
            assert_bit_identical(
                run(ALGORITHMS[algo](), g, config=config, vectorized="require"),
                run(ALGORITHMS[algo](), store, config=config))
    finally:
        store.nondet_runner().close()


def test_out_of_core_zero_jitter_single_interval(ooc_graph, tmp_path):
    """K=1 degenerates to the in-memory schedule exactly."""
    store = ShardStore.build(ooc_graph, tmp_path / "one.shards", 1)
    config = EngineConfig(threads=3, seed=0)
    vec = run(WeaklyConnectedComponents(), ooc_graph, mode="nondeterministic",
              config=config, vectorized="require")
    ooc = run(WeaklyConnectedComponents(), store, mode="nondeterministic",
              config=config)
    assert_bit_identical(vec, ooc)
    store.nondet_runner().close()


def test_recorder_provenance_identical(ooc_graph, ooc_store):
    config = EngineConfig(threads=3, seed=0, jitter=0.5)
    rec_vec, rec_ooc = Recorder(), Recorder()
    vec = run(PageRank(epsilon=1e-3), ooc_graph, mode="nondeterministic",
              config=config, vectorized="require", record=rec_vec)
    ooc = run(PageRank(epsilon=1e-3), ooc_store, mode="nondeterministic",
              config=config, record=rec_ooc)
    assert_bit_identical(vec, ooc)
    assert len(rec_vec.events) > 0
    assert rec_vec.events == rec_ooc.events


def test_out_of_core_rejects_other_modes(ooc_store):
    with pytest.raises(ValueError, match="nondeterministic"):
        run(WeaklyConnectedComponents(), ooc_store, mode="deterministic")


def test_watchdog_fallback_on_a_store_is_refused_by_the_table(ooc_store):
    """The degradation ladder's last rung needs an object engine; on a
    ShardStore the table refuses it at fallback time, not the engine."""
    from repro.engine.capabilities import ROWS
    from repro.robust import ConvergenceWatchdog, DegradationPolicy

    with pytest.raises(Refused) as refused:
        run(PageRank(epsilon=1e-3), ooc_store,
            config=EngineConfig(threads=2, seed=0),
            watchdog=ConvergenceWatchdog(oscillation=False, stall_window=1),
            policy=DegradationPolicy(escalate_atomicity=False))
    assert refused.value.reason == ROWS["chromatic"].residency.reason


def test_out_of_core_rejects_unknown_backend(ooc_store):
    with pytest.raises(ValueError, match="backend"):
        run(WeaklyConnectedComponents(), ooc_store, mode="nondeterministic",
            config=EngineConfig(threads=2, seed=0), backend="threads")


# ---------------------------------------------------------------------------
# process backend: interval dispatch + persistent pool
# ---------------------------------------------------------------------------

def test_process_backend_bit_identical_and_pool_reused(ooc_graph, ooc_store):
    config = EngineConfig(threads=4, seed=0, jitter=0.5)
    vec = run(PageRank(epsilon=1e-3), ooc_graph, mode="nondeterministic",
              config=config, vectorized="require")
    first = run(PageRank(epsilon=1e-3), ooc_store, mode="nondeterministic",
                config=config, backend="process")
    second = run(PageRank(epsilon=1e-3), ooc_store, mode="nondeterministic",
                 config=config, backend="process")
    assert first.extra["backend"] == "process"
    assert first.extra["pool_reused"] is False
    assert second.extra["pool_reused"] is True
    assert first.extra["workers"] == min(4, 4)
    assert_bit_identical(vec, first)
    assert_bit_identical(vec, second)
    assert first.extra["fixpoint_passes"] == vec.extra["fixpoint_passes"]


def test_process_backend_recorder_identical(ooc_graph, ooc_store):
    config = EngineConfig(threads=2, seed=1, jitter=0.5)
    rec_vec, rec_proc = Recorder(), Recorder()
    vec = run(WeaklyConnectedComponents(), ooc_graph, mode="nondeterministic",
              config=config, vectorized="require", record=rec_vec)
    proc = run(WeaklyConnectedComponents(), ooc_store, mode="nondeterministic",
               config=config, backend="process", record=rec_proc)
    assert_bit_identical(vec, proc)
    assert rec_vec.events == rec_proc.events


def test_pool_torn_down_with_runner(ooc_graph, tmp_path):
    import glob as _glob

    store = ShardStore.build(ooc_graph, tmp_path / "g.shards", 4)
    config = EngineConfig(threads=2, seed=0)
    run(WeaklyConnectedComponents(), store, mode="nondeterministic",
        config=config, backend="process")
    store.nondet_runner().close()
    assert _glob.glob("/dev/shm/repro-pool-*") == []


def _held(directory: str) -> list[str]:
    """This process's mappings and open fds of files under ``directory``."""
    with open("/proc/self/maps") as fh:
        held = [line for line in fh if directory in line]
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own fd, closed meanwhile
            continue
        if target.startswith(directory):
            held.append(target)
    return held


def test_close_unmaps_the_scratch_and_the_next_run_maps_afresh(
        ooc_graph, ooc_store):
    config = EngineConfig(threads=2, seed=1, jitter=0.5)
    vec = run(WeaklyConnectedComponents(), ooc_graph, config=config,
              vectorized="require")
    scratch = ooc_store.path + ".scratch" + os.sep
    first = run(WeaklyConnectedComponents(), ooc_store, config=config,
                backend="process")
    assert_bit_identical(vec, first)
    assert _held(scratch)
    ooc_store.nondet_runner().close()
    assert _held(scratch) == []
    second = run(WeaklyConnectedComponents(), ooc_store, config=config)
    assert _held(scratch)
    assert_bit_identical(vec, second)


def test_dropping_the_store_tears_everything_down_without_cyclic_gc(
        ooc_graph, tmp_path):
    """The store caches its runner; were the runner to hold the store
    back, only the cyclic GC would stop the pool, unlink its segment
    and unmap the scratch."""
    import gc

    store = ShardStore.build(ooc_graph, tmp_path / "g.shards", 4)
    scratch = store.path + ".scratch" + os.sep
    gc.collect()
    gc.disable()
    try:
        run(WeaklyConnectedComponents(), store,
            config=EngineConfig(threads=2, seed=0), backend="process")
        pool = store.nondet_runner()._pool
        segment, procs = "/dev/shm/" + pool.shm.name, list(pool.procs)
        del pool
        assert os.path.exists(segment) and _held(scratch)
        del store
        assert not os.path.exists(segment)
        assert _held(scratch) == []
        assert not any(proc.is_alive() for proc in procs)
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# robustness: checkpoints round-trip interval state
# ---------------------------------------------------------------------------

def test_checkpoint_resume_roundtrip(ooc_graph, ooc_store, tmp_path):
    """A checkpoint cut mid-run out-of-core resumes — out-of-core or
    in-memory — to the exact uninterrupted trajectory."""
    from repro.robust import DegradationPolicy

    ck = str(tmp_path / "ooc.ckpt")
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    with pytest.raises(Exception):
        run(PageRank(epsilon=1e-3), ooc_store, mode="nondeterministic",
            config=config, faults="crash@2", checkpoint=ck,
            policy=DegradationPolicy(max_restarts=0))
    clean = run(PageRank(epsilon=1e-3), ooc_graph, mode="nondeterministic",
                config=config, vectorized="require")
    for resume_graph in (ooc_store, ooc_graph):
        resumed = run(PageRank(epsilon=1e-3), resume_graph,
                      mode="nondeterministic", resume_from=ck)
        assert resumed.converged
        assert resumed.num_iterations == clean.num_iterations
        for f in clean.state.vertex_field_names:
            assert np.array_equal(resumed.state.vertex(f), clean.state.vertex(f))
        for f in clean.state.edge_field_names:
            assert np.array_equal(resumed.state.edge(f), clean.state.edge(f))


def test_torn_write_fault_parity(ooc_graph, ooc_store):
    """Fault injection mutates the interval-sliced state identically to
    the in-memory engine — the supervisor's writes flush to scratch."""
    from repro.engine.spec import RunSpec
    from repro.robust import supervised_run

    config = EngineConfig(threads=2, seed=3, jitter=0.25)
    solo = supervised_run(WeaklyConnectedComponents(), ooc_graph, RunSpec(
        mode="nondeterministic", config=config, faults="torn@1;delay@2:x3",
        vectorized="require"))
    ooc = supervised_run(WeaklyConnectedComponents(), ooc_store, RunSpec(
        mode="nondeterministic", config=config, faults="torn@1;delay@2:x3"))
    assert_bit_identical(solo, ooc)


# ---------------------------------------------------------------------------
# bounded RAM at scale (CI out-of-core job)
# ---------------------------------------------------------------------------

_RLIMIT_CHILD = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from repro.engine import EngineConfig, run
    from repro.storage import ShardStore
    from repro.algorithms import WeaklyConnectedComponents
    from repro.graph import DiGraph

    store_path, mode = sys.argv[1], sys.argv[2]
    store = ShardStore.open(store_path)
    # Cap the address space at the current footprint plus a headroom
    # that the interval-sliced runner fits in but a full in-memory
    # materialization (topology + per-slot scratch arrays) cannot.
    with open("/proc/self/statm") as fh:
        vm_pages = int(fh.read().split()[0])
    base = vm_pages * resource.getpagesize()
    headroom = int(sys.argv[3])
    resource.setrlimit(resource.RLIMIT_AS, (base + headroom, resource.RLIM_INFINITY))
    config = EngineConfig(threads=4, seed=0, max_iterations=3)
    if mode == "in-memory":
        src = np.array(store.canon_src)       # materialize topology
        dst = np.array(store.canon_dst)
        g = DiGraph(store.num_vertices, src, dst)
        run(WeaklyConnectedComponents(), g, mode="nondeterministic",
            config=config, vectorized="require")
    else:
        res = run(WeaklyConnectedComponents(), store, mode="nondeterministic",
                  config=config)
        assert res.extra["out_of_core"] is True
    print("OK", mode)
""")


@pytest.mark.outofcore
def test_scale16_wcc_bounded_ram(tmp_path):
    """Scale-16 WCC under RLIMIT_AS: the out-of-core runner completes in
    an address-space budget the in-memory engine provably exceeds."""
    g = generators.rmat(16, 16.0, seed=7)
    store_path = tmp_path / "scale16.shards"
    ShardStore.build(g, store_path, 16)
    del g
    env = dict(os.environ, PYTHONPATH="src")
    # The in-memory engine needs ~180 MiB here, the runner under 64.
    headroom = 128 * 1024 * 1024

    def child(mode):
        return subprocess.run(
            [sys.executable, "-c", _RLIMIT_CHILD, str(store_path), mode,
             str(headroom)],
            capture_output=True, text=True, cwd=os.getcwd(), env=env)

    ooc = child("out-of-core")
    assert ooc.returncode == 0, ooc.stderr
    assert "OK out-of-core" in ooc.stdout
    mem = child("in-memory")
    assert mem.returncode != 0, (
        "in-memory run unexpectedly fit the capped address space")
    assert "MemoryError" in mem.stderr or "_ArrayMemoryError" in mem.stderr
