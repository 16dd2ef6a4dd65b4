"""Backend equivalence for the shared-memory process backend.

The process backend distributes the vectorized nondeterministic model
across OS workers, each owning one edge-balanced block of vertices: its
shard of in-edges and its windows of out-edges in the segment's PSW slot
order.  Because every edge slot has exactly one writing owner (the
paper's §II scope rule: only the endpoints touch an edge), the workers
never race on real memory, and the distributed run is *bit-identical*
to the single-process vectorized engine — which is itself bit-identical
to the object engine — whatever block runs a vertex.  These tests pin
that chain (a Hypothesis property over multigraphs, stars, worker
counts, dispatch policies and directions among them), the runner
plumbing, and the robustness ladder (worker death → WorkerDied →
supervised restart from barrier-consistent state).
"""

import glob
import multiprocessing as mp
import os
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, ParallelEngine, fallback_reasons, run
from repro.engine.dispatch import DispatchPolicy
from repro.engine.workerpool import WorkerPool
from repro.graph import DiGraph, generators
from repro.obs import Recorder
from repro.robust import DegradationPolicy, WorkerDied, WorkerTimeout
from repro.storage import ShardStore
from repro.storage.shm import ArrayLayout
from repro.theory import audit_run

from .test_nondet_vectorized import ALGORITHMS, assert_bit_identical

pytestmark = pytest.mark.parallel_backend


@pytest.fixture(scope="module")
def small_graph():
    return generators.rmat(6, 8.0, seed=3)


def run_backend_pair(factory, graph, config, **run_kwargs):
    """One vectorized run and one process-backend run, same configuration."""
    vec = run(factory(), graph, mode="nondeterministic", config=config,
              vectorized="require", **run_kwargs)
    proc = run(factory(), graph, mode="nondeterministic", config=config,
               backend="process", **run_kwargs)
    return vec, proc


# ---------------------------------------------------------------------------
# bit-identity: process backend == vectorized == object engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("workers", [1, 4])
def test_process_backend_bit_identical(small_graph, algo, workers):
    config = EngineConfig(threads=workers, seed=0, jitter=0.5)
    vec, proc = run_backend_pair(ALGORITHMS[algo], small_graph, config)
    assert proc.extra.get("backend") == "process"
    assert proc.extra.get("workers") == workers
    assert proc.extra.get("vectorized") is True
    assert proc.mode == "nondeterministic"
    assert_bit_identical(vec, proc)
    # the fix-point decomposition must not change the pass count either
    assert proc.extra["fixpoint_passes"] == vec.extra["fixpoint_passes"]


@st.composite
def process_cases(draw):
    """A multigraph with self-loops — and, half the time, a star into
    vertex 0, whose edge-balanced cut gives block 0 every star edge and
    leaves a block empty — with a configuration of 1, 2, 3 or 5 workers
    (more workers than vertices included)."""
    n = draw(st.integers(1, 12))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))
    if draw(st.booleans()):
        edges += [(v, 0) for v in range(n)]
    graph = DiGraph(n, np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64))
    config = EngineConfig(
        threads=draw(st.sampled_from([1, 2, 3, 5])),
        seed=draw(st.integers(0, 2**16)),
        jitter=draw(st.sampled_from([0.0, 0.5])),
        dispatch=draw(st.sampled_from(list(DispatchPolicy))))
    return (draw(st.sampled_from(sorted(ALGORITHMS))), graph, config,
            draw(st.sampled_from(["pull", "auto"])))


@settings(max_examples=30, deadline=None)
@given(case=process_cases())
def test_process_backend_equals_vectorized_property(case):
    algo, graph, config, direction = case
    vec, proc = run_backend_pair(ALGORITHMS[algo], graph, config,
                                 direction=direction)
    assert_bit_identical(vec, proc)
    assert proc.extra["fixpoint_passes"] == vec.extra["fixpoint_passes"]


def test_process_backend_state_reachable_by_object_engine(small_graph):
    """Satellite check: the distributed run's final state passes the
    Lemma-2 audit, i.e. it is a state the object engine could reach."""
    config = EngineConfig(threads=4, seed=1, jitter=0.5)
    proc = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
               config=config, backend="process")
    assert audit_run(proc) == []


def test_process_backend_jitter_zero_and_many_workers():
    graph = generators.rmat(4, 8.0, seed=5)
    # 64 workers > |V|: some workers own no vertices in every iteration
    for workers in (2, 64):
        config = EngineConfig(threads=workers, seed=2, jitter=0.0)
        vec, proc = run_backend_pair(WeaklyConnectedComponents, graph, config)
        assert_bit_identical(vec, proc)


# ---------------------------------------------------------------------------
# runner plumbing
# ---------------------------------------------------------------------------

def test_backend_rejects_ineligible_config(small_graph):
    reasons = fallback_reasons(
        PageRank(), EngineConfig(keep_conflict_events=True))
    assert reasons  # the config is genuinely ineligible
    with pytest.raises(ValueError, match="keep_conflict_events"):
        run(PageRank(), small_graph, mode="nondeterministic",
            backend="process",
            config=EngineConfig(threads=2, keep_conflict_events=True))


def test_empty_backend_string_means_in_process(small_graph):
    res = run(PageRank(epsilon=1e-2), small_graph, mode="nondeterministic",
              config=EngineConfig(threads=2, seed=0), backend="")
    assert "backend" not in res.extra


def test_engine_instance_is_reusable(small_graph):
    """A ParallelEngine can run twice and reuses its warm worker pool."""
    engine = ParallelEngine()
    try:
        config = EngineConfig(threads=2, seed=0, jitter=0.5)
        a = engine.run(PageRank(epsilon=1e-3), small_graph, config)
        b = engine.run(PageRank(epsilon=1e-3), small_graph, config)
        assert a.extra["pool_reused"] is False
        assert b.extra["pool_reused"] is True
        assert_bit_identical(a, b)
    finally:
        engine.close()


def test_pool_reuse_survives_config_changes(small_graph):
    """Seed/jitter/delay changes reuse the pool (the plan is re-broadcast
    every iteration); changing P or the program tears it down."""
    engine = ParallelEngine()
    try:
        base = EngineConfig(threads=2, seed=0)
        engine.run(WeaklyConnectedComponents(), small_graph, base)
        jittered = engine.run(WeaklyConnectedComponents(), small_graph,
                              EngineConfig(threads=2, seed=5, jitter=0.5))
        assert jittered.extra["pool_reused"] is True
        solo = run(WeaklyConnectedComponents(), small_graph,
                   mode="nondeterministic",
                   config=EngineConfig(threads=2, seed=5, jitter=0.5),
                   vectorized="require")
        assert_bit_identical(solo, jittered)
        wider = engine.run(WeaklyConnectedComponents(), small_graph,
                           EngineConfig(threads=3, seed=0))
        assert wider.extra["pool_reused"] is False
        other = engine.run(PageRank(epsilon=1e-3), small_graph,
                           EngineConfig(threads=3, seed=0))
        assert other.extra["pool_reused"] is False
    finally:
        engine.close()


def test_pool_reuse_keeps_delay_model_in_sync(small_graph):
    """The batched barrier message only ships the delay model when it
    changes; a fault-injection schedule that flips it per iteration must
    still match the single-process run."""
    from repro.engine.spec import RunSpec
    from repro.robust import supervised_run

    config = EngineConfig(threads=2, seed=3, jitter=0.25)
    plan = "delay@1:x3;delay@3:x7"
    solo = supervised_run(WeaklyConnectedComponents(), small_graph, RunSpec(
        mode="nondeterministic", config=config, faults=plan,
        vectorized="require"))
    proc = supervised_run(WeaklyConnectedComponents(), small_graph, RunSpec(
        mode="nondeterministic", config=config, faults=plan,
        backend="process"))
    assert_bit_identical(solo, proc)


# ---------------------------------------------------------------------------
# observability: recorder provenance and checkpoint/resume
# ---------------------------------------------------------------------------

def test_recorder_events_identical_to_vectorized(small_graph):
    config = EngineConfig(threads=3, seed=0, jitter=0.5)
    rec_vec, rec_proc = Recorder(), Recorder()
    vec = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
              config=config, vectorized="require", record=rec_vec)
    proc = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
               config=config, backend="process", record=rec_proc)
    assert_bit_identical(vec, proc)
    assert len(rec_vec.events) > 0
    assert rec_vec.events == rec_proc.events


def test_checkpoint_resume_across_backends(small_graph, tmp_path):
    """A checkpoint written by the process backend resumes on the
    single-process engine bit-identically (and vice versa): the
    barrier-consistent master state is backend-agnostic."""
    ck = str(tmp_path / "par.ckpt")
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    with pytest.raises(Exception):
        run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
            config=config, backend="process", faults="crash@2",
            checkpoint=ck, policy=DegradationPolicy(max_restarts=0))
    resumed = run(PageRank(epsilon=1e-3), small_graph,
                  mode="nondeterministic", resume_from=ck,
                  vectorized="require")
    clean = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
                config=config, vectorized="require")
    # A resumed result only reports post-resume iteration stats; the
    # committed state and global trajectory must still match exactly.
    assert resumed.converged and resumed.num_iterations == clean.num_iterations
    for f in clean.state.vertex_field_names:
        assert np.array_equal(resumed.state.vertex(f), clean.state.vertex(f))
    for f in clean.state.edge_field_names:
        assert np.array_equal(resumed.state.edge(f), clean.state.edge(f))


# ---------------------------------------------------------------------------
# robustness ladder: worker death
# ---------------------------------------------------------------------------

@pytest.fixture(params=["memory", "shards"])
def pool_graph(request, small_graph, tmp_path):
    """Both users of the shared worker pool — the in-memory process
    backend and the out-of-core interval pool — and, after the test, the
    audit that neither left a segment behind."""
    if request.param == "memory":
        yield small_graph
    else:
        store = ShardStore.build(small_graph, tmp_path / "g.shards", 4)
        yield store
        store.nondet_runner().close()
    assert glob.glob("/dev/shm/repro-pool-*") == []


def _kill_one_worker_at(iteration_to_kill):
    """Observer that SIGKILLs one backend worker once, mid-run."""
    state = {"done": False}

    def observer(iteration, _state, _next_ids):
        if state["done"] or iteration < iteration_to_kill:
            return
        victims = [p for p in mp.active_children() if p.name.startswith(
            ("repro-nondet-worker", "repro-ooc-worker"))]
        if victims:
            state["done"] = True
            os.kill(victims[0].pid, signal.SIGKILL)

    return observer


def test_worker_sigkill_raises_worker_died(pool_graph):
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    with pytest.raises(WorkerDied) as exc:
        run(PageRank(epsilon=1e-3), pool_graph, mode="nondeterministic",
            config=config, backend="process",
            observer=_kill_one_worker_at(1))
    # WorkerDied extends WorkerTimeout so the existing robustness ladder
    # (watchdog classification, restart policy) applies unchanged.
    assert isinstance(exc.value, WorkerTimeout)
    assert exc.value.workers  # names the culprit, not clean-exit siblings


class _RaisingBody:
    """Pool worker body whose worker 1 fails inside ``iterate``."""

    def __init__(self, link):
        self.link = link

    def iterate(self, dm, iteration):
        if self.link.wid == 1:
            raise RuntimeError("boom in the worker body")
        self.link.wait()


def test_worker_exception_raises_worker_died_with_traceback():
    layout = ArrayLayout.build({"phase_w": ((2, 1), np.float64)})
    pool = WorkerPool(layout, 2, 30.0, key=None, name="repro-test-worker",
                      body=_RaisingBody, body_args=lambda w: ())
    try:
        pool.broadcast(0, None, (False, None, 1))
        with pytest.raises(WorkerDied, match="boom in the worker body") as exc:
            pool.sync(0)
        assert exc.value.workers == (1,)
    finally:
        pool.close()
    assert glob.glob("/dev/shm/repro-pool-*") == []


def test_supervised_restart_recovers_from_worker_death(small_graph,
                                                       pool_graph):
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    res = run(PageRank(epsilon=1e-3), pool_graph, mode="nondeterministic",
              config=config, backend="process",
              observer=_kill_one_worker_at(1),
              policy=DegradationPolicy(max_restarts=2, backoff_s=0.0))
    actions = [d["action"] for d in res.extra["degradations"]]
    assert "restart" in actions
    assert res.extra["degradations"][0]["cause"] == "WorkerDied"
    clean = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic",
                config=config, vectorized="require")
    # A restarted run replays from the last barrier: final state and the
    # global trajectory match the uninterrupted run bit-for-bit (the
    # post-restart stats list necessarily starts at the resume point).
    assert res.converged and res.num_iterations == clean.num_iterations
    for f in clean.state.vertex_field_names:
        assert np.array_equal(res.state.vertex(f), clean.state.vertex(f))
    for f in clean.state.edge_field_names:
        assert np.array_equal(res.state.edge(f), clean.state.edge(f))
