"""Bit-for-bit equivalence of the vectorized nondeterministic fast path.

The vectorized engine re-derives every observable of a
``NondeterministicEngine`` run — committed values, iteration counts,
frontier trajectory, conflict totals, per-thread work profiles — from
whole-graph array passes (batched Defs. 1–3 visibility, Lemma-2 commits
as a lexicographic argmax).  These tests pin the contract: for every
eligible program and configuration the two engines are *bit-identical*,
and for every ineligible one the runner falls back transparently.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    SSSP,
    MaxLabelPropagation,
    PageRank,
    PrioritizedSSSP,
    SpMV,
    WeaklyConnectedComponents,
)
from repro.engine import (
    AtomicityPolicy,
    DelayModel,
    DispatchPolicy,
    EngineConfig,
    VectorizedNondetEngine,
    fallback_reasons,
    make_plan,
    plan_arrays,
    resolve_nondet_kernel,
    run,
)
from repro.graph import DiGraph, generators

ALGORITHMS = {
    "wcc": WeaklyConnectedComponents,
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "sssp": lambda: SSSP(source=0),
    "bfs": lambda: BFS(source=0),
    "spmv": SpMV,
}


def run_pair(factory, graph, config, **run_kwargs):
    """One object run and one vectorized run of the same configuration."""
    obj = run(factory(), graph, mode="nondeterministic", config=config, **run_kwargs)
    vec = run(
        factory(),
        graph,
        mode="nondeterministic",
        config=config,
        vectorized="require",
        **run_kwargs,
    )
    return obj, vec


def assert_bit_identical(a, b):
    """Every observable of the two runs must match exactly."""
    for f in a.state.vertex_field_names:
        assert np.array_equal(a.state.vertex(f), b.state.vertex(f)), f"vertex {f}"
    for f in a.state.edge_field_names:
        assert np.array_equal(a.state.edge(f), b.state.edge(f)), f"edge {f}"
    assert a.num_iterations == b.num_iterations
    assert a.converged == b.converged
    assert a.conflicts.summary() == b.conflicts.summary()
    assert dict(a.conflicts.per_iteration) == dict(b.conflicts.per_iteration)
    assert len(a.iterations) == len(b.iterations)
    for sa, sb in zip(a.iterations, b.iterations):
        assert sa.num_active == sb.num_active
        assert sa.updates_per_thread == sb.updates_per_thread
        assert sa.reads_per_thread == sb.reads_per_thread
        assert sa.writes_per_thread == sb.writes_per_thread


@pytest.fixture(scope="module")
def small_graph():
    return generators.rmat(6, 8.0, seed=3)


@pytest.fixture(scope="module")
def loopy_graph():
    """A graph with self-loops and parallel edges (DiGraph keeps both)."""
    rng = np.random.default_rng(9)
    return DiGraph(20, rng.integers(0, 20, 120), rng.integers(0, 20, 120))


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@pytest.mark.parametrize("policy", [DispatchPolicy.BLOCK, DispatchPolicy.ROUND_ROBIN])
@pytest.mark.parametrize("jitter", [0.0, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_grid(small_graph, algo, policy, jitter, seed):
    config = EngineConfig(threads=4, seed=seed, jitter=jitter, dispatch=policy)
    obj, vec = run_pair(ALGORITHMS[algo], small_graph, config)
    assert vec.extra.get("vectorized") is True
    assert vec.mode == "nondeterministic"
    assert_bit_identical(obj, vec)


@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
def test_equivalence_selfloops_and_parallel_edges(loopy_graph, algo):
    for seed in (0, 1):
        config = EngineConfig(threads=3, seed=seed, jitter=0.5)
        obj, vec = run_pair(ALGORITHMS[algo], loopy_graph, config)
        assert_bit_identical(obj, vec)


@pytest.mark.parametrize(
    "threads", [1, 2, 64]  # 64 > |V| of the rmat-4 graph: idle threads
)
def test_equivalence_thread_extremes(threads):
    graph = generators.rmat(4, 8.0, seed=5)
    config = EngineConfig(threads=threads, seed=1, jitter=0.5)
    obj, vec = run_pair(WeaklyConnectedComponents, graph, config)
    assert_bit_identical(obj, vec)


@pytest.mark.parametrize(
    "delay_model",
    [
        DelayModel.numa(2, intra=2.0, inter=8.0),
        DelayModel.distributed(4, intra=2.0, network=64.0),
    ],
)
def test_equivalence_nonuniform_delays(small_graph, delay_model):
    config = EngineConfig(threads=8, seed=2, jitter=0.5, delay_model=delay_model)
    obj, vec = run_pair(lambda: SSSP(source=0), small_graph, config)
    assert_bit_identical(obj, vec)


def test_equivalence_frontier_trajectory(small_graph):
    """The per-iteration frontier sets handed to observers are identical."""
    traces = []
    for kwargs in ({}, {"vectorized": "require"}):
        seen = []
        run(
            WeaklyConnectedComponents(),
            small_graph,
            mode="nondeterministic",
            config=EngineConfig(threads=4, seed=3, jitter=0.5),
            observer=lambda it, state, nxt: seen.append((it, sorted(nxt))),
            **kwargs,
        )
        traces.append(seen)
    assert traces[0] == traces[1]


def test_prioritized_program_inherits_kernel(small_graph):
    """PrioritizedSSSP overrides only ``priority`` (a pure-async hook), so
    it resolves SSSP's kernel and matches the object engine exactly."""
    assert resolve_nondet_kernel(PrioritizedSSSP(source=0)) is not None
    config = EngineConfig(threads=4, seed=0, jitter=0.5)
    obj, vec = run_pair(lambda: PrioritizedSSSP(source=0), small_graph, config)
    assert_bit_identical(obj, vec)


# ---------------------------------------------------------------------------
# Property-based: arbitrary small graphs and configurations.
# ---------------------------------------------------------------------------


@st.composite
def graph_and_config(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=1, max_value=40))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    graph = DiGraph(n, [u for u, _ in edges], [v for _, v in edges])
    config = EngineConfig(
        threads=draw(st.integers(1, 6)),
        delay=float(draw(st.integers(1, 4))),
        jitter=draw(st.sampled_from([0.0, 0.3, 0.9])),
        dispatch=draw(st.sampled_from(list(DispatchPolicy))),
        seed=draw(st.integers(0, 1_000)),
    )
    return graph, config


HYPOTHESIS_COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(graph_and_config(), st.sampled_from(sorted(ALGORITHMS)))
@settings(**HYPOTHESIS_COMMON)
def test_equivalence_property(data, algo):
    graph, config = data
    obj, vec = run_pair(ALGORITHMS[algo], graph, config)
    assert_bit_identical(obj, vec)


# ---------------------------------------------------------------------------
# Building blocks: plan arrays and pairwise delays.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("policy", [DispatchPolicy.BLOCK, DispatchPolicy.ROUND_ROBIN])
@pytest.mark.parametrize("k,p", [(0, 4), (1, 4), (7, 3), (12, 4), (5, 8)])
def test_plan_arrays_matches_make_plan(policy, k, p):
    active = np.arange(10, 10 + k, dtype=np.int64)
    for jitter, seed in ((0.0, 0), (0.9, 7)):
        rng_a = np.random.default_rng(seed)
        rng_b = np.random.default_rng(seed)
        plan = make_plan(active, p, policy=policy, jitter=jitter, rng=rng_a)
        thread, pi, time = plan_arrays(active, p, policy=policy, jitter=jitter, rng=rng_b)
        for i, vid in enumerate(active.tolist()):
            slot = plan.slots[vid]
            assert slot.thread == thread[i]
            assert slot.pi == pi[i]
            assert slot.time == time[i]  # bit-equal, incl. the jitter draw
        # Both consumed the same number of stream draws.
        assert rng_a.uniform() == rng_b.uniform()


def test_delay_model_delays_array():
    dm = DelayModel.numa(2, intra=2.0, inter=8.0)
    a = np.array([0, 0, 2, 3])
    b = np.array([1, 2, 3, 3])
    # threads 0,1 share group 0; threads 2,3 share group 1.
    assert dm.delays(a, b).tolist() == [2.0, 8.0, 2.0, 2.0]
    assert not dm.is_uniform
    uni = DelayModel.uniform(3.0)
    assert uni.is_uniform
    assert uni.delays(a, b).tolist() == [3.0] * 4
    for x, y in zip(a.tolist(), b.tolist()):
        assert dm.delay(x, y) == dm.delays(np.array([x]), np.array([y]))[0]


# ---------------------------------------------------------------------------
# Eligibility and fallback.
# ---------------------------------------------------------------------------


def test_fallback_reasons_enumerates_blockers():
    prog = WeaklyConnectedComponents()
    assert fallback_reasons(prog, EngineConfig()) == []
    assert fallback_reasons(prog, EngineConfig(atomicity=AtomicityPolicy.NONE))
    assert fallback_reasons(prog, EngineConfig(fp_noise=True)) == []  # replayed
    assert fallback_reasons(prog, EngineConfig(validate_scope=True))
    assert fallback_reasons(prog, EngineConfig(keep_conflict_events=True))
    assert fallback_reasons(MaxLabelPropagation(), EngineConfig())  # no kernel


def test_unregistered_update_override_falls_back(small_graph):
    class TweakedWCC(WeaklyConnectedComponents):
        def update(self, ctx):  # semantics unchanged, identity changed
            return super().update(ctx)

    assert resolve_nondet_kernel(TweakedWCC()) is None
    config = EngineConfig(threads=4, seed=0)
    # Silent fallback still runs — and equals the object engine.
    res = run(TweakedWCC(), small_graph, mode="nondeterministic", config=config, vectorized=True)
    ref = run(TweakedWCC(), small_graph, mode="nondeterministic", config=config)
    assert_bit_identical(ref, res)
    with pytest.raises(ValueError, match="not eligible"):
        run(
            TweakedWCC(),
            small_graph,
            mode="nondeterministic",
            config=config,
            vectorized="require",
        )


def test_silent_fallback_on_ineligible_config(small_graph):
    config = EngineConfig(threads=4, seed=0, keep_conflict_events=True)
    res = run(
        WeaklyConnectedComponents(),
        small_graph,
        mode="nondeterministic",
        config=config,
        vectorized=True,
    )
    ref = run(WeaklyConnectedComponents(), small_graph, mode="nondeterministic", config=config)
    assert res.extra.get("vectorized") is None
    assert_bit_identical(ref, res)


def test_vectorized_requires_nondeterministic_mode(small_graph):
    # sync and deterministic have array plans too (tests/test_paper_path.py).
    with pytest.raises(ValueError, match="nondeterministic"):
        run(WeaklyConnectedComponents(), small_graph, mode="pure-async",
            vectorized=True)


def test_vectorized_rejects_unknown_string(small_graph):
    with pytest.raises(ValueError, match="not understood"):
        run(
            WeaklyConnectedComponents(),
            small_graph,
            mode="nondeterministic",
            vectorized="requre",
        )


def test_direct_engine_rejects_ineligible(small_graph):
    config = EngineConfig(atomicity=AtomicityPolicy.NONE)
    with pytest.raises(ValueError):
        VectorizedNondetEngine().run(WeaklyConnectedComponents(), small_graph, config)


def test_conflict_totals_independent_of_event_retention(small_graph):
    """S6 guard: dropping per-event tuples must not change any counter."""
    for keep in (False, True):
        cfgs = [
            EngineConfig(threads=4, seed=1, jitter=0.5, keep_conflict_events=k)
            for k in (keep, not keep)
        ]
        a = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic", config=cfgs[0])
        b = run(PageRank(epsilon=1e-3), small_graph, mode="nondeterministic", config=cfgs[1])
        assert a.conflicts.summary() == b.conflicts.summary()
        assert dict(a.conflicts.per_iteration) == dict(b.conflicts.per_iteration)
        assert np.array_equal(a.result(), b.result())


def test_fixpoint_pass_count_reported(small_graph):
    vec = run(
        WeaklyConnectedComponents(),
        small_graph,
        mode="nondeterministic",
        config=EngineConfig(threads=4, seed=0, jitter=0.5),
        vectorized="require",
    )
    assert vec.extra["fixpoint_passes"] >= vec.num_iterations


def test_resume_from_state_matches(small_graph):
    """state= resume (convergence-chain style) is honoured by the fast path."""
    config = EngineConfig(threads=4, seed=4, jitter=0.5)
    first = run(
        WeaklyConnectedComponents(),
        small_graph,
        mode="nondeterministic",
        config=EngineConfig(threads=4, seed=4, jitter=0.5, max_iterations=2),
    )
    obj = run(
        WeaklyConnectedComponents(),
        small_graph,
        mode="nondeterministic",
        config=config,
        state=first.state.copy(),
    )
    vec = run(
        WeaklyConnectedComponents(),
        small_graph,
        mode="nondeterministic",
        config=config,
        state=first.state.copy(),
        vectorized="require",
    )
    assert_bit_identical(obj, vec)
