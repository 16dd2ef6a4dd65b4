"""Micro-benchmarks of the framework's hot paths (pytest-benchmark).

These track the wall-clock cost of the substrate itself — CSR
construction, dispatch planning, the racy store, and one engine
iteration per algorithm — so substrate regressions are visible
independently of the virtual-time experiment numbers.
"""

import numpy as np
import pytest

from repro.algorithms import PageRank, SSSP, WeaklyConnectedComponents
from repro.engine import DispatchPolicy, EngineConfig, make_plan, run
from repro.graph import DiGraph, generators


@pytest.fixture(scope="module")
def medium_graph():
    return generators.rmat(10, 8.0, seed=3)


def test_csr_construction(benchmark):
    rng = np.random.default_rng(0)
    n, m = 4096, 40_000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    g = benchmark(lambda: DiGraph(n, src, dst))
    assert g.num_edges == m


def test_rmat_generation(benchmark):
    g = benchmark(lambda: generators.rmat(10, 8.0, seed=1))
    assert g.num_vertices == 1024


def test_dispatch_block(benchmark):
    active = np.arange(10_000)
    plan = benchmark(lambda: make_plan(active, 16))
    assert len(plan.slots) == 10_000


def test_dispatch_round_robin_with_jitter(benchmark):
    active = np.arange(10_000)

    def build():
        rng = np.random.default_rng(0)
        return make_plan(active, 16, policy=DispatchPolicy.ROUND_ROBIN,
                         jitter=0.5, rng=rng)

    plan = benchmark(build)
    assert len(plan.slots) == 10_000


@pytest.mark.parametrize(
    "factory,label",
    [
        (WeaklyConnectedComponents, "wcc"),
        (lambda: PageRank(epsilon=1e-2), "pagerank"),
        (lambda: SSSP(source=0), "sssp"),
    ],
    ids=["wcc", "pagerank", "sssp"],
)
def test_nondet_engine_full_run(benchmark, medium_graph, factory, label):
    def go():
        return run(factory(), medium_graph, mode="nondeterministic",
                   config=EngineConfig(threads=8, seed=0))

    result = benchmark.pedantic(go, rounds=1, iterations=1)
    assert result.converged


def test_deterministic_engine_full_run(benchmark, medium_graph):
    def go():
        return run(WeaklyConnectedComponents(), medium_graph, mode="deterministic")

    result = benchmark.pedantic(go, rounds=1, iterations=1)
    assert result.converged


def test_sync_engine_full_run(benchmark, medium_graph):
    def go():
        return run(WeaklyConnectedComponents(), medium_graph, mode="sync",
                   config=EngineConfig(threads=8))

    result = benchmark.pedantic(go, rounds=1, iterations=1)
    assert result.converged


def test_union_find_reference(benchmark, medium_graph):
    from repro.graph import weakly_connected_components

    labels = benchmark(lambda: weakly_connected_components(medium_graph))
    assert labels.shape == (medium_graph.num_vertices,)


def test_vectorized_substrate_speedup(benchmark, medium_graph):
    """E7-ish: BSP on the array path vs the object BSP engine (bit-exact)."""
    config = EngineConfig(threads=8)
    result = benchmark(lambda: run(WeaklyConnectedComponents(), medium_graph,
                                   mode="sync", vectorized="require",
                                   config=config))
    obj = run(WeaklyConnectedComponents(), medium_graph, mode="sync",
              config=config)
    assert result.result().tobytes() == obj.result().tobytes()


def test_telemetry_enabled_full_run(benchmark, medium_graph):
    """Cost of a live sink (buffered, no file I/O) on a full NE run."""
    from repro.obs import Telemetry

    def go():
        return run(PageRank(epsilon=1e-2), medium_graph, mode="nondeterministic",
                   config=EngineConfig(threads=8, seed=0), telemetry=Telemetry())

    result = benchmark.pedantic(go, rounds=1, iterations=1)
    assert result.converged


@pytest.mark.perfsmoke
def test_disabled_telemetry_overhead_floor():
    """Acceptance: telemetry=None must cost <2% on the hot path.

    The disabled path does strictly less work than an enabled sink (one
    pointer comparison per iteration vs span construction + buffering),
    so bounding disabled-vs-enabled from above bounds the disabled
    overhead too: if telemetry=None were paying anything per access it
    would show up here.  Min-of-5 timings to shed scheduler noise.
    """
    import time as _time

    from repro.obs import Telemetry

    graph = generators.rmat(10, 8.0, seed=3)

    def timed(sink_factory):
        best = float("inf")
        for _ in range(5):
            sink = sink_factory()
            t0 = _time.perf_counter()
            res = run(PageRank(epsilon=1e-2), graph, mode="nondeterministic",
                      config=EngineConfig(threads=8, seed=0), telemetry=sink)
            best = min(best, _time.perf_counter() - t0)
            assert res.converged
        return best

    timed(lambda: None)  # warmup
    t_disabled = timed(lambda: None)
    t_enabled = timed(Telemetry)
    assert t_disabled <= t_enabled * 1.10, (
        f"telemetry=None run took {t_disabled:.3f}s vs {t_enabled:.3f}s with a "
        f"live sink — the disabled path must not do per-access work"
    )


@pytest.mark.perfsmoke
def test_disabled_recorder_overhead_floor():
    """Acceptance: record=None must add no per-update cost.

    Same argument as the telemetry floor above: a disabled recorder does
    strictly less work than an enabled one (one pointer check at the
    commit barrier vs deriving full race provenance from the access
    log), so if ``record=None`` were paying anything per edge access the
    disabled time would exceed the enabled time here.  Min-of-5 timings
    to shed scheduler noise.
    """
    import time as _time

    from repro.obs import Recorder

    graph = generators.rmat(10, 8.0, seed=3)

    def timed(recorder_factory):
        best = float("inf")
        for _ in range(5):
            rec = recorder_factory()
            t0 = _time.perf_counter()
            res = run(PageRank(epsilon=1e-2), graph, mode="nondeterministic",
                      config=EngineConfig(threads=8, seed=0), record=rec)
            best = min(best, _time.perf_counter() - t0)
            assert res.converged
        return best

    timed(lambda: None)  # warmup
    t_disabled = timed(lambda: None)
    t_enabled = timed(Recorder)
    assert t_disabled <= t_enabled * 1.10, (
        f"record=None run took {t_disabled:.3f}s vs {t_enabled:.3f}s with the "
        f"flight recorder — the disabled path must not do per-update work"
    )


@pytest.mark.perfsmoke
def test_metrics_attached_overhead_floor():
    """Acceptance: an attached MetricsRegistry costs ≤ 1.05× a bare run.

    The registry records at iteration granularity only (a handful of
    counter/gauge/histogram updates per iteration, never per edge), and
    no exporter runs during the loop — so attaching one must stay in
    the noise.  Min-of-5 timings of the same run, same-process ratio;
    bare and attached runs alternate, so host drift during the test
    lands on both sides instead of on one.
    """
    import time as _time

    from repro.obs import MetricsRegistry

    graph = generators.rmat(10, 8.0, seed=3)

    def timed(metrics):
        t0 = _time.perf_counter()
        res = run(PageRank(epsilon=1e-2), graph, mode="nondeterministic",
                  config=EngineConfig(threads=8, seed=0), metrics=metrics)
        assert res.converged
        return _time.perf_counter() - t0

    timed(None)  # warmup
    pairs = [(timed(None), timed(MetricsRegistry())) for _ in range(5)]
    t_bare = min(bare for bare, _ in pairs)
    t_attached = min(attached for _, attached in pairs)
    assert t_attached <= t_bare * 1.05 + 0.010, (
        f"run with a MetricsRegistry attached took {t_attached:.3f}s vs "
        f"{t_bare:.3f}s bare — metrics recording must stay at iteration "
        f"granularity"
    )


def test_vectorized_pagerank_scale12(benchmark):
    """Large-scale BSP baseline the object engines cannot reach comfortably."""
    big = generators.rmat(12, 8.0, seed=5)

    def go():
        return run(PageRank(epsilon=1e-3), big, mode="sync",
                   vectorized="require")

    result = benchmark.pedantic(go, rounds=1, iterations=1)
    assert result.converged
