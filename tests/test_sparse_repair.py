"""Dirty-proportional stale-read repair: the slice path changes no bit.

A repair pass whose dirty set passes the engine's Beamer test
(``mass * direction_alpha < m``) runs on the dirty vertices' CSR/CSC
edge slices and re-detects only the slots that pass can have changed;
otherwise it runs densely.  Which path a pass takes is a pure cost
decision, so forcing every pass onto the slice path
(``direction_alpha=1e-9``), forcing every pass onto the dense path
(``1e18``) and the default must produce the same run bit for bit — in
both directions and on both array backends.  The kernel-level property
underneath: ``run_slice_pass(ids, es, ed)`` writes exactly the slots,
with exactly the values, that ``run_pass(mask_of(ids))`` writes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, SSSP, PageRank, SpMV, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.engine.nondet_parallel import ParallelEngine
from repro.engine.nondet_vectorized import (
    NondetPassContext,
    resolve_nondet_kernel,
)
from repro.graph import DiGraph, generators
from repro.obs import Recorder, Telemetry, phase_report, phase_table

from .test_nondet_vectorized import assert_bit_identical

KERNELS = {
    "wcc": WeaklyConnectedComponents,
    "sssp": lambda: SSSP(source=0),
    "bfs": lambda: BFS(source=0),
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "spmv": SpMV,
}
PULL_ONLY = {"pagerank", "spmv"}

GRAPHS = {
    "grid": lambda: generators.grid_graph(7, 7),
    # R-MAT keeping its self-loops and parallel edges.
    "rmat": lambda: generators.rmat(6, 8.0, seed=3, dedup=False,
                                    drop_self_loops=False),
    "star": lambda: generators.star_graph(24),
    "path": lambda: generators.path_graph(24),
}

ALPHAS = {"slice": 1e-9, "dense": 1e18,
          "default": EngineConfig().direction_alpha}


def event_bytes(recorder: Recorder) -> bytes:
    return json.dumps(recorder.events, sort_keys=True).encode()


def assert_same_run(ref, ref_rec, res, rec):
    assert_bit_identical(ref, res)
    assert res.extra["fixpoint_passes"] == ref.extra["fixpoint_passes"]
    assert event_bytes(rec) == event_bytes(ref_rec)


def directions_for(algo):
    return ("pull", "auto") if algo in PULL_ONLY else ("pull", "push", "auto")


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algo", sorted(KERNELS))
def test_vectorized_slice_dense_default_agree(algo, graph_name):
    graph = GRAPHS[graph_name]()
    repair_passes = 0
    for seed in (0, 3):
        for direction in directions_for(algo):
            runs = {}
            for label, alpha in ALPHAS.items():
                config = EngineConfig(threads=4, seed=seed, jitter=0.5,
                                      direction_alpha=alpha)
                rec = Recorder()
                runs[label] = (
                    run(KERNELS[algo](), graph, mode="nondeterministic",
                        config=config, vectorized="require",
                        direction=direction, record=rec),
                    rec,
                )
            dense, dense_rec = runs["dense"]
            for label in ("slice", "default"):
                assert_same_run(dense, dense_rec, *runs[label])
            # The two forced runs really took different paths: every
            # repair pass (all passes but each iteration's first) sliced
            # under 1e-9, none under 1e18.
            repairs = dense.extra["fixpoint_passes"] - dense.num_iterations
            assert runs["slice"][0].extra["repair_slice_passes"] == repairs
            assert dense.extra["repair_slice_passes"] == 0
            repair_passes += repairs
    if graph_name in ("grid", "rmat"):
        assert repair_passes > 0, "expected stale-read repairs to compare"


@pytest.mark.parallel_backend
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("algo", sorted(KERNELS))
def test_process_backend_slice_dense_default_agree(algo, graph_name, workers):
    """A worker's per-pass choice is as invisible as the engine's, and
    the process backend still equals the single-process engine."""
    graph = GRAPHS[graph_name]()
    engine = ParallelEngine()
    try:
        for seed in (0, 3):
            for direction in directions_for(algo):
                base = EngineConfig(threads=workers, seed=seed, jitter=0.5)
                vec_rec = Recorder()
                vec = run(KERNELS[algo](), graph, mode="nondeterministic",
                          config=base, vectorized="require",
                          direction=direction, record=vec_rec)
                for alpha in ALPHAS.values():
                    config = EngineConfig(threads=workers, seed=seed,
                                          jitter=0.5, direction_alpha=alpha)
                    rec = Recorder()
                    res = engine.run(KERNELS[algo](), graph, config,
                                     direction=direction, record=rec)
                    assert_same_run(vec, vec_rec, res, rec)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# kernel property: slice pass == dense pass, slot for slot
# ---------------------------------------------------------------------------

@st.composite
def multigraphs(draw):
    """Small random multigraphs: self-loops and parallel edges allowed."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=0, max_size=24))
    src = np.array([e[0] for e in edges], dtype=np.int64)
    dst = np.array([e[1] for e in edges], dtype=np.int64)
    return DiGraph(n, src, dst)


def filled_context(kernel, program, graph, rng, fill):
    """A pass context with random inputs and ``fill``-patterned outputs.

    Inputs (pre-iteration vertex values, committed and seen edge values)
    depend only on ``rng``'s stream; every output slot starts at a
    sentinel chosen by ``fill`` so a slot one pass writes and the other
    leaves alone shows up under at least one of two fills.
    """
    state = program.make_state(graph)
    n, m = graph.num_vertices, graph.num_edges
    for f in state.vertex_field_names:
        arr = state.vertex(f)
        arr[:] = rng.integers(0, 6, n).astype(arr.dtype)
    for f in kernel.written_fields:
        arr = state.edge(f)
        arr[:] = rng.integers(0, 6, m).astype(arr.dtype)
    ctx = NondetPassContext(graph, state, np.ones(n, dtype=bool),
                            kernel.written_fields)
    for f in kernel.written_fields:
        for seen in (ctx.seen_s, ctx.seen_d):
            vals = rng.uniform(0.0, 6.0, m).astype(ctx.committed[f].dtype)
            # Ties and unreached (INF) entries exercise min/isfinite paths.
            vals[rng.random(m) < 0.3] = 2.0
            vals[rng.random(m) < 0.2] = np.inf
            seen[f] = vals
    for f in kernel.written_fields:
        ctx.ws[f][:] = bool(fill)
        ctx.wd[f][:] = bool(fill)
        ctx.wvs[f][:] = -1.5 - fill
        ctx.wvd[f][:] = -1.5 - fill
    for f in state.edge_field_names:
        ctx.rs[f][:] = 7 + fill
        ctx.rd[f][:] = 7 + fill
    for f in state.vertex_field_names:
        ctx.vout[f][:] = -1.5 - fill
    return ctx


def outputs(ctx):
    out = {}
    for name in ("vout", "ws", "wvs", "wd", "wvd", "rs", "rd"):
        for f, arr in getattr(ctx, name).items():
            out[name, f] = arr
    return out


@pytest.mark.parametrize("algo", sorted(KERNELS))
@settings(max_examples=60, deadline=None)
@given(graph=multigraphs(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_slice_pass_writes_what_dense_pass_writes(algo, graph, seed, data):
    program = KERNELS[algo]()
    kernel = resolve_nondet_kernel(program)(program)
    n = graph.num_vertices
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
                    dtype=bool)
    ids = np.flatnonzero(mask)
    es, ed = graph.out_edge_ids(ids), graph.in_edge_ids(ids)
    for fill in (0, 1):
        dense = filled_context(kernel, program, graph,
                               np.random.default_rng(seed), fill)
        sliced = filled_context(kernel, program, graph,
                                np.random.default_rng(seed), fill)
        kernel.run_pass(dense, mask)
        kernel.run_slice_pass(sliced, ids, es, ed)
        got, want = outputs(sliced), outputs(dense)
        for key in want:
            # Bitwise: float sums (PageRank/SpMV) included, INF == INF.
            assert got[key].tobytes() == want[key].tobytes(), (key, fill)


# ---------------------------------------------------------------------------
# observability: repair passes x per-pass cost, and the slice share
# ---------------------------------------------------------------------------

def test_phase_report_splits_repair_pass():
    graph = generators.grid_graph(12, 12)
    tel = Telemetry()
    res = run(SSSP(source=0), graph, mode="nondeterministic",
              config=EngineConfig(threads=4, seed=1, jitter=0.5),
              vectorized="require", direction="auto", telemetry=tel)
    sliced = res.extra["repair_slice_passes"]
    assert 0 < sliced <= res.extra["fixpoint_passes"] - res.num_iterations
    assert sum(s.extra["repair_slice_passes"] for s in tel.spans) == sliced
    report = phase_report(tel.records)
    totals = report["totals"]
    assert totals["repair_passes"] == (
        res.extra["fixpoint_passes"] - res.num_iterations)
    assert totals["repair_slice_passes"] == sliced
    table = phase_table(report)
    assert f"repair: {totals['repair_passes']} passes x" in table
    assert f"; {sliced} (" in table and "took the slice path" in table
