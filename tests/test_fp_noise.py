"""``fp_noise`` on the array engines, held to the object engines.

Under ``fp_noise`` the object ``update()`` draws, from the seed's
``"fp"`` sub-stream and in the plan's execution order, a permutation of
the edges it gathers and — PageRank — one ``fp_round`` nudge.  The array
engines replay those draws (``algorithms/vectorized.py``) and accumulate
each permuted in-edge segment in its drawn order.  Held here bit for bit
under all three plans (BSP, DE, NE): state, trajectory, per-thread
stats, conflicts and the stream's final position, on multigraphs with
self-loops and duplicate edges, and across a crash, a checkpoint and a
resume.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import SSSP, PageRank, SpMV, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.engine.dispatch import DispatchPolicy
from repro.graph import DiGraph, generators
from repro.robust import ConvergenceFailure, DegradationPolicy

KERNELS = {
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "spmv": SpMV,
    "wcc": WeaklyConnectedComponents,
    "sssp": lambda: SSSP(source=0),
}
MODES = ("sync", "deterministic", "chromatic", "nondeterministic")


@contextlib.contextmanager
def fp_streams():
    """Collect every ``"fp"`` generator the runs inside make."""
    made = []
    real = EngineConfig.rng

    def spy(self, stream):
        rng = real(self, stream)
        if stream == "fp":
            made.append(rng)
        return rng

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EngineConfig, "rng", spy)
        yield made


def fp_run(factory, graph, **kwargs):
    """A run, and the final state of the last ``"fp"`` stream it made."""
    with fp_streams() as made:
        res = run(factory(), graph, **kwargs)
    return res, made[-1].bit_generator.state


def assert_same_run(obj, arr):
    for f in obj.state.vertex_field_names:
        assert arr.state.vertex(f).tobytes() == obj.state.vertex(f).tobytes(), f
    for f in obj.state.edge_field_names:
        assert arr.state.edge(f).tobytes() == obj.state.edge(f).tobytes(), f
    assert (arr.converged, arr.num_iterations) == (obj.converged,
                                                   obj.num_iterations)
    assert arr.iterations == obj.iterations
    assert arr.conflicts.summary() == obj.conflicts.summary()
    assert dict(arr.conflicts.per_iteration) == dict(
        obj.conflicts.per_iteration)


@st.composite
def cases(draw):
    """A small multigraph — self-loops, duplicate edges, isolated
    vertices; vertex 0, SSSP's source, has an out-edge — and a config."""
    n = draw(st.integers(2, 12))
    edges = [(0, 1)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=36))
    edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1),
                                            max_size=3))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=6))
    graph = DiGraph(n, np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64))
    config = EngineConfig(
        threads=draw(st.integers(1, 8)),
        seed=draw(st.integers(0, 2**16)),
        jitter=draw(st.sampled_from([0.0, 0.3, 0.9])),
        dispatch=draw(st.sampled_from(list(DispatchPolicy))),
        fp_noise=True)
    return graph, config


@settings(max_examples=200, deadline=None)
@given(kernel=st.sampled_from(sorted(KERNELS)), mode=st.sampled_from(MODES),
       case=cases())
def test_array_equals_object_under_fp_noise(kernel, mode, case):
    graph, config = case
    obj, obj_fp = fp_run(KERNELS[kernel], graph, mode=mode, config=config)
    arr, arr_fp = fp_run(KERNELS[kernel], graph, mode=mode, config=config,
                         vectorized="require")
    assert arr.extra["vectorized"] is True and "vectorized" not in obj.extra
    assert_same_run(obj, arr)
    assert arr_fp == obj_fp


@pytest.mark.parametrize("mode", MODES)
def test_crash_checkpoint_resume_under_fp_noise(tmp_path, mode):
    graph = generators.rmat(7, 8.0, seed=3)
    config = EngineConfig(threads=4, seed=5, fp_noise=True)
    factory = KERNELS["pagerank"]
    obj, obj_fp = fp_run(factory, graph, mode=mode, config=config)
    assert obj.num_iterations > 3
    # The supervised retry restarts from the barrier checkpoint ...
    restarted, restarted_fp = fp_run(
        factory, graph, mode=mode, config=config, vectorized="require",
        faults="crash@2", checkpoint=str(tmp_path / "retry.ckpt"))
    assert restarted.extra["vectorized"] is True
    assert restarted.extra["faults_fired"]
    assert restarted.result().tobytes() == obj.result().tobytes()
    assert restarted.num_iterations == obj.num_iterations
    assert restarted_fp == obj_fp
    # ... and a run that gives up is resumed from its checkpoint file.
    ck = str(tmp_path / "crash.ckpt")
    with pytest.raises(ConvergenceFailure):
        run(factory(), graph, mode=mode, config=config, vectorized="require",
            faults="crash@2", checkpoint=ck,
            policy=DegradationPolicy(max_restarts=0))
    resumed, resumed_fp = fp_run(factory, graph, mode=mode,
                                 vectorized="require", resume_from=ck)
    assert resumed.extra["vectorized"] is True
    assert resumed.config.fp_noise
    for f in obj.state.vertex_field_names:
        assert resumed.state.vertex(f).tobytes() == obj.state.vertex(f).tobytes()
    for f in obj.state.edge_field_names:
        assert resumed.state.edge(f).tobytes() == obj.state.edge(f).tobytes()
    assert (resumed.converged, resumed.num_iterations) == (obj.converged,
                                                           obj.num_iterations)
    assert resumed.conflicts.summary() == obj.conflicts.summary()
    assert resumed_fp == obj_fp
