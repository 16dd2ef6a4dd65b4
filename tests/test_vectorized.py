"""BSP on the array path: ``run(mode="sync", vectorized="require")``.

The array engines' barrier plan (DESIGN §6.0) held to the object
:class:`~repro.engine.sync_engine.SynchronousEngine` on fixed stand-ins —
same iterations, same final arrays bit for bit, float32 PageRank
included — and to the reference solvers.  The generated-input property
over all five kernels is ``test_array_de_equals_object_de[sync-*]`` in
``tests/test_paper_path.py``.
"""

import time

import numpy as np
import pytest

from repro.algorithms import (
    BFS,
    SSSP,
    PageRank,
    WeaklyConnectedComponents,
    reference,
)
from repro.engine import run
from repro.graph import DiGraph, generators


GRAPHS = {
    "rmat": lambda: generators.rmat(7, 6.0, seed=2),
    "er": lambda: generators.erdos_renyi(200, 800, seed=4),
    "grid": lambda: generators.grid_graph(8, 8),
    "star": lambda: generators.star_graph(30),
    "path": lambda: generators.path_graph(20),
}


def array_sync(program, graph, **kwargs):
    res = run(program, graph, mode="sync", vectorized="require", **kwargs)
    assert res.extra["vectorized"] is True
    return res


def assert_bit_exact(factory, graph):
    rv = array_sync(factory(), graph)
    ro = run(factory(), graph, mode="sync")
    assert rv.converged and ro.converged
    assert rv.num_iterations == ro.num_iterations
    assert rv.result().tobytes() == ro.result().tobytes()
    for f in ro.state.edge_field_names:
        assert rv.state.edge(f).tobytes() == ro.state.edge(f).tobytes(), f


@pytest.mark.parametrize("graph_name", GRAPHS)
class TestBitExactEquivalence:
    def test_wcc(self, graph_name):
        assert_bit_exact(WeaklyConnectedComponents, GRAPHS[graph_name]())

    def test_sssp(self, graph_name):
        assert_bit_exact(lambda: SSSP(source=0), GRAPHS[graph_name]())

    def test_bfs(self, graph_name):
        assert_bit_exact(lambda: BFS(source=0), GRAPHS[graph_name]())

    def test_pagerank_float32_bitexact(self, graph_name):
        assert_bit_exact(lambda: PageRank(epsilon=1e-3), GRAPHS[graph_name]())


class TestVectorizedMechanics:
    def test_correct_against_references(self):
        g = generators.rmat(9, 7.0, seed=8)
        assert np.array_equal(array_sync(WeaklyConnectedComponents(), g).result(),
                              reference.wcc_reference(g))
        assert np.array_equal(array_sync(BFS(source=0), g).result(),
                              reference.bfs_reference(g, 0))
        truth = reference.sssp_reference(g, 0, SSSP(source=0).make_weights(g))
        assert np.array_equal(array_sync(SSSP(source=0), g).result(), truth)

    def test_active_history_recorded(self, rmat_small):
        res = array_sync(WeaklyConnectedComponents(), rmat_small)
        assert len(res.iterations) == res.num_iterations
        assert res.iterations[0].num_active == rmat_small.num_vertices

    def test_max_iterations_cap(self, rmat_small):
        res = array_sync(WeaklyConnectedComponents(), rmat_small,
                         max_iterations=1)
        assert not res.converged
        assert res.num_iterations == 1

    def test_empty_graph(self):
        res = array_sync(WeaklyConnectedComponents(), DiGraph(0, [], []))
        assert res.converged
        assert res.result().size == 0

    def test_explicit_weights(self):
        g = DiGraph(3, [0, 0, 1], [1, 2, 2])
        w = np.array([1.0, 10.0, 1.0])
        res = array_sync(SSSP(source=0, weights=w), g)
        assert res.result().tolist() == [0.0, 1.0, 2.0]

    def test_substrate_speedup(self):
        """The array path must actually be fast: >= 5x the object BSP
        engine (about 15x here; PageRank at rmat-12, about 50x)."""
        g = generators.rmat(11, 8.0, seed=5)
        t0 = time.perf_counter()
        rv = array_sync(WeaklyConnectedComponents(), g)
        t_vec = time.perf_counter() - t0
        t0 = time.perf_counter()
        ro = run(WeaklyConnectedComponents(), g, mode="sync")
        t_obj = time.perf_counter() - t0
        assert rv.result().tobytes() == ro.result().tobytes()
        assert t_obj > 5 * t_vec
