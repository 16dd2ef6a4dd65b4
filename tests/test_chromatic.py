"""Tests for greedy coloring and the chromatic deterministic-parallel engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, PageRank, SSSP, WeaklyConnectedComponents, reference
from repro.engine import DispatchPolicy, EngineConfig, run
from repro.graph import DiGraph, color_classes, generators, greedy_coloring, is_valid_coloring
from repro.perf import estimate_time


class TestGreedyColoring:
    def test_triangle_needs_three(self):
        g = DiGraph(3, [0, 1, 2], [1, 2, 0])
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)
        assert int(colors.max()) + 1 == 3

    def test_path_needs_two(self):
        g = generators.path_graph(10)
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)
        assert int(colors.max()) + 1 == 2

    def test_star_needs_two(self, star6):
        colors = greedy_coloring(star6)
        assert is_valid_coloring(star6, colors)
        assert int(colors.max()) + 1 == 2

    def test_greedy_bound(self):
        g = generators.rmat(8, 6.0, seed=4)
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)
        max_deg = max(g.degree(v) for v in range(g.num_vertices))
        assert int(colors.max()) + 1 <= max_deg + 1

    def test_random_order_variant(self):
        g = generators.rmat(7, 5.0, seed=1)
        colors = greedy_coloring(g, seed=9)
        assert is_valid_coloring(g, colors)

    def test_explicit_order(self):
        g = generators.path_graph(4)
        colors = greedy_coloring(g, order=np.array([3, 2, 1, 0]))
        assert is_valid_coloring(g, colors)

    def test_order_and_seed_exclusive(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError, match="not both"):
            greedy_coloring(g, order=np.arange(4), seed=1)

    def test_bad_order_rejected(self):
        g = generators.path_graph(4)
        with pytest.raises(ValueError, match="permutation"):
            greedy_coloring(g, order=np.array([0, 0, 1, 2]))

    def test_self_loops_ignored_by_validity(self):
        g = DiGraph(2, [0, 0], [0, 1])
        colors = greedy_coloring(g)
        assert is_valid_coloring(g, colors)

    def test_color_classes_partition(self):
        g = generators.rmat(7, 5.0, seed=2)
        colors = greedy_coloring(g)
        classes = color_classes(colors)
        all_vertices = sorted(v for cls in classes for v in cls.tolist())
        assert all_vertices == list(range(g.num_vertices))

    def test_empty_graph(self):
        g = DiGraph(0, [], [])
        assert greedy_coloring(g).size == 0
        assert color_classes(np.array([])) == []

    @given(st.integers(2, 20), st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_always_valid_on_random_graphs(self, n, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 3 * n))
        g = DiGraph(n, rng.integers(0, n, m), rng.integers(0, n, m))
        assert is_valid_coloring(g, greedy_coloring(g))


class TestChromaticEngine:
    @pytest.mark.parametrize("factory,checker", [
        (WeaklyConnectedComponents, lambda g, r: np.array_equal(r, reference.wcc_reference(g))),
        (lambda: BFS(source=0), lambda g, r: np.array_equal(r, reference.bfs_reference(g, 0))),
    ], ids=["wcc", "bfs"])
    def test_exact_results(self, rmat_small, factory, checker):
        res = run(factory(), rmat_small, mode="chromatic", threads=4)
        assert res.converged
        assert checker(rmat_small, res.result())

    def test_sssp_exact(self, rmat_small):
        prog = SSSP(source=0)
        truth = reference.sssp_reference(rmat_small, 0, prog.make_weights(rmat_small))
        res = run(SSSP(source=0), rmat_small, mode="chromatic", threads=4)
        assert np.array_equal(res.result(), truth)

    def test_deterministic_and_parallel(self, rmat_small):
        a = run(WeaklyConnectedComponents(), rmat_small, mode="chromatic", threads=4)
        b = run(WeaklyConnectedComponents(), rmat_small, mode="chromatic", threads=16)
        # results identical at any thread count (deterministic), zero conflicts
        assert np.array_equal(a.result(), b.result())
        assert a.conflicts.total == 0 and b.conflicts.total == 0

    @pytest.mark.parametrize("vectorized", [False, "require"])
    def test_threads_follow_the_dispatch_policy(self, rmat_small, vectorized):
        """The threads only attribute work: the policy moves the
        per-thread stats, never the state."""
        runs = [run(PageRank(epsilon=1e-3), rmat_small, mode="chromatic",
                    threads=4, dispatch=policy, vectorized=vectorized)
                for policy in DispatchPolicy]
        assert runs[0].result().tobytes() == runs[1].result().tobytes()
        assert runs[0].iterations != runs[1].iterations

    def test_num_colors_reported(self, rmat_small):
        res = run(WeaklyConnectedComponents(), rmat_small, mode="chromatic")
        assert res.extra["num_colors"] >= 2

    def test_pagerank_converges(self, rmat_small):
        res = run(PageRank(epsilon=1e-4), rmat_small, mode="chromatic", threads=4)
        assert res.converged
        ref = reference.pagerank_reference(rmat_small)
        assert np.max(np.abs(res.result().astype(np.float64) - ref)) < 0.05

    def test_iterations_close_to_gauss_seidel(self, rmat_small):
        """Chromatic is asynchronous: same ballpark as the sequential sweep."""
        gs = run(WeaklyConnectedComponents(), rmat_small, mode="deterministic")
        ch = run(WeaklyConnectedComponents(), rmat_small, mode="chromatic")
        assert ch.num_iterations <= 3 * gs.num_iterations

    def test_cost_ordering_de_chromatic_ne(self):
        """§VI's story: deterministic parallel beats deterministic
        sequential; nondeterministic beats both (no barriers per color,
        no coloring overhead)."""
        from repro.graph import load_dataset

        g = load_dataset("web-google-mini", scale=9, seed=7)
        de = estimate_time(run(WeaklyConnectedComponents(), g, mode="deterministic"))
        ch = estimate_time(run(WeaklyConnectedComponents(), g, mode="chromatic",
                               config=EngineConfig(threads=8)))
        ne = estimate_time(run(WeaklyConnectedComponents(), g, mode="nondeterministic",
                               config=EngineConfig(threads=8, seed=0)))
        assert ne < ch < de
