"""Unit tests for GraphBuilder."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder
from repro.graph.builder import _unique_pairs


class TestAdd:
    def test_add_edge_chaining(self):
        g = GraphBuilder().add_edge(0, 1).add_edge(1, 2).build()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_add_undirected_creates_both_directions(self):
        g = GraphBuilder().add_undirected_edge(0, 1).build()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_add_undirected_self_loop_once(self):
        g = GraphBuilder().add_undirected_edge(2, 2).build()
        assert g.num_edges == 1

    def test_add_edges_iterable(self):
        g = GraphBuilder().add_edges([(0, 1), (1, 2), (2, 0)]).build()
        assert g.num_edges == 3

    def test_add_edge_arrays(self):
        g = GraphBuilder().add_edge_arrays([0, 1], [1, 2]).build()
        assert g.num_edges == 2

    def test_pending_count(self):
        b = GraphBuilder().add_edge(0, 1).add_edge(0, 1)
        assert b.num_pending_edges == 2

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GraphBuilder().add_edge(-1, 0)

    def test_fixed_range_enforced(self):
        b = GraphBuilder(num_vertices=3)
        with pytest.raises(ValueError, match="fixed range"):
            b.add_edge(0, 3)

    def test_fixed_range_enforced_for_arrays(self):
        b = GraphBuilder(num_vertices=3)
        with pytest.raises(ValueError, match="fixed range"):
            b.add_edge_arrays([0, 1], [1, 5])

    def test_array_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal-length"):
            GraphBuilder().add_edge_arrays([0, 1], [1])

    def test_negative_fixed_size(self):
        with pytest.raises(ValueError):
            GraphBuilder(num_vertices=-2)


class TestBuild:
    def test_inferred_vertex_count(self):
        g = GraphBuilder().add_edge(3, 7).build()
        assert g.num_vertices == 8

    def test_fixed_vertex_count(self):
        g = GraphBuilder(num_vertices=10).add_edge(0, 1).build()
        assert g.num_vertices == 10

    def test_empty_build(self):
        g = GraphBuilder().build()
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_dedup(self):
        g = GraphBuilder().add_edges([(0, 1), (0, 1), (1, 0)]).build(dedup=True)
        assert g.num_edges == 2

    def test_drop_self_loops(self):
        g = GraphBuilder().add_edges([(0, 0), (0, 1), (1, 1)]).build(drop_self_loops=True)
        assert g.num_edges == 1
        assert g.has_edge(0, 1)

    def test_relabel_compacts_ids(self):
        g = GraphBuilder().add_edges([(10, 20), (20, 30)]).build(relabel=True)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(1, 2)

    def test_relabel_conflicts_with_fixed_n(self):
        b = GraphBuilder(num_vertices=50).add_edge(10, 20)
        with pytest.raises(ValueError, match="relabel"):
            b.build(relabel=True)

    def test_build_relabeled_mapping(self):
        g, mapping = GraphBuilder().add_edges([(5, 9), (9, 100)]).build_relabeled()
        assert mapping == {5: 0, 9: 1, 100: 2}
        assert g.num_vertices == 3
        assert g.has_edge(mapping[5], mapping[9])

    def test_build_relabeled_with_dedup_and_loops(self):
        g, mapping = GraphBuilder().add_edges(
            [(4, 4), (4, 8), (4, 8)]
        ).build_relabeled(dedup=True, drop_self_loops=True)
        assert g.num_edges == 1
        assert set(mapping) == {4, 8}

    def test_builder_reusable_after_build(self):
        b = GraphBuilder().add_edge(0, 1)
        g1 = b.build()
        b.add_edge(1, 2)
        g2 = b.build()
        assert g1.num_edges == 1
        assert g2.num_edges == 2


class TestDedupKeys:
    """Deduplication sorts one scalar key per pair; it must give what
    the row-wise ``np.unique(..., axis=0)`` gives."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=60))
    @example([(3, 3), (3, 3), (0, 0)])
    @example([(0, 7), (7, 0), (0, 7)])
    def test_matches_row_unique(self, pairs):
        src, dst = (np.array(c, dtype=np.int64) for c in zip(*pairs))
        want = np.unique(np.stack([src, dst], 1), axis=0)
        got_src, got_dst = _unique_pairs(src, dst)
        assert got_src.dtype == got_dst.dtype == np.int64
        assert np.array_equal(np.stack([got_src, got_dst], 1), want)
        g = GraphBuilder().add_edge_arrays(src, dst).build(dedup=True)
        assert g.num_edges == want.shape[0]

    def test_key_overflow_refused(self):
        big = np.array([2**32], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            _unique_pairs(big, np.zeros(1, dtype=np.int64))
        src, dst = _unique_pairs(np.array([3_037_000_498]),
                                 np.array([0]))
        assert (src.tolist(), dst.tolist()) == ([3_037_000_498], [0])
