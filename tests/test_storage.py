"""Tests for the binary graph format and the PSW shard store."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import DiGraph, generators
from repro.storage import ShardStore, load_graph, save_graph


class TestBinaryFormat:
    def test_roundtrip_graph_only(self, tmp_path, rmat_small):
        path = tmp_path / "g.bin"
        save_graph(rmat_small, path)
        g, va, ea = load_graph(path)
        assert g == rmat_small
        assert va == {} and ea == {}

    def test_roundtrip_with_arrays(self, tmp_path):
        g = generators.path_graph(6)
        vx = np.linspace(0, 1, 6)
        ew = np.arange(g.num_edges, dtype=np.int64)
        path = tmp_path / "g.bin"
        save_graph(g, path, vertex_arrays={"vx": vx}, edge_arrays={"ew": ew})
        g2, va, ea = load_graph(path)
        assert g2 == g
        assert np.array_equal(va["vx"], vx)
        assert np.array_equal(ea["ew"], ew)
        assert ea["ew"].dtype == np.int64

    def test_empty_graph(self, tmp_path):
        g = DiGraph(3, [], [])
        path = tmp_path / "g.bin"
        save_graph(g, path)
        g2, _, _ = load_graph(path)
        assert g2 == g

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"NOTAGRAPH" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_graph(path)

    def test_truncated_rejected(self, tmp_path, rmat_small):
        path = tmp_path / "g.bin"
        save_graph(rmat_small, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_graph(path)

    def test_wrong_array_shape_rejected(self, tmp_path):
        g = generators.path_graph(4)
        with pytest.raises(ValueError, match="shape"):
            save_graph(g, tmp_path / "g.bin", vertex_arrays={"x": np.zeros(7)})


class TestShardStore:
    @given(st.integers(1, 20), st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_invariants_on_random_graphs(self, n, k, seed):
        """PSW invariants on random multigraphs (self-loops and edgeless
        graphs included), and every interval's slot ranges hold exactly
        the edges incident to its vertices."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(0, 4 * n))
        g = DiGraph(n, rng.integers(0, n, m), rng.integers(0, n, m))
        with tempfile.TemporaryDirectory() as tmp:
            store = ShardStore.build(g, os.path.join(tmp, "g.shards"), k)
            store.validate()
            eid = np.asarray(store.psw_eid)
            for j in range(store.num_intervals):
                lo, hi = store.interval(j)
                slots = [s for a, b in store.interval_ranges(j)
                         for s in range(a, b)]
                incident = {e for v in range(lo, hi)
                            for e in g.incident_eids(v).tolist()}
                assert sorted(eid[slots].tolist()) == sorted(incident)
