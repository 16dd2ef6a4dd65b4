"""Unit tests for graph file I/O."""

import numpy as np
import pytest

from repro.graph import DiGraph, generators, io


class TestEdgelist:
    def test_roundtrip(self, tmp_path):
        g = generators.rmat(6, 4.0, seed=3)
        path = tmp_path / "g.txt"
        io.write_edgelist(g, path)
        back = io.read_edgelist(path)
        assert back == g

    def test_header_comment_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# comment\n0 1\n1 2\n")
        g = io.read_edgelist(path)
        assert g.num_edges == 2

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n1 2\n")
        assert io.read_edgelist(path).num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n42\n")
        with pytest.raises(ValueError, match="expected"):
            io.read_edgelist(path)

    def test_num_vertices_override(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        g = io.read_edgelist(path, num_vertices=10)
        assert g.num_vertices == 10

    def test_dedup_and_loops(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 0\n0 1\n0 1\n")
        g = io.read_edgelist(path, dedup=True, drop_self_loops=True)
        assert g.num_edges == 1

    def test_write_without_header(self, tmp_path):
        g = DiGraph(2, [0], [1])
        path = tmp_path / "g.txt"
        io.write_edgelist(g, path, header=False)
        assert path.read_text() == "0 1\n"


class TestSnap:
    def test_sparse_ids_compacted(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# SNAP style\n100 200\n200 5000\n")
        g, mapping = io.read_snap(path)
        assert g.num_vertices == 3
        assert mapping == {100: 0, 200: 1, 5000: 2}
        assert g.has_edge(0, 1)

    def test_dedup_default(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1 2\n1 2\n2 2\n")
        g, _ = io.read_snap(path)
        assert g.num_edges == 1  # duplicate removed, self-loop removed

    def test_huge_ids_dedup(self, tmp_path):
        # Ids far past the int64 pair-key range still load: they are
        # compacted before the duplicates are found.
        big = 2**40
        path = tmp_path / "snap.txt"
        path.write_text(f"{big} {2 * big}\n{big} {2 * big}\n"
                        f"{2 * big} 7\n{2**62} {big}\n")
        g, mapping = io.read_snap(path)
        assert mapping == {7: 0, big: 1, 2 * big: 2, 2**62: 3}
        assert sorted(zip(g.edge_src.tolist(), g.edge_dst.tolist())) == [
            (1, 2), (2, 0), (3, 1)]


class TestMatrixMarket:
    def test_roundtrip_general(self, tmp_path):
        g = generators.erdos_renyi(20, 50, seed=4)
        path = tmp_path / "m.mtx"
        io.write_matrix_market(g, path)
        back = io.read_matrix_market(path)
        assert back == g

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 2\n"
            "2 1 1.5\n"
            "3 2 0.5\n"
        )
        g = io.read_matrix_market(path)
        assert g.num_edges == 4
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_comment_lines_allowed(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "% a comment\n"
            "2 2 1\n"
            "1 2\n"
        )
        g = io.read_matrix_market(path)
        assert g.num_edges == 1

    def test_diagonal_dropped(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n1 2\n"
        )
        g = io.read_matrix_market(path)
        assert g.num_edges == 1

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("3 3 0\n")
        with pytest.raises(ValueError, match="header"):
            io.read_matrix_market(path)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 3 0\n")
        with pytest.raises(ValueError, match="square"):
            io.read_matrix_market(path)

    def test_non_coordinate_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n")
        with pytest.raises(ValueError, match="coordinate"):
            io.read_matrix_market(path)
