"""Tests for degree metrics and the report generator."""

import numpy as np
import pytest

from repro.graph import DiGraph, degree_profile, generators, gini, load_dataset, tail_ratio


class TestGini:
    def test_uniform_is_zero(self):
        assert gini(np.full(10, 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_concentrated_near_one(self):
        values = np.zeros(100)
        values[0] = 1000.0
        assert gini(values) > 0.9

    def test_empty_and_zero(self):
        assert gini(np.array([])) == 0.0
        assert gini(np.zeros(5)) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([-1.0, 2.0]))

    def test_known_value(self):
        # two values {0, x}: G = 1/2
        assert gini(np.array([0.0, 10.0])) == pytest.approx(0.5)


class TestTailRatio:
    def test_uniform(self):
        assert tail_ratio(np.full(100, 4.0)) == pytest.approx(1.0)

    def test_heavy(self):
        values = np.ones(100)
        values[:2] = 500.0
        assert tail_ratio(values) > 10

    def test_empty(self):
        assert tail_ratio(np.array([])) == 0.0


class TestDegreeProfile:
    def test_web_standin_heavy_tailed(self):
        p = degree_profile(load_dataset("web-berkstan-mini", scale=9))
        assert p.heavy_tailed
        assert p.maximum > 5 * p.mean

    def test_cage_standin_uniform(self):
        p = degree_profile(load_dataset("cage15-mini", scale=9))
        assert not p.heavy_tailed
        assert p.gini < 0.2

    def test_empty_graph(self):
        p = degree_profile(DiGraph(0, [], []))
        assert p.mean == 0.0
        assert not p.heavy_tailed

    def test_as_dict_keys(self):
        p = degree_profile(generators.path_graph(5))
        d = p.as_dict()
        assert {"mean_deg", "max_deg", "gini", "tail99/mean", "alpha"} <= set(d)


class TestReport:
    def test_generate_report_structure(self):
        from repro.experiments import generate_report

        seen = []
        text = generate_report(scale=7, runs=2, progress=seen.append)
        for heading in ("Table I", "Fig. 3", "Table II", "Table III", "Ablations"):
            assert heading in text
        assert "web-berkstan-mini" in text
        assert seen == ["Table I", "Fig. 3", "Table II", "Table III", "ablations"]

    def test_cli_report_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "r.md"
        code = main(["report", "--scale", "7", "--runs", "2", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "# Reproduction report" in out.read_text()
