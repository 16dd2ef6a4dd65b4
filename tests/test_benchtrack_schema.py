"""Benchmark-trajectory schema v2: one file, one entry shape.

v2 entries carry a ``phases`` breakdown per timed cell; a file whose
header is anything else is refused, never silently mixed into.
"""

import json

import pytest

from repro.experiments.benchtrack import (
    SCHEMA,
    append_trajectory,
    run_nondet_suite,
)


def _v1_payload():
    return {
        "schema": "bench-trajectory/v1",
        "entries": [{
            "timestamp": "2026-07-01T00:00:00+00:00",
            "host": {"cpus": 8},
            "results": {"scales": {"8": {"algorithms": {
                "wcc": {"vectorized": {"seconds": 0.5, "iterations": 3}},
            }}}},
        }],
    }


def _entry():
    return {"results": {"scales": {}}}


class TestSchemaSkew:
    def test_fresh_file_gets_v2_header(self, tmp_path):
        path = tmp_path / "BENCH.json"
        payload = append_trajectory(path, _entry())
        assert payload["schema"] == SCHEMA
        assert json.loads(path.read_text())["schema"] == SCHEMA

    def test_v1_append_refused_by_default(self, tmp_path):
        path = tmp_path / "BENCH.json"
        path.write_text(json.dumps(_v1_payload()))
        with pytest.raises(ValueError, match="not a bench-trajectory/v2"):
            append_trajectory(path, _entry())
        # Refusal is side-effect free: the file is untouched.
        assert json.loads(path.read_text()) == _v1_payload()

    def test_v2_appends_stay_unflagged(self, tmp_path):
        path = tmp_path / "BENCH.json"
        append_trajectory(path, _entry())
        payload = append_trajectory(path, _entry())
        assert payload["schema"] == SCHEMA
        assert len(payload["entries"]) == 2


class TestPhasesInEntries:
    def test_timed_cells_carry_phase_breakdown(self):
        results = run_nondet_suite(scales=(4,), object_max_scale=4)
        cell = results["scales"]["4"]["algorithms"]["wcc"]
        for kind in ("vectorized", "object"):
            phases = cell[kind]["phases"]
            assert phases, f"{kind} cell has no phases"
            assert all(v >= 0.0 for v in phases.values())
            assert "gather" in phases
            # The breakdown accounts for (most of) the measured time.
            assert sum(phases.values()) <= cell[kind]["seconds"] * 1.1 + 1e-3


def test_checked_in_trajectories_are_v2():
    """The repo's own BENCH files were migrated with entries intact."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("BENCH_nondet.json", "BENCH_parallel.json",
                 "BENCH_incremental.json"):
        payload = json.loads((root / name).read_text())
        assert payload["schema"] == SCHEMA
        assert payload["entries"], name
