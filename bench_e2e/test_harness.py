"""Self-test of the benchmark harness: ``pytest bench_e2e -q``.

Not part of tier-1 (``testpaths = ["tests"]``).  Runs ``--quick`` sizes
of the real workloads through the real command, so it needs ~1.5 min.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

from bench_e2e.catalog import EXACT_COUNTS, PER_LAYER_UNITS, load_benchmark
from bench_e2e.spans import tree_problems

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = load_benchmark()
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: Named by the issue: repeat exactly per seed, differ between seeds.
SEEDED_COUNTS = ("engine.iterations", "engine.updates", "engine.conflicts_rw",
                 "engine.conflicts_ww", "engine.stale_reads",
                 "engine.lost_writes", "storage.interval_loads")


def bench(tmp_path, *args):
    """``run.py --quick`` with ``args``; (process, result document)."""
    out = tmp_path / f"result-{time.monotonic_ns()}.json"
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=300)
    return process, json.loads(out.read_text())


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Every workload, untraced then traced, at seed 3."""
    started = time.monotonic()
    process, document = bench(tmp_path_factory.mktemp("sweep"), "--traced")
    return process, document, time.monotonic() - started


def test_quick_sweep_is_correct_and_short(sweep):
    process, document, elapsed = sweep
    assert process.returncode == 0, process.stdout[-2000:] + process.stderr[-2000:]
    assert elapsed < 60, f"quick sweep took {elapsed:.1f} s"
    assert list(document["workloads"]) == WORKLOADS
    for key in ("cpus", "effective_cpus", "platform", "python", "numpy"):
        assert document["host"][key]
    for name, runs in document["workloads"].items():
        for run in runs.values():
            assert run["failed"] == 0 and run["failed_share"] == 0, run["failures"]
            assert run["attempted"] >= 1
            assert len(run["calibration_s"]) == 2


def test_every_named_metric_is_emitted_with_its_unit(sweep):
    _process, document, _elapsed = sweep
    for name, runs in document["workloads"].items():
        end_to_end = runs["untraced"]["end_to_end"]
        for spec in BENCH["end_to_end"]:
            metric = end_to_end[spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert metric["value"] > 0 and metric["n"] >= 1, (name, spec)
        per_layer = runs["traced"]["per_layer"]
        assert set(per_layer) == set(PER_LAYER_UNITS)
        for spec in BENCH["per_layer"]:
            assert per_layer[spec["name"]]["unit"] == spec["unit"]
            assert PER_LAYER_UNITS[spec["name"]] == spec["unit"]
        # Tracked time metrics must be measured on every workload: the
        # driver rejects a time that reads the same on every run.
        for spec in BENCH["per_layer"]:
            if spec["unit"] in ("s", "ms"):
                assert per_layer[spec["name"]]["value"], (name, spec["name"])


def test_contract_lines(sweep):
    """One JSON line per run: end-to-end metrics untraced, the tracked
    per-layer metrics traced, all numbers."""
    process, _document, _elapsed = sweep
    lines = [json.loads(line) for line in process.stdout.splitlines()
             if line.startswith("{")]
    assert len(lines) == 2 * len(WORKLOADS)
    assert process.stdout.rstrip().splitlines()[-1].startswith("{")
    for i, line in enumerate(lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        specs = BENCH["per_layer"] if i % 2 else BENCH["end_to_end"]
        assert list(line["metrics"]) == [s["name"] for s in specs]
        for spec in specs:
            metric = line["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"]
            assert isinstance(metric["value"], (int, float))


def test_layers_a_workload_bypasses_read_null(sweep):
    _process, document, _elapsed = sweep

    def value(workload, metric):
        return document["workloads"][workload]["traced"]["per_layer"][metric]["value"]

    for workload in ("delta_mutations", "paper_artifacts"):
        assert not value(workload, "engine.phase.repair_pass_s")
    assert value("fixpoint_dense", "engine.phase.repair_pass_s") > 0
    for phase in ("barrier_wait", "shard_io", "shm_sync"):
        assert not value("fixpoint_dense", f"engine.phase.{phase}_s")
        assert value("residency_process", f"engine.phase.{phase}_s") > 0
    assert value("fixpoint_dense", "service.submit_p50_s") is None
    assert value("service_jobs", "service.engine_wall_p50_s") < \
        document["workloads"]["service_jobs"]["untraced"]["end_to_end"][
            "job_latency_p50_s"]["value"]


def test_span_trees_are_well_formed(sweep):
    _process, document, _elapsed = sweep
    for name, runs in document["workloads"].items():
        with open(runs["traced"]["spans_file"], encoding="utf-8") as fh:
            spans = [json.loads(line) for line in fh]
        assert tree_problems(spans) == [], name
        names = {s["name"] for s in spans}
        assert {"workload", "setup", "warmup", "pass", "verify", "probe"} <= names
        roots = [s for s in spans if s["parent"] is None]
        assert roots[0]["name"] == "workload"
        if name == "service_jobs":  # one more tree per client and pass
            assert len(roots) > 1
            assert {"service.job", "service.submit", "service.wait",
                    "service.result"} <= names
        else:
            assert len(roots) == 1
        assert set(runs["traced"]["span_self_s"]) == names


def test_tree_problems_detects_malformed_trees():
    spans = [
        {"id": 0, "name": "root", "start": 0.0, "end": 1.0, "parent": None, "run_id": "r"},
        {"id": 1, "name": "child", "start": 0.5, "end": 1.5, "parent": 0, "run_id": "r"},
        {"id": 2, "name": "other", "start": 0.0, "end": 1.0, "parent": None, "run_id": "r"},
    ]
    assert any("2 roots" in p for p in tree_problems(spans))
    assert any("not inside" in p for p in tree_problems(spans[:2]))
    overlapping = [spans[0],
                   {**spans[1], "start": 0.0, "end": 0.8},
                   {**spans[1], "id": 2, "start": 0.2, "end": 1.0}]
    assert any("self time" in p for p in tree_problems(overlapping))


def counts(document, workload, names=EXACT_COUNTS):
    per_layer = document["workloads"][workload]["traced"]["per_layer"]
    return {name: per_layer[name]["value"] for name in names}


def test_exact_counts_repeat_per_seed_and_differ_between_seeds(sweep, tmp_path):
    _process, first, _elapsed = sweep
    chosen = ("fixpoint_dense", "residency_process")
    args = [a for w in chosen for a in ("--workload", w)] + ["--trace", "1"]
    _process, again = bench(tmp_path, *args)
    _process, other = bench(tmp_path, *args, "--seed", "4")
    for workload in chosen:
        assert counts(again, workload) == counts(first, workload)
        assert counts(other, workload, SEEDED_COUNTS) != \
            counts(first, workload, SEEDED_COUNTS)
        assert other["workloads"][workload]["traced"]["failed"] == 0
    assert counts(first, "residency_process")["storage.interval_loads"] > 0


def test_corrupted_digest_fails_the_run(tmp_path):
    process, document = bench(tmp_path, "--workload", "residency_process",
                              "--inject-failure")
    run = document["workloads"]["residency_process"]["untraced"]
    assert process.returncode != 0
    assert run["failed"] == 1 and run["failed_share"] > 0
    assert "corrupted" in run["failures"][0]
    line = json.loads(process.stdout.rstrip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
