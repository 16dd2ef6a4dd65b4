"""Worker trace segments, the barrier-epoch merge, and phase reports.

Covers the cross-backend observability acceptance: a scale-12
``backend="process"`` run yields a merged trace whose per-iteration
phase sums match the span wall time within 5%, with per-worker
``barrier_wait`` attribution — and attaching the profiler never changes
a bit of the computation.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph import generators
from repro.obs import (
    MetricsRegistry,
    Recorder,
    Telemetry,
    lint_trace,
    merge_worker_traces,
    phase_report,
    phase_table,
    read_trace,
)
from repro.storage import ShardStore


def _profiled_run(graph, tmp_path, *, name="run", algorithm=None,
                  config=None, metrics=None, **kw):
    """Run with a streaming sink + worker segments; return (res, trace)."""
    trace = str(tmp_path / f"{name}.jsonl")
    sink = Telemetry(trace_path=trace, worker_dir=trace + ".workers")
    res = run(algorithm or WeaklyConnectedComponents(), graph,
              mode="nondeterministic",
              config=config or EngineConfig(threads=4, seed=0, jitter=0.5),
              telemetry=sink, metrics=metrics, **kw)
    return res, trace


def _no_errors(records):
    issues = [i for i in lint_trace(records) if i.severity == "error"]
    assert not issues, [str(i) for i in issues]


# ---------------------------------------------------------------------------
# Acceptance: scale-12 process backend
# ---------------------------------------------------------------------------

class TestProcessBackendAcceptance:
    @pytest.fixture(scope="class")
    def merged_setup(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("scale12")
        graph = generators.rmat(12, 8.0, seed=5)
        reg = MetricsRegistry()
        res, trace = _profiled_run(graph, tmp, backend="process",
                                   metrics=reg)
        merged_path = str(tmp / "merged.jsonl")
        merged = merge_worker_traces(trace, out_path=merged_path)
        return res, trace, merged, merged_path, reg

    def test_merged_trace_lints_clean(self, merged_setup):
        res, _, merged, merged_path, _ = merged_setup
        assert res.converged
        _no_errors(merged)
        _no_errors(read_trace(merged_path))

    def test_phase_sums_match_wall_time(self, merged_setup):
        _, _, merged, _, _ = merged_setup
        spans = [r for r in merged if r.get("type") == "iteration"]
        assert spans
        for rec in spans:
            wall = rec["wall_time_s"]
            phases = rec["extra"]["phases"]
            assert abs(sum(phases.values()) - wall) <= 0.05 * wall + 2e-3, (
                f"iteration {rec['iteration']}: phase sum "
                f"{sum(phases.values()):.6f}s vs wall {wall:.6f}s")

    def test_every_worker_reports_barrier_wait(self, merged_setup):
        res, _, merged, _, _ = merged_setup
        workers = res.extra["workers"]
        wspans = [r for r in merged if r.get("type") == "worker_span"]
        assert {r["worker"] for r in wspans} == set(range(workers))
        for r in wspans:
            assert "barrier_wait" in r["phases"]

    def test_worker_epochs_match_master(self, merged_setup):
        _, _, merged, _, _ = merged_setup
        master_epoch = {r["iteration"]: r["extra"]["barrier_epoch"]
                        for r in merged if r.get("type") == "iteration"}
        for r in merged:
            if r.get("type") == "worker_span":
                assert r["epoch"] == master_epoch[r["iteration"]], (
                    f"worker {r['worker']} iteration {r['iteration']}")

    def test_worker_spans_precede_master_span(self, merged_setup):
        _, _, merged, _, _ = merged_setup
        seen_master: set[int] = set()
        for r in merged:
            if r.get("type") == "iteration":
                seen_master.add(r["iteration"])
            elif r.get("type") == "worker_span":
                assert r["iteration"] not in seen_master

    def test_merge_is_byte_deterministic(self, merged_setup, tmp_path):
        _, trace, _, merged_path, _ = merged_setup
        again = str(tmp_path / "again.jsonl")
        merge_worker_traces(trace, out_path=again)
        with open(merged_path, "rb") as a, open(again, "rb") as b:
            assert a.read() == b.read()

    def test_metrics_fold_worker_counters(self, merged_setup):
        res, _, _, _, reg = merged_setup
        workers = res.extra["workers"]
        per_worker = [
            reg.counter("repro_worker_kernel_passes_total",
                        worker=str(w)).value
            for w in range(workers)
        ]
        assert sum(per_worker) > 0
        assert reg.counter("repro_iterations_total",
                           mode="process").value == res.num_iterations

    def test_phase_report_renders(self, merged_setup):
        res, _, merged, _, _ = merged_setup
        report = phase_report(merged)
        assert len(report["iterations"]) == res.num_iterations
        assert report["workers"] == list(range(res.extra["workers"]))
        assert "barrier_wait" in report["phases"]
        for w, phases in report["totals"]["worker_phases"].items():
            assert phases.get("barrier_wait", 0.0) >= 0.0
        table = phase_table(report)
        assert "worker skew" in table
        assert "barrier_wait" in table


# ---------------------------------------------------------------------------
# Bit identity with the profiler attached
# ---------------------------------------------------------------------------

class TestProfiledBitIdentity:
    def test_process_backend_profiled_identical(self, rmat_small, tmp_path):
        config = EngineConfig(threads=4, seed=1, jitter=0.5)
        bare = run(PageRank(epsilon=1e-3), rmat_small,
                   mode="nondeterministic", config=config,
                   vectorized="require")
        prof, _ = _profiled_run(
            rmat_small, tmp_path, algorithm=PageRank(epsilon=1e-3),
            config=config, backend="process", metrics=MetricsRegistry())
        assert np.array_equal(np.asarray(bare.state.vertex("rank")),
                              np.asarray(prof.state.vertex("rank")))
        assert bare.conflicts.read_write == prof.conflicts.read_write
        assert bare.conflicts.write_write == prof.conflicts.write_write
        assert (bare.extra["fixpoint_passes"]
                == prof.extra["fixpoint_passes"])

    def test_recorder_events_unchanged_by_profiler(self, rmat_small,
                                                   tmp_path):
        config = EngineConfig(threads=2, seed=1, jitter=0.5)
        rec_bare, rec_prof = Recorder(), Recorder()
        run(WeaklyConnectedComponents(), rmat_small,
            mode="nondeterministic", config=config, backend="process",
            record=rec_bare)
        _profiled_run(rmat_small, tmp_path, config=config,
                      backend="process", metrics=MetricsRegistry(),
                      record=rec_prof)
        assert rec_bare.events == rec_prof.events


# ---------------------------------------------------------------------------
# Torn worker segments (SIGKILL mid-write)
# ---------------------------------------------------------------------------

class TestTornSegments:
    def test_truncated_worker_segment_surfaces_as_event(self, rmat_small,
                                                        tmp_path):
        res, trace = _profiled_run(rmat_small, tmp_path, backend="process")
        seg = os.path.join(trace + ".workers", "worker-0.jsonl")
        with open(seg, "a", encoding="utf-8") as fh:
            # A worker killed mid-write leaves a torn final line.
            fh.write('{"type":"worker_span","worker":0,"iterat')
        merged = merge_worker_traces(trace)
        truncs = [r for r in merged
                  if r.get("type") == "event"
                  and r.get("name") == "worker_segment_truncated"]
        assert len(truncs) == 1
        assert truncs[0]["worker"] == 0
        # The torn line cost only itself: intact spans still merge, and
        # the merged trace still ends with the master's run_end.
        assert any(r.get("type") == "worker_span" and r["worker"] == 0
                   for r in merged)
        assert merged[-1]["type"] == "run_end"
        _no_errors(merged)

    def test_intact_segments_have_no_truncation_events(self, rmat_small,
                                                       tmp_path):
        _, trace = _profiled_run(rmat_small, tmp_path, backend="process")
        merged = merge_worker_traces(trace)
        assert not any(r.get("name") == "worker_segment_truncated"
                       for r in merged if r.get("type") == "event")


# ---------------------------------------------------------------------------
# Master-only traces (no worker segments on disk)
# ---------------------------------------------------------------------------

class TestMasterOnlyFallback:
    def test_folded_worker_phases_back_fill_the_report(self, rmat_small,
                                                       tmp_path):
        trace = str(tmp_path / "master.jsonl")
        # No worker_dir: segments are never written, but the master
        # span folds per-worker phase rows into extra["worker_phases"].
        sink = Telemetry(trace_path=trace)
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic",
                  config=EngineConfig(threads=4, seed=0, jitter=0.5),
                  backend="process", telemetry=sink)
        records = read_trace(trace)
        assert not os.path.isdir(trace + ".workers")
        report = phase_report(records)
        assert report["workers"] == list(range(res.extra["workers"]))
        busy = report["totals"]["worker_phases"]
        assert any(p.get("barrier_wait", 0.0) > 0.0 for p in busy.values())
        assert "worker skew" in phase_table(report)

    def test_merge_without_segments_is_identity(self, rmat_small, tmp_path):
        trace = str(tmp_path / "master.jsonl")
        sink = Telemetry(trace_path=trace)
        run(WeaklyConnectedComponents(), rmat_small,
            mode="nondeterministic", config=EngineConfig(threads=2, seed=0),
            backend="process", telemetry=sink)
        assert merge_worker_traces(trace) == read_trace(trace)


# ---------------------------------------------------------------------------
# Out-of-core backend
# ---------------------------------------------------------------------------

class TestOutOfCoreMerge:
    def test_ooc_process_backend_merged_trace(self, tmp_path):
        graph = generators.rmat(8, 8.0, seed=3)
        store = ShardStore.build(graph, tmp_path / "g.shards", 4)
        config = EngineConfig(threads=2, seed=0, jitter=0.5)
        reg = MetricsRegistry()
        res, trace = _profiled_run(store, tmp_path, algorithm=PageRank(
            epsilon=1e-3), config=config, backend="process", metrics=reg)
        assert res.converged
        merged = merge_worker_traces(trace)
        _no_errors(merged)

        wspans = [r for r in merged if r.get("type") == "worker_span"]
        assert wspans
        for r in wspans:
            assert "barrier_wait" in r["phases"]
            assert r["passes"] >= 1
        master_epoch = {r["iteration"]: r["extra"]["barrier_epoch"]
                        for r in merged if r.get("type") == "iteration"}
        for r in wspans:
            assert r["epoch"] == master_epoch[r["iteration"]]

        # Kernel passes fold into the master's named counter and the
        # registry, as on the in-memory process backend (one worker body).
        end = next(r for r in merged if r.get("type") == "run_end")
        assert end["counters"]["worker.kernel_passes"] >= len(wspans)
        assert reg.counter("repro_iterations_total",
                           mode="outofcore").value == res.num_iterations
        workers = res.extra["workers"]
        swept = sum(
            reg.counter("repro_worker_kernel_passes_total",
                        worker=str(w)).value
            for w in range(workers))
        assert swept == end["counters"]["worker.kernel_passes"]

        # shard_io is carved out of the master's enclosing phases.
        report = phase_report(merged)
        assert "shard_io" in report["phases"]
        assert report["totals"]["phases"].get("shard_io", 0.0) > 0.0

    def test_ooc_profiled_bit_identical(self, tmp_path):
        graph = generators.rmat(6, 8.0, seed=3)
        store = ShardStore.build(graph, tmp_path / "g.shards", 4)
        config = EngineConfig(threads=2, seed=1, jitter=0.5)
        bare = run(PageRank(epsilon=1e-3), graph, mode="nondeterministic",
                   config=config, vectorized="require")
        prof, _ = _profiled_run(store, tmp_path, algorithm=PageRank(
            epsilon=1e-3), config=config, backend="process",
            metrics=MetricsRegistry())
        assert np.array_equal(np.asarray(bare.state.vertex("rank")),
                              np.asarray(prof.state.vertex("rank")))
        assert (bare.extra["fixpoint_passes"]
                == prof.extra["fixpoint_passes"])
