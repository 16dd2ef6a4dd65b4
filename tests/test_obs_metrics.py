"""Metrics registry, phase clock, and engine `metrics=` plumbing.

The registry's cross-process merge semantics (counters/buckets summed,
gauges last-write-wins), the Prometheus/JSON exposition, the PhaseClock
sum invariant, and the uniform per-iteration series every
nondeterministic backend records — plus the contract that a
``{"type": "metrics"}`` snapshot embedded in a JSONL trace is invisible
to every existing trace reader.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, Refused, run
from repro.graph import generators
from repro.obs import (
    PHASES,
    MetricsRegistry,
    PhaseClock,
    Telemetry,
    lint_trace,
    peak_rss_bytes,
    read_trace,
    record_iteration_metrics,
    stats_from_trace,
    summarize_trace,
    write_trace,
)


# ---------------------------------------------------------------------------
# PhaseClock
# ---------------------------------------------------------------------------

class TestPhaseClock:
    def test_laps_sum_to_bracketed_wall_time(self):
        clock = PhaseClock()
        t0 = time.perf_counter()
        clock.start()
        for phase in ("plan_build", "gather", "lemma2_commit"):
            time.sleep(0.002)
            clock.lap(phase)
        wall = time.perf_counter() - t0
        acc = clock.drain()
        assert set(acc) == {"plan_build", "gather", "lemma2_commit"}
        # Contiguous laps of one clock: the sum IS the bracketed time up
        # to the final drain's own cost.
        assert abs(sum(acc.values()) - wall) <= 0.05 * wall + 1e-4

    def test_split_preserves_sum(self):
        clock = PhaseClock()
        clock.add("gather", 1.0)
        clock.split("gather", "shard_io", 0.25)
        acc = clock.drain()
        assert acc["gather"] == pytest.approx(0.75)
        assert acc["shard_io"] == pytest.approx(0.25)
        assert sum(acc.values()) == pytest.approx(1.0)

    def test_split_nonpositive_is_noop(self):
        clock = PhaseClock()
        clock.add("gather", 1.0)
        clock.split("gather", "shard_io", 0.0)
        clock.split("gather", "shard_io", -1.0)
        assert clock.drain() == {"gather": 1.0}

    def test_drain_resets(self):
        clock = PhaseClock()
        clock.add("gather", 1.0)
        assert clock.drain() == {"gather": 1.0}
        assert clock.drain() == {}


# ---------------------------------------------------------------------------
# Registry semantics
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_labels_identify_series(self):
        reg = MetricsRegistry()
        reg.counter("c", mode="ne").inc(2)
        reg.counter("c", mode="de").inc(3)
        assert reg.counter("c", mode="ne").value == 2
        assert reg.counter("c", mode="de").value == 3

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("c").inc(-1)

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_histogram_bucket_layout_is_sticky(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        with pytest.raises(ValueError, match="already registered with"):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_histogram_rejects_unsorted_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h", buckets=(2.0, 1.0))

    def test_merge_sums_counters_and_buckets_lww_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, g in ((a, 1.0), (b, 9.0)):
            reg.counter("c", worker="0").inc(5)
            reg.gauge("g").set(g)
            reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
            reg.histogram("h", buckets=(1.0, 2.0)).observe(5.0)
        a.merge(b)
        assert a.counter("c", worker="0").value == 10
        assert a.gauge("g").value == 9.0  # last write wins
        h = a.histogram("h", buckets=(1.0, 2.0))
        assert h.count == 4
        assert h.counts == [2, 0, 2]
        assert h.sum == pytest.approx(11.0)

    def test_merge_accepts_snapshot_dict(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(7)
        a.merge(b.snapshot())
        assert a.counter("c").value == 7

    def test_merge_rejects_bucket_count_mismatch(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        snap = {"counters": [], "gauges": [],
                "histograms": [{"name": "h", "labels": {},
                                "buckets": [1.0, 2.0],
                                "counts": [1, 0],  # missing the +Inf slot
                                "sum": 0.5, "count": 1}]}
        with pytest.raises(ValueError, match="buckets"):
            a.merge(snap)

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_updates_total", mode="ne").inc(3)
        reg.gauge("repro_frontier_size").set(17)
        h = reg.histogram("repro_iteration_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(50.0)
        text = reg.to_prometheus()
        assert "# TYPE repro_updates_total counter" in text
        assert 'repro_updates_total{mode="ne"} 3' in text
        assert "repro_frontier_size 17" in text
        # Cumulative buckets with the implicit +Inf slot.
        assert 'repro_iteration_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_iteration_seconds_bucket{le="1"} 2' in text
        assert 'repro_iteration_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_iteration_seconds_count 3" in text
        assert text.endswith("\n")

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.counter("c", path='a"b\\c\nd').inc()
        text = reg.to_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_json_round_trips_through_merge(self):
        import json

        reg = MetricsRegistry()
        reg.counter("c", mode="ne").inc(4)
        reg.histogram("h", buckets=(1.0,)).observe(2.0)
        other = MetricsRegistry()
        other.merge(json.loads(reg.to_json()))
        assert other.to_json() == reg.to_json()


@settings(max_examples=60, deadline=None)
@given(
    bounds=st.lists(st.floats(min_value=1e-6, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=8, unique=True),
    values=st.lists(st.floats(min_value=0.0, max_value=2e6,
                              allow_nan=False, allow_infinity=False),
                    max_size=40),
)
def test_histogram_bucket_property(bounds, values):
    """Per-bucket counts match the le-inclusive rule; cumulation is
    monotone and ends at the total observation count."""
    buckets = tuple(sorted(bounds))
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=buckets)
    for v in values:
        h.observe(v)
    assert h.count == len(values)
    assert h.sum == pytest.approx(math.fsum(values))
    # Recompute each bucket's occupancy from the definition.
    expected = [0] * (len(buckets) + 1)
    for v in values:
        for i, ub in enumerate(buckets):
            if v <= ub:
                expected[i] += 1
                break
        else:
            expected[-1] += 1
    assert h.counts == expected
    cum = h.cumulative()
    assert cum == sorted(cum)
    assert cum[-1] == len(values)


# ---------------------------------------------------------------------------
# Engine plumbing: metrics= on every nondeterministic backend
# ---------------------------------------------------------------------------

class TestEngineMetrics:
    def test_object_engine_records_uniform_series(self, rmat_small):
        reg = MetricsRegistry()
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", config=EngineConfig(threads=4),
                  metrics=reg)
        assert res.converged
        assert (reg.counter("repro_iterations_total", mode="object").value
                == res.num_iterations)
        assert reg.counter("repro_updates_total", mode="object").value > 0
        total = sum(
            reg.counter("repro_phase_seconds_total", mode="object",
                        phase=p).value
            for p in PHASES)
        assert total > 0
        hist = reg.histogram("repro_iteration_seconds", mode="object")
        assert hist.count == res.num_iterations

    def test_vectorized_engine_phase_counters(self, rmat_small):
        reg = MetricsRegistry()
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", config=EngineConfig(threads=4),
                  vectorized="require", metrics=reg)
        assert res.converged
        # Every phase's standing-total counter agrees with the sum of
        # its histogram observations — same recording site, two views.
        by_phase = {}
        for p in PHASES:
            c = reg.counter("repro_phase_seconds_total", mode="vectorized",
                            phase=p).value
            h = reg.histogram("repro_phase_seconds", mode="vectorized",
                              phase=p)
            assert c == pytest.approx(h.sum, abs=1e-9)
            by_phase[p] = c
        assert by_phase["lemma2_commit"] > 0
        # Phase laps are contiguous: they account for the bulk of the
        # measured iteration wall time.
        wall = reg.histogram("repro_iteration_seconds", mode="vectorized").sum
        assert 0 < sum(by_phase.values()) <= wall * 1.1 + 1e-3

    def test_metrics_accumulate_across_runs(self, rmat_small):
        reg = MetricsRegistry()
        for _ in range(2):
            run(WeaklyConnectedComponents(), rmat_small,
                mode="nondeterministic", config=EngineConfig(threads=2),
                vectorized="require", metrics=reg)
        hist = reg.histogram("repro_iteration_seconds", mode="vectorized")
        assert hist.count > 0
        assert (reg.counter("repro_iterations_total",
                            mode="vectorized").value == hist.count)

    @pytest.mark.parametrize("mode, vectorized", [
        ("sync", False), ("sync", "require"),
        ("deterministic", False), ("deterministic", "require"),
        ("chromatic", False), ("chromatic", "require")])
    def test_barriered_modes_record_metrics(self, rmat_small, mode,
                                            vectorized):
        reg = MetricsRegistry()
        res = run(WeaklyConnectedComponents(), rmat_small, mode=mode,
                  vectorized=vectorized, metrics=reg)
        label = "vectorized" if vectorized else "object"
        assert res.converged and res.num_iterations > 1
        hist = reg.histogram("repro_iteration_seconds", mode=label)
        assert hist.count == res.num_iterations
        assert (reg.counter("repro_iterations_total", mode=label).value
                == res.num_iterations)

    def test_metrics_rejects_pure_async(self, rmat_small):
        with pytest.raises(Refused, match="pure-async"):
            run(WeaklyConnectedComponents(), rmat_small, mode="pure-async",
                metrics=MetricsRegistry())

    def test_metrics_compose_with_robust_kwargs(self, rmat_small, tmp_path):
        """A supervised (checkpointing) run records the phase series."""
        reg = MetricsRegistry()
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", config=EngineConfig(threads=4),
                  vectorized="require", metrics=reg,
                  checkpoint=str(tmp_path / "metrics.ckpt"))
        assert res.extra["last_checkpoint_iteration"] == res.num_iterations
        assert (reg.counter("repro_iterations_total", mode="vectorized").value
                == res.num_iterations)
        for phase in ("plan_build", "gather", "lemma2_commit"):
            assert reg.counter("repro_phase_seconds_total", mode="vectorized",
                               phase=phase).value > 0

    def test_profiled_run_bit_identical(self, rmat_small):
        """Attaching telemetry+metrics is pure timing: same bits out."""
        config = EngineConfig(threads=4, seed=1, jitter=0.5)
        bare = run(PageRank(epsilon=1e-3), rmat_small,
                   mode="nondeterministic", config=config,
                   vectorized="require")
        prof = run(PageRank(epsilon=1e-3), rmat_small,
                   mode="nondeterministic", config=config,
                   vectorized="require", telemetry=Telemetry(),
                   metrics=MetricsRegistry())
        assert np.array_equal(np.asarray(bare.state.vertex("rank")),
                              np.asarray(prof.state.vertex("rank")))
        assert bare.conflicts.read_write == prof.conflicts.read_write
        assert bare.conflicts.write_write == prof.conflicts.write_write
        assert (bare.extra["fixpoint_passes"]
                == prof.extra["fixpoint_passes"])


# ---------------------------------------------------------------------------
# Trace embedding: the snapshot record is invisible to every reader
# ---------------------------------------------------------------------------

class TestSnapshotInTrace:
    def _traced_run(self, graph, tmp_path):
        trace = tmp_path / "run.jsonl"
        sink = Telemetry(trace_path=str(trace))
        reg = MetricsRegistry()
        res = run(WeaklyConnectedComponents(), graph,
                  mode="nondeterministic", config=EngineConfig(threads=4),
                  vectorized="require", telemetry=sink, metrics=reg)
        return res, read_trace(str(trace))

    def test_snapshot_record_before_run_end(self, rmat_small, tmp_path):
        res, records = self._traced_run(rmat_small, tmp_path)
        kinds = [r.get("type") for r in records]
        assert "metrics" in kinds
        # Before the terminal record — lint requires nothing after run_end.
        assert kinds.index("metrics") < kinds.index("run_end")
        assert not lint_trace(records)

    def test_readers_pass_snapshot_through(self, rmat_small, tmp_path):
        res, records = self._traced_run(rmat_small, tmp_path)
        stats = stats_from_trace(records)
        assert len(stats) == res.num_iterations
        summary = summarize_trace(records)
        assert summary["iterations"] == res.num_iterations

    def test_snapshot_merges_back(self, rmat_small, tmp_path):
        _, records = self._traced_run(rmat_small, tmp_path)
        snap = next(r for r in records if r.get("type") == "metrics")
        reg = MetricsRegistry()
        reg.merge(snap)
        assert reg.counter("repro_iterations_total",
                           mode="vectorized").value > 0

    def test_buffered_sink_snapshot_via_write_trace(self, rmat_small,
                                                    tmp_path):
        sink = Telemetry()
        reg = MetricsRegistry()
        run(WeaklyConnectedComponents(), rmat_small, mode="nondeterministic",
            config=EngineConfig(threads=2), vectorized="require",
            telemetry=sink, metrics=reg)
        path = tmp_path / "buffered.jsonl"
        write_trace(sink, str(path))
        records = read_trace(str(path))
        assert any(r.get("type") == "metrics" for r in records)
        assert not lint_trace(records)


def test_peak_rss_bytes_is_plausible():
    rss = peak_rss_bytes()
    # A running CPython interpreter holds at least a few MiB and (on
    # any test box) below a TiB.
    assert 2**20 < rss < 2**40


def test_record_iteration_metrics_series_shape():
    reg = MetricsRegistry()
    record_iteration_metrics(
        reg, "testmode", phases={"gather": 0.5, "barrier_wait": 0.25},
        num_active=10, frontier_size=4, read_write=2, write_write=1,
        wall_time_s=0.75)
    assert reg.counter("repro_iterations_total", mode="testmode").value == 1
    assert reg.counter("repro_conflicts_total", mode="testmode",
                       kind="read_write").value == 2
    assert sum(
        reg.counter("repro_phase_seconds_total", mode="testmode",
                    phase=p).value
        for p in ("gather", "barrier_wait")
    ) == pytest.approx(0.75)
    assert reg.gauge("repro_frontier_size", mode="testmode").value == 4
    assert reg.gauge("repro_peak_rss_bytes", mode="testmode").value > 0
