"""Telemetry round-trip and primitives tests.

The central property: for every engine mode, a JSONL trace re-read from
disk reconstructs ``RunResult.iterations`` exactly — the "tables and
telemetry agree by construction" contract the experiment drivers rely
on.
"""

import json

import pytest

from repro.algorithms import WeaklyConnectedComponents
from repro.engine import AtomicityPolicy, EngineConfig, run
from repro.obs import (
    IterationSpan,
    Telemetry,
    read_trace,
    stats_from_trace,
    write_trace,
)

ALL_MODES = [
    "sync",
    "deterministic",
    "chromatic",
    "nondeterministic",
    "pure-async",
]


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_trace_matches_result(self, mode, rmat_small, tmp_path):
        path = tmp_path / f"{mode}.jsonl"
        sink = Telemetry(trace_path=str(path))
        res = run(WeaklyConnectedComponents(), rmat_small, mode=mode,
                  config=EngineConfig(threads=4, seed=1), telemetry=sink)

        records = read_trace(str(path))
        assert stats_from_trace(records) == res.iterations
        assert sink.iteration_stats() == res.iterations

        assert records[0]["type"] == "run_start"
        assert records[0]["mode"] == mode
        assert records[0]["threads"] == 4
        assert records[0]["program"] == "WeaklyConnectedComponents"
        assert records[-1]["type"] == "run_end"
        assert records[-1]["converged"] == res.converged
        assert records[-1]["iterations"] == res.num_iterations
        assert records[-1]["total_updates"] == res.total_updates

    def test_vectorized_trace_matches_result(self, rmat_small, tmp_path):
        path = tmp_path / "vec.jsonl"
        sink = Telemetry(trace_path=str(path))
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", vectorized=True,
                  config=EngineConfig(threads=4, seed=1), telemetry=sink)
        records = read_trace(str(path))
        assert stats_from_trace(records) == res.iterations
        assert records[0]["mode"] == "nondeterministic"
        # The fast path annotates its fixpoint sweeps on every span.
        spans = [r for r in records if r["type"] == "iteration"]
        assert all(r["extra"]["fixpoint_passes"] >= 1 for r in spans)

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_conflict_deltas_sum_to_run_totals(self, rmat_small, vectorized):
        sink = Telemetry()
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", vectorized=vectorized,
                  config=EngineConfig(threads=4, seed=1), telemetry=sink)
        assert sum(s.read_write for s in sink.spans) == res.conflicts.read_write
        assert sum(s.write_write for s in sink.spans) == res.conflicts.write_write

    def test_wall_time_and_frontier_recorded(self, rmat_small):
        sink = Telemetry()
        res = run(WeaklyConnectedComponents(), rmat_small, mode="deterministic",
                  telemetry=sink)
        assert res.converged
        assert all(s.wall_time_s >= 0.0 for s in sink.spans)
        assert sink.spans[-1].frontier_size == 0  # converged: empty S_{n+1}


class TestRunnerIntegration:
    def test_fallback_event_recorded(self, rmat_small):
        sink = Telemetry()
        res = run(WeaklyConnectedComponents(), rmat_small,
                  mode="nondeterministic", vectorized=True,
                  config=EngineConfig(threads=4, validate_scope=True),
                  telemetry=sink)
        assert res.converged
        events = [r for r in sink.records
                  if r.get("type") == "event" and r["name"] == "vectorized_fallback"]
        assert len(events) == 1
        assert any("validate_scope" in reason
                   for reason in events[0]["reasons"])

    def test_empty_string_vectorized_is_false(self, rmat_small):
        # Falsy pass-through from CLI/env plumbing; valid for *every* mode.
        res = run(WeaklyConnectedComponents(), rmat_small, mode="sync",
                  vectorized="")
        assert res.converged

    def test_bad_vectorized_string_rejected(self, rmat_small):
        with pytest.raises(ValueError, match="not understood"):
            run(WeaklyConnectedComponents(), rmat_small,
                mode="nondeterministic", vectorized="yes")

    def test_require_raises_with_reasons(self, rmat_small):
        with pytest.raises(ValueError, match="atomicity=NONE"):
            run(WeaklyConnectedComponents(), rmat_small,
                mode="nondeterministic", vectorized="require",
                config=EngineConfig(atomicity=AtomicityPolicy.NONE))


class TestPrimitives:
    def test_counter_and_gauge(self):
        sink = Telemetry()
        sink.counter("x").inc()
        sink.counter("x").inc(2)
        assert sink.counter("x").value == 3
        sink.gauge("g").set(1.5)
        assert sink.gauge("g").value == 1.5

    def test_end_run_dumps_counters_and_gauges(self):
        sink = Telemetry()
        sink.begin_run(mode="manual")
        sink.counter("fallbacks").inc(5)
        sink.gauge("load").set(0.25)
        sink.end_run()
        assert sink.run_summary["counters"] == {"fallbacks": 5}
        assert sink.run_summary["gauges"] == {"load": 0.25}

    def test_on_iteration_callback(self, path8):
        seen = []
        sink = Telemetry(on_iteration=seen.append)
        run(WeaklyConnectedComponents(), path8, mode="deterministic",
            telemetry=sink)
        assert seen == sink.spans
        assert [s.iteration for s in seen] == list(range(len(seen)))

    def test_export_equals_stream(self, path8, tmp_path):
        streamed = tmp_path / "stream.jsonl"
        exported = tmp_path / "export.jsonl"
        sink = Telemetry(trace_path=str(streamed))
        run(WeaklyConnectedComponents(), path8, mode="sync", telemetry=sink)
        sink.export(str(exported))
        assert read_trace(str(streamed)) == read_trace(str(exported))

    def test_write_trace_helper(self, path8, tmp_path):
        sink = Telemetry()  # buffered only, no streaming path
        res = run(WeaklyConnectedComponents(), path8, mode="sync",
                  telemetry=sink)
        path = tmp_path / "posthoc.jsonl"
        write_trace(sink, str(path))
        assert stats_from_trace(read_trace(str(path))) == res.iterations

    def test_reset_allows_reuse(self, path8):
        sink = Telemetry()
        run(WeaklyConnectedComponents(), path8, mode="sync", telemetry=sink)
        first = len(sink.spans)
        assert first > 0
        sink.reset()
        assert sink.spans == [] and sink.records == []
        assert sink.run_summary is None
        res = run(WeaklyConnectedComponents(), path8, mode="sync",
                  telemetry=sink)
        assert sink.iteration_stats() == res.iterations

    def test_summary_table(self, path8):
        sink = Telemetry()
        run(WeaklyConnectedComponents(), path8, mode="deterministic",
            telemetry=sink)
        text = sink.summary()
        assert "mode=deterministic" in text
        assert "iter" in text and "frontier" in text
        assert "total" in text

    def test_span_from_record_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="not an iteration record"):
            IterationSpan.from_record({"type": "run_start"})

    def test_read_trace_marks_truncated_final_line(self, tmp_path):
        # A killed run leaves a torn final line; the reader reports it
        # as a marker record rather than refusing the whole trace.
        path = tmp_path / "killed.jsonl"
        path.write_text(
            json.dumps({"type": "run_start"}) + "\n"
            + json.dumps({"type": "iteration", "iteration": 0}) + "\n"
            + '{"type": "iteration", "itera'
        )
        records = read_trace(str(path))
        assert records[-1] == {"type": "truncated", "line": 3}
        assert [r["type"] for r in records] == ["run_start", "iteration", "truncated"]

    def test_read_trace_rejects_mid_file_corruption(self, tmp_path):
        # Corruption is a bad line with valid lines after it: still fatal.
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"type": "run_start"}) + "\n{oops\n"
            + json.dumps({"type": "run_end"}) + "\n"
        )
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(str(path))

    def test_callback_error_recorded_not_raised(self, path8):
        def boom(span):
            if span.iteration == 1:
                raise RuntimeError("user callback bug")

        sink = Telemetry(on_iteration=boom)
        res = run(WeaklyConnectedComponents(), path8, mode="deterministic",
                  telemetry=sink)
        assert res.converged  # the engine finished despite the callback
        errors = [r for r in sink.records
                  if r.get("type") == "event" and r.get("name") == "callback_error"]
        assert len(errors) == 1
        assert errors[0]["iteration"] == 1
        assert "user callback bug" in errors[0]["error"]
