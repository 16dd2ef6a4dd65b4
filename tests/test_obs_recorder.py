"""Flight-recorder (race provenance) and divergence-explainer tests.

Three contracts anchor this file:

1. **Round-trip**: a JSONL provenance trace re-read from disk equals the
   recorder's in-memory records, for every engine mode.
2. **Object ≡ vectorized**: on one schedule the vectorized fast path
   records byte-identical provenance (events, offered/dropped counters,
   reservoir samples) to the object nondeterministic engine — the
   recorder is part of the bit-compatibility surface.
3. **Explainability**: on the rmat-10 PageRank acceptance scenario the
   explainer finds a consistent first divergent event and its forward
   taint covers the first disagreeing rank (the difference-degree
   connection of §V-C).
"""

import json

import numpy as np
import pytest

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.analysis import (
    explain_traces,
    first_divergence,
    ranking,
)
from repro.analysis.difference import (
    cross_difference_degree,
    difference_degree,
    identical_prefix_length,
)
from repro.engine import EngineConfig, run
from repro.graph import generators
from repro.obs import RECORD_POLICIES, Recorder, lint_trace, read_trace, summarize_trace

ALL_MODES = [
    "sync",
    "deterministic",
    "chromatic",
    "nondeterministic",
    "pure-async",
]


def record_run(graph, *, mode="nondeterministic", vectorized=False, seed=1,
               threads=4, policy="all", trace_path=None, program=None,
               jitter=None, **rec_kwargs):
    config = (EngineConfig(threads=threads, seed=seed)
              if jitter is None
              else EngineConfig(threads=threads, seed=seed, jitter=jitter))
    rec = Recorder(policy=policy, trace_path=trace_path, **rec_kwargs)
    res = run(program or WeaklyConnectedComponents(), graph, mode=mode,
              vectorized=vectorized, config=config, record=rec)
    return rec, res


class TestRecorderBasics:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown recorder policy"):
            Recorder(policy="everything")

    def test_rejects_bad_reservoir_k(self):
        with pytest.raises(ValueError, match="reservoir_k"):
            Recorder(policy="reservoir", reservoir_k=0)

    @pytest.mark.parametrize("policy", RECORD_POLICIES)
    def test_run_envelope(self, rmat_small, policy):
        rec, res = record_run(rmat_small, policy=policy)
        assert rec.records[0]["type"] == "run_start"
        assert rec.records[0]["mode"] == "nondeterministic"
        assert rec.records[0]["recorder_policy"] == policy
        assert rec.records[-1]["type"] == "run_end"
        assert rec.records[-1]["converged"] == res.converged
        assert rec.records[-1]["provenance_events"] == len(rec.events)
        assert rec.records[-1]["events_offered"] == rec.offered
        # Small graph: the final ranking is embedded for the explainer.
        labels = res.result()
        assert rec.run_summary["ranking"] == [int(v) for v in ranking(labels)]

    def test_offered_counts_all_sampling_outcomes(self, rmat_small):
        rec, _ = record_run(rmat_small, policy="conflicts")
        assert rec.offered == len(rec.events) + rec.dropped

    def test_reset_allows_reuse(self, path8):
        rec, _ = record_run(path8)
        assert rec.records
        rec.reset()
        assert rec.records == [] and rec.events == []
        assert rec.offered == 0 and rec.dropped == 0
        run(WeaklyConnectedComponents(), path8, mode="nondeterministic",
            config=EngineConfig(threads=4, seed=1), record=rec)
        assert rec.records[-1]["type"] == "run_end"

    def test_commits_filters_kind(self, rmat_small):
        rec, _ = record_run(rmat_small, policy="all")
        commits = rec.commits()
        assert commits and all(e["kind"] == "commit" for e in commits)
        assert len(commits) < len(rec.events)  # reads recorded too


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_trace_matches_records(self, mode, rmat_small, tmp_path):
        path = tmp_path / f"{mode}.jsonl"
        rec, res = record_run(rmat_small, mode=mode, policy="all",
                              trace_path=str(path))
        records = read_trace(str(path))
        # JSON round-trip normalizes NumPy scalars; compare via dumps.
        assert [json.loads(json.dumps(r, default=repr)) for r in rec.records] \
            == records
        assert records[0]["mode"] == mode
        assert records[-1]["iterations"] == res.num_iterations
        assert rec.events, mode  # every engine produced provenance
        assert not [i for i in lint_trace(records) if i.severity == "error"]

    def test_export_equals_stream(self, path8, tmp_path):
        streamed = tmp_path / "stream.jsonl"
        exported = tmp_path / "export.jsonl"
        rec, _ = record_run(path8, policy="all", trace_path=str(streamed))
        rec.export(str(exported))
        assert read_trace(str(streamed)) == read_trace(str(exported))

    @pytest.mark.parametrize("mode,kinds", [
        ("nondeterministic", {"commit", "read"}),
        ("sync", {"commit"}),
        ("deterministic", {"write"}),
        ("chromatic", {"write"}),
        ("pure-async", {"commit", "read"}),
    ])
    def test_event_kinds_per_mode(self, mode, kinds, rmat_small):
        rec, _ = record_run(rmat_small, mode=mode, policy="all")
        assert {e["kind"] for e in rec.events} == kinds


class TestObjectVectorizedEquality:
    """The fast path is bit-compatible down to the provenance stream."""

    @pytest.mark.parametrize("policy", RECORD_POLICIES)
    @pytest.mark.parametrize("program_factory", [
        lambda: PageRank(epsilon=1e-2),
        WeaklyConnectedComponents,
    ])
    def test_records_identical(self, rmat_small, policy, program_factory):
        rec_obj, res_obj = record_run(rmat_small, policy=policy,
                                      program=program_factory())
        rec_vec, res_vec = record_run(rmat_small, policy=policy,
                                      vectorized=True,
                                      program=program_factory())
        assert np.array_equal(res_obj.result(), res_vec.result())
        assert rec_obj.events == rec_vec.events
        assert rec_obj.offered == rec_vec.offered
        assert rec_obj.dropped == rec_vec.dropped

    def test_commits_round_trip_identically(self, rmat_small, tmp_path):
        # Acceptance: the fast path's recorded Lemma-2 commits round-trip
        # through read_trace identically to the object engine's.
        paths = {}
        for label, vectorized in (("obj", False), ("vec", True)):
            paths[label] = str(tmp_path / f"{label}.jsonl")
            record_run(rmat_small, policy="all", vectorized=vectorized,
                       program=PageRank(epsilon=1e-2),
                       trace_path=paths[label])
        commits = {
            label: [r for r in read_trace(p)
                    if r.get("type") == "provenance" and r["kind"] == "commit"]
            for label, p in paths.items()
        }
        assert commits["obj"] == commits["vec"]
        assert commits["obj"]  # non-vacuous

    def test_reservoir_sampling_streams_match(self, rmat_small):
        rec_obj, _ = record_run(rmat_small, policy="reservoir", reservoir_k=3)
        rec_vec, _ = record_run(rmat_small, policy="reservoir", reservoir_k=3,
                                vectorized=True)
        assert rec_obj.events == rec_vec.events
        assert rec_obj.dropped == rec_vec.dropped


class TestPolicies:
    def test_conflicts_drops_same_thread_pairs(self, rmat_small):
        rec_c, _ = record_run(rmat_small, policy="conflicts")
        rec_a, _ = record_run(rmat_small, policy="all")
        assert rec_c.dropped > 0
        assert len(rec_c.events) < len(rec_a.events)
        for ev in rec_c.events:
            if ev["kind"] == "read":
                assert ev["reader_thread"] != ev["writer_thread"]
            elif ev["kind"] == "commit":
                assert any(e["thread"] != ev["writer_thread"]
                           for e in ev["lost"])

    def test_all_keeps_everything(self, rmat_small):
        rec, _ = record_run(rmat_small, policy="all")
        assert rec.dropped == 0
        assert rec.offered == len(rec.events)
        assert any(e.get("rule") == "uncontended" for e in rec.commits())

    def test_reservoir_bounds_per_edge(self, rmat_small):
        k = 2
        rec, _ = record_run(rmat_small, policy="reservoir", reservoir_k=k)
        per_key: dict = {}
        for ev in rec.events:
            per_key[(ev["field"], ev["eid"])] = \
                per_key.get((ev["field"], ev["eid"]), 0) + 1
        assert per_key
        assert max(per_key.values()) <= k
        assert rec.dropped > 0  # a hot edge actually overflowed

    def test_reads_false_suppresses_lemma1_events(self, rmat_small):
        rec, _ = record_run(rmat_small, policy="all", reads=False)
        assert rec.events
        assert not any(e["kind"] == "read" for e in rec.events)


class TestRunnerNormalization:
    def test_record_true_builds_recorder(self, path8):
        res = run(WeaklyConnectedComponents(), path8, mode="nondeterministic",
                  config=EngineConfig(threads=4, seed=1), record=True)
        assert res.converged

    def test_record_path_streams_trace(self, path8, tmp_path):
        path = tmp_path / "auto.jsonl"
        res = run(WeaklyConnectedComponents(), path8, mode="nondeterministic",
                  config=EngineConfig(threads=4, seed=1), record=str(path))
        assert res.converged
        records = read_trace(str(path))
        assert records[0]["type"] == "run_start"
        assert records[-1]["type"] == "run_end"

    def test_bad_record_value_rejected(self, path8):
        with pytest.raises(ValueError, match="not understood"):
            run(WeaklyConnectedComponents(), path8, mode="nondeterministic",
                record=42)


class TestLintSummarize:
    def test_summarize_recorded_run(self, rmat_small, tmp_path):
        path = tmp_path / "t.jsonl"
        rec, res = record_run(rmat_small, policy="conflicts",
                              trace_path=str(path))
        summary = summarize_trace(read_trace(str(path)))
        assert summary["mode"] == "nondeterministic"
        assert summary["program"] == "WeaklyConnectedComponents"
        assert summary["provenance_events"] == len(rec.events)
        assert summary["events_offered"] == rec.offered
        assert summary["converged"] == res.converged
        assert summary["has_ranking"] is True
        assert not summary["truncated"]

    def test_lint_flags_winner_in_lost_list(self):
        records = [
            {"type": "run_start", "mode": "nondeterministic"},
            {"type": "provenance", "kind": "commit", "iteration": 0,
             "field": "value", "eid": 0, "writer": 3, "writer_thread": 0,
             "value": 1.0, "rule": "lemma2",
             "lost": [{"vid": 3, "thread": 1, "value": 2.0,
                       "order": "concurrent"}]},
            {"type": "run_end"},
        ]
        issues = lint_trace(records)
        assert any("lost" in i.message and i.severity == "error"
                   for i in issues)

    def test_lint_flags_decreasing_iteration(self):
        records = [
            {"type": "run_start"},
            {"type": "provenance", "kind": "write", "iteration": 2,
             "field": "value", "eid": 0, "writer": 0, "writer_thread": 0,
             "value": 1.0, "rule": "threads", "order": "unobserved"},
            {"type": "provenance", "kind": "write", "iteration": 1,
             "field": "value", "eid": 1, "writer": 1, "writer_thread": 0,
             "value": 1.0, "rule": "threads", "order": "unobserved"},
            {"type": "run_end"},
        ]
        assert any(i.severity == "error" for i in lint_trace(records))

    def test_lint_clean_on_real_trace(self, rmat_small):
        rec, _ = record_run(rmat_small, policy="all")
        assert lint_trace(rec.records) == []


class TestExplainer:
    def test_identical_seeds_do_not_diverge(self, rmat_small):
        recs = [record_run(rmat_small, policy="conflicts", seed=1,
                           program=PageRank(epsilon=1e-2), jitter=0.5)[0]
                for _ in range(2)]
        report = explain_traces(recs[0].records, recs[1].records)
        assert report.first is None
        assert report.degree == rmat_small.num_vertices  # identical rankings

    def test_rmat10_pagerank_acceptance(self, tmp_path):
        # Acceptance: two seeded rmat-10 PageRank NE runs; the explainer
        # identifies a consistent first divergent event.
        graph = generators.rmat(10, 6.0, seed=7)
        paths = []
        for seed in (0, 1):
            path = tmp_path / f"s{seed}.jsonl"
            record_run(graph, policy="conflicts", seed=seed, threads=8,
                       jitter=0.5, vectorized=True,
                       program=PageRank(epsilon=1e-3), trace_path=str(path))
            paths.append(str(path))
        records = [read_trace(p) for p in paths]
        report = explain_traces(records[0], records[1], graph=graph)
        assert report.first is not None
        # Consistency: swapping the traces finds the same racy access.
        mirrored = explain_traces(records[1], records[0], graph=graph)
        locus = lambda d: (d.iteration, d.field, d.eid, d.event_kind)
        assert locus(report.first) == locus(mirrored.first)
        # Everything before the divergence agreed, in both directions.
        assert report.first.agreed_events == mirrored.first.agreed_events
        # The embedded rankings give the §V-C difference degree, and the
        # first disagreeing rank is inside the forward taint of the race.
        assert report.degree is not None
        assert report.degree < graph.num_vertices
        assert report.degree == difference_degree(
            np.asarray(report.ranking_a), np.asarray(report.ranking_b))
        assert report.divergent_rank_vertices
        assert report.explained is True
        text = report.render()
        assert "explained by the first race" in text
        assert f"difference degree {report.degree}" in text

    def test_first_divergence_reports_missing_event(self):
        ev = {"type": "provenance", "kind": "commit", "iteration": 0,
              "field": "value", "eid": 5, "writer": 1, "writer_thread": 0,
              "value": 1.0, "rule": "lemma2", "lost": []}
        div = first_divergence([ev], [])
        assert div.kind == "only-in-a"
        assert div.event_a == ev and div.event_b is None
        assert first_divergence([], [ev]).kind == "only-in-b"

    def test_mismatched_workload_warns(self, path8):
        rec_a, _ = record_run(path8, mode="nondeterministic")
        rec_b, _ = record_run(path8, mode="sync")
        report = explain_traces(rec_a.records, rec_b.records)
        assert any("mode" in w for w in report.warnings)


class TestDifferenceDegreesFromTraces:
    """§V-C metrics driven from real recorded traces (satellite).

    The rankings come from the ``run_end`` records of actual recorder
    runs — the same data path the explainer uses — and must agree with
    the metrics computed directly from the in-memory results.
    """

    @pytest.fixture(scope="class")
    def trace_groups(self):
        graph = generators.rmat(8, 6.0, seed=3)
        groups, results = {}, {}
        for threads in (4, 8):
            rows = [record_run(graph, policy="conflicts", threads=threads,
                               seed=s, jitter=0.5,
                               program=PageRank(epsilon=1e-3))
                    for s in (0, 1, 2)]
            groups[threads] = [
                np.asarray(rec.run_summary["ranking"], dtype=np.int64)
                for rec, _ in rows
            ]
            results[threads] = [res.result() for _, res in rows]
        return graph, groups, results

    def test_embedded_rankings_match_results(self, trace_groups):
        _, groups, results = trace_groups
        for threads in groups:
            for embedded, scores in zip(groups[threads], results[threads]):
                assert np.array_equal(embedded, ranking(scores))

    def test_cross_difference_degree_from_traces(self, trace_groups):
        graph, groups, _ = trace_groups
        degree = cross_difference_degree(groups[4], groups[8])
        assert 0 <= degree <= graph.num_vertices
        # Hand-rolled over all ordered pairs — the Table III definition.
        expected = np.mean([
            difference_degree(a, b) for a in groups[4] for b in groups[8]
        ])
        assert degree == pytest.approx(float(expected))

    def test_identical_prefix_from_traces(self, trace_groups):
        graph, groups, _ = trace_groups
        everything = groups[4] + groups[8]
        prefix = identical_prefix_length(everything)
        # The paper's usability claim: the top of the ranking is stable.
        assert 0 < prefix <= graph.num_vertices
        head = {tuple(r[:prefix]) for r in everything}
        assert len(head) == 1  # all runs agree on the prefix...
        if prefix < graph.num_vertices:
            at = {int(r[prefix]) for r in everything}
            assert len(at) > 1  # ...and genuinely disagree right after

    def test_prefix_bounded_by_cross_degree(self, trace_groups):
        _, groups, _ = trace_groups
        everything = groups[4] + groups[8]
        prefix = identical_prefix_length(everything)
        min_pair = min(
            difference_degree(a, b) for a in groups[4] for b in groups[8]
        )
        assert prefix <= min_pair


class TestTraceCLI:
    @pytest.fixture()
    def trace_pair(self, tmp_path):
        from repro.cli import main

        paths = []
        for seed in (0, 1):
            path = str(tmp_path / f"cli_s{seed}.jsonl")
            code = main(["run", "PageRank", "--scale", "8",
                         "--threads", "8", "--run-seed", str(seed),
                         "--record", path])
            assert code == 0
            paths.append(path)
        return paths

    def test_summarize(self, trace_pair, capsys):
        from repro.cli import main

        assert main(["trace", "summarize", trace_pair[0]]) == 0
        out = capsys.readouterr().out
        assert "nondeterministic" in out
        assert "provenance_events" in out

    def test_lint(self, trace_pair, capsys):
        from repro.cli import main

        assert main(["trace", "lint", trace_pair[0]]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_diff_and_explain_flag_divergence(self, trace_pair, capsys):
        from repro.cli import main

        code = main(["trace", "diff", *trace_pair])
        out = capsys.readouterr().out
        assert code == 3 and "then:" in out
        code = main(["trace", "explain", *trace_pair])
        out = capsys.readouterr().out
        assert code == 3
        assert "Divergence explainer" in out
        assert "forward taint" in out

    def test_diff_identical_trace_exits_zero(self, trace_pair, capsys):
        from repro.cli import main

        assert main(["trace", "diff", trace_pair[0], trace_pair[0]]) == 0
        assert "agree" in capsys.readouterr().out
