"""Direction-optimizing push/pull hybrid: bit-identity and heuristics.

The hybrid never changes *what* executes — an iteration run in the
sparse push direction performs the same racy Defs. 1–3 iteration over
the frontier's touched edges that the dense pull direction performs
over all of them.  Every observable (final state, trajectory, conflict
totals, fix-point pass counts, recorder provenance) must therefore be
bit-identical across directions and backends per (mode, seed); the
direction decision itself is a pure function of (frontier, graph,
config).  These tests pin that contract plus the eligibility gate and
the runner/bench plumbing.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, SSSP, PageRank, SpMV, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.engine.capabilities import DIRECTIONS
from repro.engine.nondet_vectorized import (
    choose_direction,
    push_fallback_reasons,
)
from repro.graph import generators
from repro.obs import Recorder, Telemetry

from .test_nondet_vectorized import assert_bit_identical

PUSH_ELIGIBLE = {
    "wcc": WeaklyConnectedComponents,
    "sssp": lambda: SSSP(source=0),
    "bfs": lambda: BFS(source=0),
}

PULL_ONLY = {
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "spmv": SpMV,
}


@pytest.fixture(scope="module")
def medium_graph():
    return generators.rmat(7, 8.0, seed=3)


def run_direction(factory, graph, config, direction, **kwargs):
    return run(factory(), graph, mode="nondeterministic", config=config,
               vectorized="require", direction=direction, **kwargs)


# ---------------------------------------------------------------------------
# bit-identity grid: direction x backend x seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", sorted(PUSH_ELIGIBLE))
@pytest.mark.parametrize("seed", [0, 3])
def test_bit_identity_across_directions(medium_graph, algo, seed):
    """pull == push == auto == the interpreting object engine, exactly."""
    config = EngineConfig(threads=4, seed=seed, jitter=0.5)
    factory = PUSH_ELIGIBLE[algo]
    obj = run(factory(), medium_graph, mode="nondeterministic", config=config)
    runs = {d: run_direction(factory, medium_graph, config, d)
            for d in DIRECTIONS}
    for d, res in runs.items():
        assert_bit_identical(obj, res)
        assert (res.extra["fixpoint_passes"]
                == runs["pull"].extra["fixpoint_passes"]), d
    # The forced-push run must actually have pushed; auto reports its
    # per-iteration decisions.
    assert runs["push"].extra["push_iterations"] == runs["push"].num_iterations
    trace = runs["auto"].extra["direction_trace"]
    assert len(trace) == runs["auto"].num_iterations
    assert set(trace) <= {"push", "pull"}
    assert runs["auto"].extra["push_iterations"] == trace.count("push")
    # pull (the default) advertises no direction bookkeeping at all.
    assert "direction" not in runs["pull"].extra


@pytest.mark.parametrize("algo", sorted(PUSH_ELIGIBLE))
def test_recorder_parity_across_directions(medium_graph, algo):
    """Race provenance is byte-identical: same events, same order."""
    config = EngineConfig(threads=4, seed=1, jitter=0.5)
    recorders = {}
    for d in ("pull", "push", "auto"):
        rec = Recorder()
        run_direction(PUSH_ELIGIBLE[algo], medium_graph, config, d, record=rec)
        recorders[d] = rec
    assert recorders["pull"].events, "expected recorded races on rmat-7"
    assert recorders["push"].events == recorders["pull"].events
    assert recorders["auto"].events == recorders["pull"].events


@pytest.mark.parallel_backend
@pytest.mark.parametrize("algo", sorted(PUSH_ELIGIBLE))
@pytest.mark.parametrize("direction", ["push", "auto"])
def test_process_backend_direction_bit_identical(medium_graph, algo, direction):
    """The process backend honours direction= with the same bits, and
    its per-iteration decisions match the single-process engine's."""
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    vec = run_direction(PUSH_ELIGIBLE[algo], medium_graph, config, "pull")
    rec = Recorder()
    rec_vec = Recorder()
    run_direction(PUSH_ELIGIBLE[algo], medium_graph, config, direction,
                  record=rec_vec)
    proc = run(PUSH_ELIGIBLE[algo](), medium_graph, mode="nondeterministic",
               config=config, backend="process", direction=direction,
               record=rec)
    assert_bit_identical(vec, proc)
    assert rec.events == rec_vec.events
    vec_d = run_direction(PUSH_ELIGIBLE[algo], medium_graph, config, direction)
    assert proc.extra["direction_trace"] == vec_d.extra["direction_trace"]
    assert proc.extra["push_iterations"] == vec_d.extra["push_iterations"]


# ---------------------------------------------------------------------------
# the heuristic: pure, thresholded, logged
# ---------------------------------------------------------------------------

class TestChooseDirection:
    def _args(self, active, config):
        n, m = 100, 1000
        out_deg = np.full(n, 5, dtype=np.int64)
        in_deg = np.full(n, 5, dtype=np.int64)
        return (np.asarray(active, dtype=np.int64), out_deg, in_deg,
                m, n, config)

    def test_forced_directions(self):
        config = EngineConfig()
        ids, od, idg, m, n, cfg = self._args([0, 1], config)
        assert choose_direction("pull", ids, od, idg, m, n, cfg, True) == "pull"
        assert choose_direction("push", ids, od, idg, m, n, cfg, True) == "push"
        # Ineligibility pins pull no matter what was asked for upstream.
        assert choose_direction("auto", ids, od, idg, m, n, cfg, False) == "pull"

    def test_auto_thresholds(self):
        config = EngineConfig()
        # 2 active vertices: touched mass = 2*(5+5) = 20; 20*14 < 1000
        # and 2*24 < 100 -> push.
        ids, od, idg, m, n, cfg = self._args([0, 1], config)
        assert choose_direction("auto", ids, od, idg, m, n, cfg, True) == "push"
        # 5 active: 5*24 >= 100 fails the beta gate -> pull.
        ids, od, idg, m, n, cfg = self._args([0, 1, 2, 3, 4], config)
        assert choose_direction("auto", ids, od, idg, m, n, cfg, True) == "pull"

    def test_alpha_gate(self):
        # Tighten alpha until the edge-mass gate rejects the same frontier.
        strict = EngineConfig(direction_alpha=1000.0)
        ids, od, idg, m, n, cfg = self._args([0, 1], strict)
        assert choose_direction("auto", ids, od, idg, m, n, cfg, True) == "pull"

    def test_pure_function(self):
        config = EngineConfig()
        args = self._args([0, 1, 2], config)
        first = choose_direction("auto", *args, True)
        assert all(choose_direction("auto", *args, True) == first
                   for _ in range(5))

    def test_config_validates_thresholds(self):
        with pytest.raises(ValueError, match="direction_alpha"):
            EngineConfig(direction_alpha=0.0)
        with pytest.raises(ValueError, match="direction_beta"):
            EngineConfig(direction_beta=-1.0)


def test_forced_switch_trace(medium_graph):
    """A hybrid run that actually switches logs every decision in its
    telemetry spans and reproduces the same trace on rerun."""
    # Generous thresholds make the shrinking frontier cross into push
    # territory mid-run.
    config = EngineConfig(threads=4, seed=0, jitter=0.5,
                          direction_alpha=1.0, direction_beta=1.0)

    def one_run():
        sink = Telemetry()
        res = run_direction(PUSH_ELIGIBLE["wcc"], medium_graph, config,
                            "auto", telemetry=sink)
        return res, [s.extra["direction"] for s in sink.spans]

    res_a, spans_a = one_run()
    res_b, spans_b = one_run()
    assert spans_a == res_a.extra["direction_trace"]
    assert spans_a == spans_b
    assert "push" in spans_a and "pull" in spans_a, (
        "expected a mid-run direction switch; got " + " ".join(spans_a))
    assert_bit_identical(res_a, res_b)


# ---------------------------------------------------------------------------
# eligibility gate + runner plumbing
# ---------------------------------------------------------------------------

class TestEligibilityGate:
    @pytest.mark.parametrize("algo", sorted(PUSH_ELIGIBLE))
    def test_min_combine_kernels_eligible(self, algo):
        assert push_fallback_reasons(PUSH_ELIGIBLE[algo]()) == []

    @pytest.mark.parametrize("algo", sorted(PULL_ONLY))
    def test_pull_only_kernels_report_why(self, algo):
        reasons = push_fallback_reasons(PULL_ONLY[algo]())
        assert reasons
        assert any("push_combines" in r or "idempotent" in r for r in reasons)

    def test_push_direction_raises_for_ineligible(self, medium_graph):
        with pytest.raises(ValueError, match="not eligible for the push"):
            run_direction(PULL_ONLY["pagerank"], medium_graph,
                          EngineConfig(), "push")

    def test_auto_pins_pull_for_ineligible(self, medium_graph):
        config = EngineConfig(threads=4, seed=0, jitter=0.5)
        pull = run_direction(PULL_ONLY["pagerank"], medium_graph, config,
                             "pull")
        auto = run_direction(PULL_ONLY["pagerank"], medium_graph, config,
                             "auto")
        assert_bit_identical(pull, auto)
        assert auto.extra["push_iterations"] == 0
        assert set(auto.extra["direction_trace"]) == {"pull"}


class TestRunnerPlumbing:
    def test_unknown_direction(self, medium_graph):
        with pytest.raises(ValueError, match="direction='sideways'"):
            run(WeaklyConnectedComponents(), medium_graph,
                mode="nondeterministic", direction="sideways")

    def test_direction_requires_nondet_mode(self, medium_graph):
        # sync, deterministic and chromatic take a direction on their
        # array plans.
        with pytest.raises(ValueError, match="nondeterministic"):
            run(WeaklyConnectedComponents(), medium_graph, mode="pure-async",
                direction="auto")

    def test_direction_composes_with_fault_kwargs(self, medium_graph,
                                                  tmp_path):
        """A hybrid run crashed at barrier 2 and resumed from its
        checkpoint replays the uninterrupted one."""
        from repro.robust import ConvergenceFailure, DegradationPolicy

        config = EngineConfig(threads=4, seed=3, jitter=0.5,
                              direction_alpha=1.0, direction_beta=1.0)
        tel = Telemetry()
        clean = run_direction(PUSH_ELIGIBLE["sssp"], medium_graph, config,
                              "auto", telemetry=tel)
        ck = str(tmp_path / "hybrid.ckpt")
        with pytest.raises(ConvergenceFailure):
            run_direction(PUSH_ELIGIBLE["sssp"], medium_graph, config, "auto",
                          faults="crash@2", checkpoint=ck,
                          policy=DegradationPolicy(max_restarts=0))
        res = run_direction(PUSH_ELIGIBLE["sssp"], medium_graph, config,
                            "auto", resume_from=ck)
        for f in clean.state.vertex_field_names:
            assert np.array_equal(res.state.vertex(f), clean.state.vertex(f))
        for f in clean.state.edge_field_names:
            assert np.array_equal(res.state.edge(f), clean.state.edge(f))
        assert res.conflicts.summary() == clean.conflicts.summary()
        assert res.conflicts.per_iteration == clean.conflicts.per_iteration
        # The resumed call reports what it executed: barriers 2 onwards.
        assert res.num_iterations == clean.num_iterations
        trace = clean.extra["direction_trace"]
        assert {"push", "pull"} <= set(trace[2:])
        assert res.extra["direction_trace"] == trace[2:]
        assert res.extra["fixpoint_passes"] == sum(
            s.extra["fixpoint_passes"] for s in tel.spans[2:])

    def test_direction_implies_fast_path(self, medium_graph):
        """Without vectorized=/backend=, a non-default direction routes
        through the fast path instead of silently running the object
        engine (which has no dense/sparse distinction)."""
        res = run(WeaklyConnectedComponents(), medium_graph,
                  mode="nondeterministic", direction="auto")
        assert res.extra.get("vectorized") is True
        assert "direction_trace" in res.extra


def test_bench_suite_emits_hybrid_cells():
    from repro.experiments.benchtrack import run_nondet_suite

    results = run_nondet_suite(scales=(6,), direction="auto")
    assert results["direction"] == "auto"
    cells = results["scales"]["6"]["algorithms"]
    for name in PUSH_ELIGIBLE:
        assert "vectorized_auto" in cells[name], name
        assert cells[name]["direction_speedup"] > 0
        assert cells[name]["vectorized_auto"]["converged"]
    for name in PULL_ONLY:
        assert "vectorized_auto" not in cells[name], name
