"""The paper's artifacts on the array engines, held to the object engines.

Every Fig. 3 cell (NE and DE), every Table II/III cell (DE with
``fp_noise`` included), the Fig. 3 explain mode and the A2/A3 ablations
run with ``vectorized="require"``.
The DE baseline — GraphChi's one-update-at-a-time, ascending-label,
immediately-visible Gauss–Seidel — is Defs. 1–3 at P = 1, so it runs as
the array engines' sequential plan at one thread; chromatic is the same
plan keyed by the colouring; BSP runs as their barrier plan, in which no
write is seen before the barrier (DESIGN §6.0).  The object engines stay
the oracle:

(a) a generated-input property holds the array DE, chromatic and BSP
    to :class:`~repro.engine.gauss_seidel.DeterministicEngine` (given
    the colouring for chromatic) and
    :class:`~repro.engine.sync_engine.SynchronousEngine`;
(b) every driver's output is byte-equal to the same driver with its
    ``run`` forced onto the object engines (:func:`on_object_engines`);
(c) what those plans do not model is refused by name;
(d) a supervised array DE, chromatic or BSP run resumed from any barrier replays
    the uninterrupted run, and the watchdog's deterministic fallback
    still runs the object engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import MaxLabelPropagation, PageRank
from repro.analysis import variation
from repro.engine import EngineConfig, Refused, run
from repro.engine.atomicity import AtomicityPolicy
from repro.engine.capabilities import FALLBACK_MODES
from repro.engine.dispatch import DispatchPolicy
from repro.engine.gauss_seidel import DeterministicEngine
from repro.engine.sync_engine import SynchronousEngine
from repro.experiments import (
    ablations,
    figure3,
    run_delay_sweep,
    run_dispatch_study,
    run_figure3,
    run_figure3_explain,
    run_table2,
    run_table3,
)
from repro.graph import DiGraph, generators
from repro.graph.coloring import greedy_coloring
from repro.obs import Recorder, Telemetry
from repro.perf import price_run
from repro.robust import (
    ConvergenceFailure,
    ConvergenceWatchdog,
    DegradationPolicy,
    WatchdogVerdict,
)

from .test_nondet_vectorized import ALGORITHMS

#: The modules whose ``run`` the experiment drivers call.
DRIVER_MODULES = (figure3, variation, ablations)

#: The race-free array plans (DE, BSP, chromatic) and their object oracles.
ORACLES = {"deterministic": DeterministicEngine().run,
           "sync": SynchronousEngine().run,
           "chromatic": lambda program, graph, config, **kw: (
               DeterministicEngine().run(program, graph, config,
                                         colors=greedy_coloring(graph), **kw))}


def per_schedule(argnames, cases):
    """Parametrize ``mode`` plus ``argnames`` over the plans: each
    ``(id, values)`` case keeps its id for DE and gets the mode as a
    prefix otherwise (``sync-``, ``chromatic-``)."""
    return pytest.mark.parametrize(("mode", *argnames), [
        pytest.param(mode, *values,
                     id=("" if mode == "deterministic" else f"{mode}-")
                     + case_id)
        for mode in ORACLES for case_id, values in cases])


def object_run(*args, **kwargs):
    """``run`` with the array path switched off."""
    return run(*args, **{**kwargs, "vectorized": False})


def on_object_engines(monkeypatch) -> None:
    """Point every experiment driver at the object engines (the oracle)."""
    for module in DRIVER_MODULES:
        monkeypatch.setattr(module, "run", object_run)


def assert_same_run(obj, obj_sink, arr, arr_sink):
    """The array DE, BSP or chromatic run equals the object one in
    everything the paper's drivers and the cost model read."""
    assert obj.mode == arr.mode
    assert arr.config == obj.config
    for f in obj.state.vertex_field_names:
        assert arr.state.vertex(f).tobytes() == obj.state.vertex(f).tobytes(), f
    for f in obj.state.edge_field_names:
        assert arr.state.edge(f).tobytes() == obj.state.edge(f).tobytes(), f
    assert (arr.converged, arr.num_iterations) == (obj.converged,
                                                   obj.num_iterations)
    assert arr.iterations == obj.iterations
    threads = 1 if arr.mode == "deterministic" else arr.config.threads
    assert all(len(it.updates_per_thread) == threads for it in arr.iterations)
    assert arr.conflicts.summary() == obj.conflicts.summary()
    assert not any(arr.conflicts.summary().values())
    assert arr_sink.iteration_stats() == obj_sink.iteration_stats()
    assert arr_sink.run_meta == obj_sink.run_meta
    assert (price_run(arr, algorithm="a", graph="g", telemetry=arr_sink)
            == price_run(obj, algorithm="a", graph="g", telemetry=obj_sink))


def oracle_pair(mode, factory, graph, config, **kwargs):
    obj_sink, arr_sink = Telemetry(), Telemetry()
    obj = ORACLES[mode](factory(), graph, config, telemetry=obj_sink)
    arr = run(factory(), graph, mode=mode, config=config,
              vectorized="require", telemetry=arr_sink, **kwargs)
    assert arr.extra["vectorized"] is True
    return obj, obj_sink, arr, arr_sink


# ---------------------------------------------------------------------------
# (a) the array DE and BSP are the object DE and BSP
# ---------------------------------------------------------------------------

@st.composite
def cases(draw):
    """A small multigraph (self-loops, parallel edges, isolated vertices;
    vertex 0, the traversals' source, has an out-edge) and a config whose
    NE-only knobs — threads, delay, jitter, dispatch, atomicity — must
    change nothing but the priced thread count (DE) or the per-thread
    work accounting (BSP)."""
    n = draw(st.integers(2, 12))
    edges = [(0, 1)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=36))
    graph = DiGraph(n, np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64))
    config = EngineConfig(
        threads=draw(st.sampled_from([1, 4, 16])),
        seed=draw(st.integers(0, 2**16)),
        delay=draw(st.sampled_from([1.0, 3.0])),
        jitter=draw(st.sampled_from([0.0, 0.5])),
        dispatch=draw(st.sampled_from(list(DispatchPolicy))),
        atomicity=draw(st.sampled_from(list(AtomicityPolicy))))
    return graph, config


ALGOS = [(algo, (algo,)) for algo in sorted(ALGORITHMS)]


@per_schedule(["algo"], ALGOS)
@settings(max_examples=60, deadline=None)
@given(case=cases(), direction=st.sampled_from(["pull", "auto"]))
def test_array_de_equals_object_de(mode, algo, case, direction):
    graph, config = case
    assert_same_run(*oracle_pair(mode, ALGORITHMS[algo], graph, config,
                                 direction=direction))


@per_schedule(["algo"], ALGOS)
def test_array_de_equals_object_de_on_a_stand_in(mode, algo):
    graph = generators.rmat(8, 8.0, seed=3)
    assert_same_run(*oracle_pair(mode, ALGORITHMS[algo], graph,
                                 EngineConfig(seed=1)))


# ---------------------------------------------------------------------------
# (b) every driver's output is byte-equal to the object-engine path
# ---------------------------------------------------------------------------

@pytest.fixture
def array_runs(monkeypatch):
    """Spy on the drivers' runs: which of them took the array path."""
    taken = []

    def spy(*args, **kwargs):
        res = run(*args, **kwargs)
        taken.append(bool(res.extra.get("vectorized")))
        return res

    for module in DRIVER_MODULES:
        monkeypatch.setattr(module, "run", spy)
    return taken


def both_paths(monkeypatch, array_runs, driver):
    """``driver()`` on the array path, then on the object engines."""
    fast = driver()
    assert array_runs, "the driver made no engine run"
    on_object_engines(monkeypatch)
    return fast, driver()


def test_figure3_is_byte_equal(monkeypatch, array_runs):
    fast, slow = both_paths(monkeypatch, array_runs,
                            lambda: run_figure3(scale=6))
    assert all(array_runs)  # DE cells included
    assert len(fast.rows) == 4 * 4 * (1 + 3 * 3)
    assert fast.rows == slow.rows
    assert fast.render() == slow.render()


@pytest.mark.parametrize("driver", [run_table2, run_table3])
def test_variance_tables_are_byte_equal(monkeypatch, array_runs, driver):
    fast, slow = both_paths(monkeypatch, array_runs,
                            lambda: driver(scale=7, runs=2))
    # Every cell takes the array path, DE (fp_noise) included.
    assert all(array_runs)
    assert len(array_runs) == len(fast.studies) * 2 * 4
    assert fast.render() == slow.render()


@pytest.mark.parametrize("driver", [
    lambda: run_delay_sweep(scale=7, delays=(1, 4, 16), seeds=(0, 1)),
    lambda: run_dispatch_study(scale=7, seeds=(0, 1)),
], ids=["A2", "A3"])
def test_ablations_are_byte_equal(monkeypatch, array_runs, driver):
    fast, slow = both_paths(monkeypatch, array_runs, driver)
    assert all(array_runs)
    assert fast.rows == slow.rows
    assert fast.render() == slow.render()


def test_figure3_explain_is_byte_equal(monkeypatch, array_runs):
    graphs = {"rmat": generators.rmat(6, 8.0, seed=3)}
    fast, slow = both_paths(monkeypatch, array_runs, lambda: run_figure3_explain(
        algorithms={"PageRank": PageRank}, graphs=graphs))
    assert all(array_runs)
    assert fast == slow


# ---------------------------------------------------------------------------
# (c) what the array DE and BSP do not model is refused by name
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_graph():
    return generators.rmat(6, 8.0, seed=3)


REFUSED = [{"validate_scope": True, "fp_noise": True},
           {"validate_scope": True}, {"record": True}]


@per_schedule(["program", "kwargs", "reason"], [
    (f"{program.__name__}-kwargs{i}-{reason}", (program, kwargs, reason))
    for i, (program, kwargs, reason) in enumerate([
        (PageRank, REFUSED[0], "validate_scope"),
        (PageRank, REFUSED[1], "validate_scope"),
        (PageRank, REFUSED[2], "record="),
        (MaxLabelPropagation, {}, "no vectorized nondet kernel"),
    ])])
def test_require_refuses_with_the_reason(small_graph, mode, program, kwargs,
                                         reason):
    with pytest.raises(ValueError, match=reason):
        run(program(), small_graph, mode=mode, vectorized="require",
            **kwargs)


@per_schedule(["kwargs"], [(f"kwargs{i}", (kwargs,))
                           for i, kwargs in enumerate(REFUSED)])
def test_true_falls_back_with_an_event(small_graph, mode, kwargs):
    sink = Telemetry()
    res = run(PageRank(), small_graph, mode=mode, vectorized=True,
              telemetry=sink, **kwargs)
    ref = run(PageRank(), small_graph, mode=mode, **kwargs)
    assert "vectorized" not in res.extra
    events = [r for r in sink.records if r.get("name") == "vectorized_fallback"]
    assert len(events) == 1 and events[0]["reasons"]
    assert res.result().tobytes() == ref.result().tobytes()


def test_races_are_not_a_reason(small_graph):
    """DE has no races: torn values and conflict events are moot."""
    config = EngineConfig(atomicity=AtomicityPolicy.NONE,
                          keep_conflict_events=True)
    assert_same_run(*oracle_pair("deterministic", PageRank, small_graph,
                                 config))


def test_other_modes_still_refuse(small_graph):
    with pytest.raises(ValueError, match="'deterministic' only"):
        run(PageRank(), small_graph, mode="pure-async", vectorized=True)


# ---------------------------------------------------------------------------
# (d) what dispatch serves: supervised, checkpointed, resumed, degraded
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(ORACLES))
def test_resume_from_every_barrier_is_bit_identical(tmp_path, mode):
    graph = generators.rmat(7, 8.0, seed=3)
    config = EngineConfig(seed=2)
    obj = run(PageRank(epsilon=1e-2), graph, mode=mode, config=config)
    whole = run(PageRank(epsilon=1e-2), graph, mode=mode,
                config=config, vectorized=True,
                checkpoint=str(tmp_path / "whole.ckpt"), checkpoint_every=1)
    assert whole.extra["vectorized"] is True
    assert whole.num_iterations == obj.num_iterations > 3
    assert whole.result().tobytes() == obj.result().tobytes()
    for k in range(1, obj.num_iterations):
        ck = str(tmp_path / f"at{k}.ckpt")
        with pytest.raises(ConvergenceFailure):
            run(PageRank(epsilon=1e-2), graph, mode=mode,
                config=config, vectorized=True, faults=f"crash@{k}",
                checkpoint=ck, policy=DegradationPolicy(max_restarts=0))
        res = run(PageRank(epsilon=1e-2), graph, mode=mode,
                  vectorized=True, resume_from=ck)
        assert res.extra["vectorized"] is True
        assert (res.num_iterations, res.converged) == (obj.num_iterations,
                                                       obj.converged)
        assert res.result().tobytes() == obj.result().tobytes(), k


class TripsOnce(ConvergenceWatchdog):
    """Alarms at the first barrier it sees, never again."""

    def observe(self, iteration, **kwargs):
        if getattr(self, "tripped", False):
            return None
        self.tripped = True
        return WatchdogVerdict("stall", iteration, "test alarm")


def test_deterministic_fallback_runs_the_object_engine(monkeypatch,
                                                       small_graph):
    from repro.robust import supervisor

    attempts = []
    dispatch = supervisor.dispatch

    def spy(program, graph, spec):
        attempts.append((spec.mode, spec.vectorized))
        return dispatch(program, graph, spec)

    monkeypatch.setattr(supervisor, "dispatch", spy)
    res = run(PageRank(), small_graph, mode="nondeterministic",
              vectorized=True, watchdog=TripsOnce(oscillation=False),
              policy=DegradationPolicy(fallback_mode="deterministic"))
    assert attempts == [("nondeterministic", True), ("deterministic", False)]
    assert res.mode == "deterministic" and res.converged
    assert "vectorized" not in res.extra
    assert [d["action"] for d in res.extra["degradations"]] == [
        "fallback:deterministic"]


@pytest.mark.parametrize("fallback", FALLBACK_MODES)
def test_delta_watchdog_fallback_is_a_typed_refusal(small_graph, fallback):
    """The last rung would hand the delta cut (x, accum, Δ) to an engine
    that takes a program state: it refuses with the reason instead."""
    with pytest.raises(Refused, match="cannot run the delta cut") as refused:
        run(PageRank(), small_graph, mode="delta",
            watchdog=TripsOnce(oscillation=False),
            policy=DegradationPolicy(escalate_atomicity=False,
                                     fallback_mode=fallback))
    assert f"fallback_mode={fallback!r}" in refused.value.reason
