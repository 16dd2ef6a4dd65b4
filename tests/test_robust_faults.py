"""Fault-injection layer: plan parsing, each fault kind, engine matrix.

The chaos-marked matrix at the bottom (also run by the CI ``chaos`` job)
drives every engine through crash, stall, and torn-write plans on an
RMAT-8 graph and asserts the supervised loop always reaches a converged
result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph import generators
from repro.robust import (
    ConvergenceFailure,
    Fault,
    FaultPlan,
    InjectedCrash,
    WorkerTimeout,
)


# ----------------------------------------------------------------------
# plan construction and parsing
# ----------------------------------------------------------------------
def test_spec_grammar_all_kinds():
    plan = FaultPlan.from_spec(
        "crash@3; crash@4:t1, stall@2:t0:0.5; torn@4:weight:e7;"
        "lost@5:0.5, delay@6:x4"
    )
    kinds = [(f.kind, f.iteration) for f in plan.faults]
    assert kinds == [
        ("crash", 3), ("crash", 4), ("stall", 2),
        ("torn_write", 4), ("lost_update", 5), ("delay", 6),
    ]
    assert plan.faults[1].thread == 1
    assert plan.faults[2].thread == 0 and plan.faults[2].seconds == 0.5
    assert plan.faults[3].field == "weight" and plan.faults[3].eid == 7
    assert plan.faults[4].fraction == 0.5
    assert plan.faults[5].factor == 4.0


def test_spec_passthrough_and_lists():
    plan = FaultPlan([Fault("crash", 2)], seed=9)
    assert FaultPlan.from_spec(plan) is plan
    mixed = FaultPlan.from_spec(
        [Fault("stall", 1), {"kind": "torn", "iteration": 2}, "lost@3"])
    assert [f.kind for f in mixed.faults] == [
        "stall", "torn_write", "lost_update"]


@pytest.mark.parametrize("bad", [
    "crash",           # no @iteration
    "crash@x",         # non-int iteration
    "boom@3",          # unknown kind
    "crash@3:5.0",     # numeric opt meaningless for crash
    "crash@-1",        # negative iteration
])
def test_spec_rejects_malformed_tokens(bad):
    with pytest.raises(ValueError):
        FaultPlan.from_spec(bad)


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault("stall", 0, seconds=-1.0)
    with pytest.raises(ValueError):
        Fault("lost_update", 0, fraction=0.0)
    with pytest.raises(ValueError):
        Fault("delay", 0, factor=0.5)


def test_once_semantics():
    plan = FaultPlan.from_spec("crash@1;torn@1")
    # crash consumes on firing, torn re-arms
    (i, f), = plan.matching("crash", 1)
    plan.fire(i)
    assert list(plan.matching("crash", 1)) == []
    (j, _), = plan.matching("torn_write", 1)
    plan.fire(j)
    assert len(list(plan.matching("torn_write", 1))) == 1
    assert [e["kind"] for e in plan.fired] == ["crash", "torn_write"]


# ----------------------------------------------------------------------
# deterministic application helpers
# ----------------------------------------------------------------------
def test_drop_scatter_is_seeded_and_re_appliable():
    plan = FaultPlan.from_spec("lost@4:0.5", seed=11)
    schedule = np.arange(10, dtype=np.int64)
    kept1 = plan.drop_scatter(4, schedule.copy())
    kept2 = FaultPlan.from_spec("lost@4:0.5", seed=11).drop_scatter(
        4, schedule.copy())
    assert kept1.size == 5
    np.testing.assert_array_equal(kept1, kept2)  # resume re-applies identically
    other_seed = FaultPlan.from_spec("lost@4:0.5", seed=12).drop_scatter(
        4, schedule.copy())
    assert not np.array_equal(kept1, other_seed)


def test_delay_factor_multiplies():
    plan = FaultPlan.from_spec("delay@6:x4;delay@6:x2")
    assert plan.delay_factor(6) == 8.0
    assert plan.delay_factor(7) == 1.0


def test_delay_fault_inflates_observable_d():
    # A big transient d makes same-iteration writes invisible, which for
    # WCC shows up as extra iterations relative to the fault-free run.
    g = generators.rmat(7, 6.0, seed=2)
    base = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
               threads=4, seed=0, delay=1.0, jitter=0.0)
    slow = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
               threads=4, seed=0, delay=1.0, jitter=0.0,
               faults="delay@0:x64;delay@1:x64")
    assert slow.converged
    assert slow.num_iterations >= base.num_iterations
    assert [f["kind"] for f in slow.extra["faults_fired"]].count("delay") == 2


def test_lost_update_fault_still_converges_for_recomputable_wcc():
    # Dropping scheduled tasks violates the task-generation rule; WCC's
    # minimum is recomputable, so the run may take longer but the fault
    # alone must not wedge it (remaining tasks re-trigger neighbours).
    g = generators.rmat(7, 6.0, seed=2)
    res = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
              threads=4, seed=0, faults="lost@1:0.5")
    base = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
               threads=4, seed=0)
    assert res.converged
    np.testing.assert_array_equal(base.state.vertex("label"),
                                  res.state.vertex("label"))


def test_torn_write_fault_mutates_one_edge_value():
    g = generators.two_vertex_conflict_graph()
    res = run(WeaklyConnectedComponents(), g, mode="sync", seed=0,
              faults="torn@0:e0", max_iterations=50)
    fired = [f for f in res.extra["faults_fired"] if f["kind"] == "torn_write"]
    assert fired and fired[0]["eid"] == 0
    assert fired[0]["torn"] != fired[0]["old"]


# ----------------------------------------------------------------------
# crash recovery and restart budget
# ----------------------------------------------------------------------
def test_crash_restart_budget_exhausted():
    from repro.robust import DegradationPolicy

    g = generators.rmat(7, 6.0, seed=2)
    with pytest.raises(ConvergenceFailure):
        run(WeaklyConnectedComponents(), g, mode="nondeterministic",
            threads=4, seed=0, faults=[Fault("crash", 1, once=False)],
            policy=DegradationPolicy(max_restarts=2, backoff_s=0.0))


def test_crash_unreachable_iteration_never_fires():
    g = generators.rmat(7, 6.0, seed=2)
    res = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
              threads=4, seed=0, faults="crash@10000")
    assert res.converged
    assert res.extra["faults_fired"] == []
    assert res.extra["degradations"] == []


# ----------------------------------------------------------------------
# worker timeouts
# ----------------------------------------------------------------------
def test_worker_timeout_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(worker_timeout_s=0.0)
    with pytest.raises(ValueError):
        EngineConfig(worker_timeout_s=-3.0)


def test_worker_timeout_restarts_from_the_barrier():
    # A wedged pool worker surfaces as WorkerTimeout at a barrier; the
    # supervised loop restarts once from the barrier's restart token and
    # the run ends byte-equal to the uninterrupted one.
    from repro.robust import DegradationPolicy

    g = generators.rmat(7, 6.0, seed=2)
    base = run(WeaklyConnectedComponents(), g, mode="deterministic")
    raised = []

    def observer(iteration, state, schedule):
        if iteration == 1 and not raised:
            raised.append(iteration)
            raise WorkerTimeout("worker 0 missed the barrier",
                                iteration=iteration, stuck=(0,))

    res = run(WeaklyConnectedComponents(), g, mode="deterministic",
              observer=observer, policy=DegradationPolicy(backoff_s=0.0))
    assert raised == [1]
    assert [d["action"] for d in res.extra["degradations"]] == ["restart"]
    assert res.extra["degradations"][0]["cause"] == "WorkerTimeout"
    assert (res.converged, res.num_iterations) == (True, base.num_iterations)
    for f in base.state.vertex_field_names:
        assert base.state.vertex(f).tobytes() == res.state.vertex(f).tobytes()
    for f in base.state.edge_field_names:
        assert base.state.edge(f).tobytes() == res.state.edge(f).tobytes()


# ----------------------------------------------------------------------
# chaos matrix: every engine survives every headline plan (CI chaos job)
# ----------------------------------------------------------------------
_CHAOS_PLANS = ["crash@1", "stall@1:0.01", "torn@1"]


@pytest.mark.chaos
@pytest.mark.parametrize("plan", _CHAOS_PLANS)
@pytest.mark.parametrize("mode", [
    "sync", "deterministic", "chromatic", "nondeterministic", "pure-async",
])
def test_chaos_engine_matrix(mode, plan):
    g = generators.rmat(8, 8.0, seed=3)
    res = run(WeaklyConnectedComponents(), g, mode=mode, threads=4, seed=0,
              faults=plan)
    assert res.converged
    # crash plans that fired must have been recovered by a restart
    fired = {f["kind"] for f in res.extra["faults_fired"]}
    if "crash" in fired:
        assert any(d["action"] == "restart"
                   for d in res.extra["degradations"])


@pytest.mark.chaos
def test_chaos_vectorized_fast_path_crash():
    g = generators.rmat(8, 8.0, seed=3)
    base = run(PageRank(epsilon=1e-3), g, mode="nondeterministic",
               threads=4, seed=0, vectorized=True)
    res = run(PageRank(epsilon=1e-3), g, mode="nondeterministic",
              threads=4, seed=0, vectorized=True, faults="crash@2")
    assert res.converged
    np.testing.assert_array_equal(base.state.vertex("rank"),
                                  res.state.vertex("rank"))


def test_crash_recovery_is_bit_identical_nondet():
    g = generators.rmat(7, 6.0, seed=2)
    base = run(PageRank(epsilon=1e-3), g, mode="nondeterministic",
               threads=4, seed=0)
    res = run(PageRank(epsilon=1e-3), g, mode="nondeterministic",
              threads=4, seed=0, faults="crash@3")
    assert res.converged
    np.testing.assert_array_equal(base.state.vertex("rank"),
                                  res.state.vertex("rank"))
    assert res.extra["faults_fired"] == [
        {"kind": "crash", "iteration": 3, "thread": None}]
