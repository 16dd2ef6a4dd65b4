"""Supervisor pool: submit/run/result, concurrency isolation, drain.

The acceptance-criterion test here is byte-for-byte isolation: two jobs
running *concurrently* against the same standing graph must each equal
their solo run exactly — same state bytes, same conflict counters —
because each job gets its own RNG stream (config seed), shm namespace,
and scratch directory.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro import cli
from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.service import GraphService, JobState, ServiceBusy
from repro.service.scheduler import resolve_algorithm

WEB_SPEC = {"dataset": "web-google-mini", "scale": 9, "seed": 7}


@pytest.fixture
def service(tmp_path):
    svc = GraphService(tmp_path / "svc", max_concurrent=2)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    yield svc
    svc.shutdown(drain=True, timeout=60)


def _wait(svc, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = svc.status(job_id)
        if status["state"] in JobState.TERMINAL:
            return status
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} still {svc.status(job_id)['state']}")


def _digest(result) -> tuple[str, dict]:
    arr = np.ascontiguousarray(result.result())
    return hashlib.sha256(arr.tobytes()).hexdigest(), result.conflicts.summary()


# ----------------------------------------------------------------------
# basic lifecycle
# ----------------------------------------------------------------------
def test_submit_run_result(service):
    jid = service.submit({"algorithm": "WCC", "graph": "web",
                          "config": {"seed": 3}})
    status = _wait(service, jid)
    assert status["state"] == JobState.DONE
    result = service.result(jid)
    assert result["converged"] and result["iterations"] >= 1
    assert not result["resumed"]
    # the persisted array matches the digest the journal recorded
    arr = service.result_array(jid)
    assert hashlib.sha256(
        np.ascontiguousarray(arr).tobytes()).hexdigest() == \
        result["state_sha256"]
    # telemetry trace was written under the job's scratch dir
    assert os.path.exists(os.path.join(service.job_dir(jid),
                                       "trace-1.jsonl"))


def test_job_matches_solo_run_byte_for_byte(service):
    jid = service.submit({"algorithm": "PageRank", "graph": "web",
                          "config": {"seed": 5, "threads": 3}})
    status = _wait(service, jid)
    assert status["state"] == JobState.DONE
    graph = service.graphs.get("web")
    solo = run(PageRank(), graph, mode="nondeterministic",
               config=EngineConfig(seed=5, threads=3))
    digest, conflicts = _digest(solo)
    result = service.result(jid)
    assert result["state_sha256"] == digest
    assert result["conflicts"] == conflicts


def test_two_concurrent_jobs_match_their_solo_runs(service):
    """Acceptance criterion: concurrent jobs on one standing graph are
    bit-isolated — each equals its solo run byte-for-byte."""
    specs = [
        ("WCC", WeaklyConnectedComponents, {"seed": 11, "threads": 2}),
        ("PageRank", PageRank, {"seed": 12, "threads": 3}),
    ]
    # throttle both so their executions genuinely overlap
    jids = [service.submit({"algorithm": name, "graph": "web",
                            "config": cfg, "throttle_s": 0.05})
            for name, _, cfg in specs]
    statuses = [_wait(service, jid) for jid in jids]
    assert all(s["state"] == JobState.DONE for s in statuses)
    graph = service.graphs.get("web")
    for jid, (name, factory, cfg) in zip(jids, specs):
        solo = run(factory(), graph, mode="nondeterministic",
                   config=EngineConfig(**cfg))
        digest, conflicts = _digest(solo)
        result = service.result(jid)
        assert result["state_sha256"] == digest, f"{name} diverged"
        assert result["conflicts"] == conflicts, f"{name} conflicts diverged"
    # ... and they ran in two job-runner processes, not in this one
    pids = {service.result(jid)["runner_pid"] for jid in jids}
    assert len(pids) == 2 and os.getpid() not in pids


def test_inline_graph_spec(service):
    jid = service.submit({"algorithm": "WCC",
                          "graph": {"dataset": "web-google-mini",
                                    "scale": 8, "seed": 2},
                          "config": {"seed": 1}})
    assert _wait(service, jid)["state"] == JobState.DONE


def test_graph_registered_after_start_reaches_the_runners(service):
    """The runners were forked before this registration; their own
    registries must still find it."""
    service.graphs.register("late", {"dataset": "web-google-mini",
                                     "scale": 7, "seed": 3})
    jid = service.submit({"algorithm": "WCC", "graph": "late",
                          "config": {"seed": 1}})
    status = _wait(service, jid)
    assert status["state"] == JobState.DONE, status.get("error")
    solo = run(WeaklyConnectedComponents(), service.graphs.get("late"),
               mode="nondeterministic", config=EngineConfig(seed=1))
    assert service.result(jid)["state_sha256"] == _digest(solo)[0]


# ----------------------------------------------------------------------
# admission control and validation
# ----------------------------------------------------------------------
def test_submit_rejects_bad_specs(service):
    with pytest.raises(ValueError, match="unknown algorithm"):
        service.submit({"algorithm": "NoSuch", "graph": "web"})
    with pytest.raises(KeyError, match="no graph registered"):
        service.submit({"algorithm": "WCC", "graph": "nope"})
    with pytest.raises(ValueError, match="config key"):
        service.submit({"algorithm": "WCC", "graph": "web",
                        "config": {"evil": 1}})
    with pytest.raises(ValueError, match="pure-async"):
        service.submit({"algorithm": "WCC", "graph": "web",
                        "mode": "pure-async"})
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        service.submit({"algorithm": "WCC", "graph": "web",
                        "mode": "bogus"})
    with pytest.raises(ValueError, match="job-spec field"):
        service.submit({"algorithm": "WCC", "graph": "web",
                        "bogus_field": True})


def test_admission_control(tmp_path):
    svc = GraphService(tmp_path / "svc", max_concurrent=1, max_queue=2)
    svc.graphs.register("web", WEB_SPEC)
    # not started: nothing drains the queue, so the limit is hit cleanly
    svc.submit({"algorithm": "WCC", "graph": "web"})
    svc.submit({"algorithm": "WCC", "graph": "web"})
    with pytest.raises(ServiceBusy):
        svc.submit({"algorithm": "WCC", "graph": "web"})
    svc.journal.close()
    svc.graphs.close()


def test_resolve_algorithm_matches_cli_table():
    assert resolve_algorithm("WCC") is not None
    with pytest.raises(ValueError):
        resolve_algorithm("definitely-not-an-algorithm")


# ----------------------------------------------------------------------
# cancel and drain
# ----------------------------------------------------------------------
def test_cancel_running_job_stops_at_barrier(service):
    jid = service.submit({"algorithm": "PageRank", "graph": "web",
                          "config": {"seed": 0}, "throttle_s": 0.2})
    deadline = time.monotonic() + 30
    while service.status(jid)["iteration"] < 0:
        assert time.monotonic() < deadline, "job never reached a barrier"
        time.sleep(0.02)
    service.cancel(jid)
    status = _wait(service, jid)
    assert status["state"] == JobState.CANCELLED
    assert status["cancel_requested"]


def test_cancel_pending_job_is_immediate(tmp_path):
    svc = GraphService(tmp_path / "svc")  # not started: stays pending
    svc.graphs.register("web", WEB_SPEC)
    jid = svc.submit({"algorithm": "WCC", "graph": "web"})
    assert svc.cancel(jid)["state"] == JobState.CANCELLED
    svc.journal.close()
    svc.graphs.close()


def test_drain_then_restart_resumes_bit_identically(tmp_path):
    """Graceful shutdown = crash without the mess: the drained job stays
    ``running`` in the journal and the next incarnation finishes it from
    its checkpoint with a byte-identical outcome."""
    data_dir = tmp_path / "svc"
    svc = GraphService(data_dir, max_concurrent=1)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    jid = svc.submit({"algorithm": "PageRank", "graph": "web",
                      "config": {"seed": 9, "threads": 2},
                      "throttle_s": 0.15})
    deadline = time.monotonic() + 30
    while svc.status(jid)["checkpoint_iteration"] is None:
        assert time.monotonic() < deadline, "no checkpoint before drain"
        time.sleep(0.02)
    svc.shutdown(drain=True, timeout=60)
    assert svc.status(jid)["state"] == JobState.RUNNING  # not lost

    svc2 = GraphService(data_dir, max_concurrent=1)
    svc2.start()
    try:
        assert svc2.status(jid)["resumed"]
        status = _wait(svc2, jid)
        assert status["state"] == JobState.DONE
        result = svc2.result(jid)
        assert result["resumed"]
        solo = run(PageRank(), svc2.graphs.get("web"),
                   mode="nondeterministic",
                   config=EngineConfig(seed=9, threads=2))
        digest, conflicts = _digest(solo)
        assert result["state_sha256"] == digest
        assert result["conflicts"] == conflicts
    finally:
        svc2.shutdown(drain=True, timeout=60)


def test_submit_cancel_wait_stress_loses_no_job(service):
    """More clients than cores hammer submit / cancel / long-poll while
    two relays move jobs across the pipes: every job must end terminal
    (a cancel that raced its ``run`` message is not lost, no waiter is
    left asleep) and every ``done`` carries a result."""
    import sys

    outcomes, errors = [], []

    def client(c: int) -> None:
        try:
            for i in range(5):
                jid = service.submit({
                    "algorithm": "WCC", "graph": "web",
                    "config": {"seed": 10 * c + i}, "throttle_s": 0.01})
                if (c + i) % 2:
                    service.cancel(jid)
                outcomes.append(service.status(jid, wait=30))
        except Exception as exc:  # surfaced by the assert below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=client, args=(c,))
                   for c in range(6)]
        for t in clients:
            t.start()
        for t in clients:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in clients)
    assert len(outcomes) == 30
    for status in outcomes:
        assert status["state"] in (JobState.DONE, JobState.CANCELLED), status
        assert status["state"] == JobState.CANCELLED or "result" in status
        assert status["cancel_requested"] or status["state"] == JobState.DONE


def test_shutdown_releases_a_long_poll(tmp_path):
    svc = GraphService(tmp_path / "svc", max_concurrent=1)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    jid = svc.submit({"algorithm": "PageRank", "graph": "web",
                      "throttle_s": 0.2})
    answers = []
    poll = threading.Thread(
        target=lambda: answers.append(svc.status(jid, wait=30)))
    poll.start()
    time.sleep(0.3)
    assert poll.is_alive(), "the long-poll answered a running job early"
    svc.shutdown(drain=True, timeout=60)
    poll.join(5.0)
    assert not poll.is_alive() and answers[0]["state"] == JobState.RUNNING


# ----------------------------------------------------------------------
# recovery bookkeeping
# ----------------------------------------------------------------------
def test_recovery_finishes_cancel_requested_jobs(tmp_path):
    svc = GraphService(tmp_path / "svc")
    svc.graphs.register("web", WEB_SPEC)
    jid = svc.submit({"algorithm": "WCC", "graph": "web"})
    # simulate: cancel journaled, then the service died before acting
    svc.journal.append("start", job=jid, attempt=1)
    svc.journal.append("cancel", job=jid)
    svc.journal.close()
    svc.graphs.close()

    svc2 = GraphService(tmp_path / "svc")
    svc2.recover()
    assert svc2.jobs[jid].state == JobState.CANCELLED
    svc2.journal.close()
    svc2.graphs.close()


def test_recovery_fails_a_journaled_job_of_a_removed_mode(tmp_path):
    """A journal written before a mode was removed still replays; the
    job then fails with the runner's reason instead of wedging."""
    from repro.service import JobSpec

    data_dir = tmp_path / "svc"
    svc = GraphService(data_dir)
    svc.graphs.register("web", WEB_SPEC)
    spec = JobSpec(job_id="j0001-00aa", algorithm="WCC", graph="web",
                   mode="threads")
    svc.journal.append("submit", job=spec.job_id, spec=spec.to_dict())
    svc.journal.close()
    svc.graphs.close()

    svc2 = GraphService(data_dir, max_concurrent=1)
    svc2.start()
    try:
        status = _wait(svc2, spec.job_id)
        assert status["state"] == JobState.FAILED
        assert "unknown mode 'threads'" in status["error"]
    finally:
        svc2.shutdown(drain=True, timeout=60)


@pytest.mark.parametrize("switches", [
    {"mode": "sync", "backend": "process"},
    {"mode": "delta", "vectorized": "require"},
    {"mode": "delta", "backend": "process"},
    {"mode": "nondeterministic", "vectorized": "yes"},
    {"mode": "sync", "mutations": {"num_batches": 1}},
], ids=lambda sw: "-".join(f"{k}={v}" for k, v in sw.items()))
def test_recovery_fails_a_journaled_job_the_table_refuses(tmp_path, switches):
    """A spec the capability table refuses, journaled before it did,
    still replays; the job then fails with the table's reason."""
    from repro.engine.capabilities import Refused, check
    from repro.service import JobSpec

    spec = JobSpec(job_id="j0001-00aa", algorithm="WCC", graph="web",
                   **switches)
    with pytest.raises(Refused) as refused:
        check(WeaklyConnectedComponents(), None, spec.run_spec())
    data_dir = tmp_path / "svc"
    svc = GraphService(data_dir)
    svc.graphs.register("web", WEB_SPEC)
    svc.journal.append("submit", job=spec.job_id, spec=spec.to_dict())
    svc.journal.close()
    svc.graphs.close()

    svc2 = GraphService(data_dir, max_concurrent=1)
    svc2.start()
    try:
        status = _wait(svc2, spec.job_id)
        assert status["state"] == JobState.FAILED
        assert refused.value.reason in status["error"]
    finally:
        svc2.shutdown(drain=True, timeout=60)


def test_recovery_sweeps_job_scratch_tmp_files(tmp_path):
    svc = GraphService(tmp_path / "svc")
    svc.graphs.register("web", WEB_SPEC)
    jid = svc.submit({"algorithm": "WCC", "graph": "web"})
    jdir = svc.job_dir(jid)
    os.makedirs(jdir, exist_ok=True)
    litter = os.path.join(jdir, "state.ckpt.tmp.999")
    open(litter, "w").close()
    svc.journal.close()
    svc.graphs.close()

    svc2 = GraphService(tmp_path / "svc")
    svc2.recover()
    assert not os.path.exists(litter)
    svc2.journal.close()
    svc2.graphs.close()


def test_job_ids_are_sequential_and_unique(tmp_path):
    svc = GraphService(tmp_path / "svc")
    svc.graphs.register("web", WEB_SPEC)
    a = svc.submit({"algorithm": "WCC", "graph": "web"})
    b = svc.submit({"algorithm": "WCC", "graph": "web"})
    assert a != b and a.startswith("j0001-") and b.startswith("j0002-")
    svc.journal.close()
    svc.graphs.close()
    # a new incarnation continues the sequence past replayed ids
    svc2 = GraphService(tmp_path / "svc", max_queue=64)
    svc2.recover()
    c = svc2.submit({"algorithm": "WCC", "graph": "web"})
    assert c.startswith("j0003-")
    svc2.journal.close()
    svc2.graphs.close()


# ----------------------------------------------------------------------
# delta jobs and retention GC
# ----------------------------------------------------------------------
def test_delta_job_with_mutations(service):
    """A delta job repairs its standing result through mutation batches
    and the summary records what each repair did."""
    jid = service.submit({
        "algorithm": "PageRank", "graph": "web", "mode": "delta",
        "mutations": {"num_batches": 2, "frac": 0.01, "seed": 7},
    })
    status = _wait(service, jid)
    assert status["state"] == JobState.DONE, status.get("error")
    summary = service.result(jid)
    assert summary["delta"]["accumulation_identity"] is True
    assert len(summary["mutations"]) == 2
    for m in summary["mutations"]:
        assert m["repair_mode"] == "reseed"
    arr = service.result_array(jid)
    assert arr.shape[0] > 0 and np.all(np.isfinite(arr))

    # `repro run --mutate` expands the same batch spec the same way.
    results = []

    def spy(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    with mock.patch.object(cli, "run", spy):
        assert cli.main(["run", "PageRank", "--mode", "delta", "--scale",
                         str(WEB_SPEC["scale"]), "--seed",
                         str(WEB_SPEC["seed"]), "--mutate",
                         "--mutate-batches", "2", "--mutate-frac", "0.01",
                         "--mutate-seed", "7"]) == 0
    solo = np.ascontiguousarray(results[0].result())
    assert hashlib.sha256(solo.tobytes()).hexdigest() == \
        summary["state_sha256"]


def test_delta_spec_validation():
    from repro.service.jobs import JobSpec

    # Shape only: which switches compose is the capability table's,
    # checked at admission (tests/test_capabilities.py).
    with pytest.raises(ValueError, match="unknown mutation key"):
        JobSpec.from_dict({"job_id": "j0001-abcd", "algorithm": "WCC",
                           "graph": "web", "mode": "delta",
                           "mutations": {"frak": 0.1}})


def test_gc_sweeps_terminal_jobs(service):
    a = service.submit({"algorithm": "WCC", "graph": "web"})
    _wait(service, a)  # a must *finish* first: the sweep keeps the newest
    b = service.submit({"algorithm": "WCC", "graph": "web"})
    _wait(service, b)
    out = service.gc(max_count=1)
    assert out == {"swept": [a], "kept": 1}
    assert a not in {j["job_id"] for j in service.list_jobs()}
    assert not os.path.isdir(service.job_dir(a))
    assert os.path.isdir(service.job_dir(b))
    # idempotent: a second sweep has nothing to do
    assert service.gc(max_count=1) == {"swept": [], "kept": 1}


def test_gc_never_touches_live_jobs(service):
    jid = service.submit({"algorithm": "PageRank", "graph": "web",
                          "throttle_s": 0.2})
    deadline = time.monotonic() + 30
    while (service.status(jid)["state"] == JobState.PENDING
           and time.monotonic() < deadline):
        time.sleep(0.02)
    out = service.gc(max_age_s=0.0, max_count=0)
    assert jid not in out["swept"]
    service.cancel(jid)
    _wait(service, jid)


def test_forget_survives_restart(tmp_path):
    """A forgotten job stays forgotten after journal replay — the
    ``forget`` record is part of the durable history."""
    data_dir = tmp_path / "svc"
    svc = GraphService(data_dir, max_concurrent=1)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    jid = svc.submit({"algorithm": "WCC", "graph": "web"})
    _wait(svc, jid)
    assert svc.gc(max_age_s=0.0)["swept"] == [jid]
    svc.shutdown(drain=True, timeout=60)

    svc2 = GraphService(data_dir)
    svc2.recover()
    assert jid not in svc2.jobs
    svc2.journal.close()
    svc2.graphs.close()


def test_startup_retention_sweep(tmp_path):
    data_dir = tmp_path / "svc"
    svc = GraphService(data_dir, max_concurrent=1)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    jid = svc.submit({"algorithm": "WCC", "graph": "web"})
    _wait(svc, jid)
    svc.shutdown(drain=True, timeout=60)

    svc2 = GraphService(data_dir, retain_age_s=0.0)
    svc2.start()
    try:
        assert jid not in svc2.jobs
        assert not os.path.isdir(svc2.job_dir(jid))
    finally:
        svc2.shutdown(drain=True, timeout=60)
