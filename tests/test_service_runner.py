"""Job-runner processes: the relay, the death of a runner, the spy.

The death of the whole *service* lives in ``test_service_crash.py``;
here the service survives and one of its runner processes does not.
"""

from __future__ import annotations

import glob
import hashlib
import os
import signal
import time

import numpy as np
import pytest

from repro import cli
from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph.mutations import BATCH_SPEC, batches_from_spec
from repro.obs import read_trace
from repro.obs.recorder import Recorder
from repro.service import GraphRegistry, GraphService, JobSpec, JobState
from repro.service.jobs import Job, reduce_records
from repro.service.runner import run_job

WEB_SPEC = {"dataset": "web-google-mini", "scale": 9, "seed": 7}
JOB = {"algorithm": "PageRank", "graph": "web",
       "config": {"seed": 4, "threads": 2}, "record": "conflicts",
       "throttle_s": 0.2}


@pytest.fixture
def service(tmp_path):
    svc = GraphService(tmp_path / "svc", max_concurrent=1)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    yield svc
    svc.shutdown(drain=True, timeout=60)


def _kill_runner_after_checkpoint(svc, jid, attempt) -> int:
    """SIGKILL the runner of ``jid``'s attempt ``attempt`` once that
    attempt has journaled a barrier; returns the pid."""
    deadline = time.monotonic() + 60
    seen = svc.status(jid)["iteration"] if attempt > 1 else -1
    while True:
        assert time.monotonic() < deadline, "attempt never reached a barrier"
        status = svc.status(jid)
        runner = svc.health()["runners"][0]
        if (status["attempts"] == attempt and runner["job_id"] == jid
                and status["checkpoint_iteration"] is not None
                and status["iteration"] > seen):
            os.kill(runner["pid"], signal.SIGKILL)
            return runner["pid"]
        time.sleep(0.02)


@pytest.mark.chaos
def test_sigkill_runner_mid_job_resumes_bit_identically(service, tmp_path):
    jid = service.submit(JOB)
    killed_pid = _kill_runner_after_checkpoint(service, jid, attempt=1)
    status = service.status(jid, wait=30)
    assert status["state"] == JobState.DONE, status.get("error")
    assert status["attempts"] == 2 and status["resumed"]
    result = service.result(jid)
    assert result["resumed"] and result["runner_pid"] != killed_pid

    graph = service.graphs.get("web")
    solo_trace = str(tmp_path / "solo.jsonl")
    solo = run(PageRank(), graph, mode="nondeterministic",
               config=EngineConfig(seed=4, threads=2),
               record=Recorder(policy="conflicts", trace_path=solo_trace))
    arr = np.ascontiguousarray(solo.result())
    assert result["state_sha256"] == hashlib.sha256(arr.tobytes()).hexdigest()
    assert result["conflicts"] == solo.conflicts.summary()

    # the killed attempt's recorder trace stitched to the resumed one's
    # is the uninterrupted run's provenance, event for event
    jdir = service.job_dir(jid)
    stitched = str(tmp_path / "stitched.jsonl")
    killed, resumed = (os.path.join(jdir, f"record-{k}.jsonl") for k in (1, 2))
    assert cli.main(["trace", "stitch", killed, resumed, "-o", stitched]) == 0

    def provenance(path):
        return [r for r in read_trace(path) if r.get("type") == "provenance"]

    assert provenance(stitched) == provenance(solo_trace)

    # the death is on the record, the slot is not lost, nothing leaks
    records = list(service.journal.records())
    died = [r for r in records if r["type"] == "runner_died"]
    assert [(r["job"], r["exitcode"], r["attempt"]) for r in died] == \
        [(jid, -signal.SIGKILL, 1)]
    starts = [r for r in records if r["type"] == "start"]
    assert [r["runner_pid"] for r in starts] == \
        [killed_pid, result["runner_pid"]]
    assert [r["resumed"] for r in starts] == [False, True]
    assert "service_runner_restarts_total 1" in service.metrics.to_prometheus()
    nxt = service.submit({"algorithm": "WCC", "graph": "web"})
    assert service.status(nxt, wait=30)["state"] == JobState.DONE
    assert service.result(nxt)["runner_pid"] == result["runner_pid"]
    assert glob.glob(f"/dev/shm/repro-pool-{service.namespace}-*") == []
    assert [f for f in os.listdir(jdir) if ".tmp." in f] == []


@pytest.mark.chaos
def test_sigkill_runner_mid_delta_job_resumes_bit_identically(service):
    """A delta job checkpoints its cut and batch cursor at every barrier
    like any other job: killed with -9, it resumes to the solo run."""
    jid = service.submit({"algorithm": "WCC", "graph": "web",
                          "mode": "delta", "mutations": dict(BATCH_SPEC),
                          "config": {"seed": 4}, "throttle_s": 0.1})
    _kill_runner_after_checkpoint(service, jid, attempt=1)
    status = service.status(jid, wait=30)
    assert status["state"] == JobState.DONE, status.get("error")
    assert status["attempts"] == 2 and status["resumed"]
    result = service.result(jid)
    assert result["resumed"]

    graph = service.graphs.get("web")
    solo = run(WeaklyConnectedComponents(), graph, mode="delta",
               config=EngineConfig(seed=4),
               mutations=batches_from_spec(graph, BATCH_SPEC))
    arr = np.ascontiguousarray(solo.result())
    assert result["state_sha256"] == hashlib.sha256(arr.tobytes()).hexdigest()
    assert result["delta"] == solo.extra["delta"]
    untimed = ("seeds", "repair_seconds")
    assert [{k: v for k, v in m.items() if k not in untimed}
            for m in result["mutations"]] == \
        [{k: v for k, v in m.items() if k not in untimed}
         for m in solo.extra["mutations"]]


@pytest.mark.chaos
def test_runner_killed_past_max_restarts_fails_with_runner_died(service):
    jid = service.submit({**JOB, "record": None, "max_restarts": 1})
    for attempt in (1, 2):
        _kill_runner_after_checkpoint(service, jid, attempt)
    status = service.status(jid, wait=30)
    assert status["state"] == JobState.FAILED
    assert "RunnerDied" in status["error"] and "-9" in status["error"]
    # the slot got a fresh runner all the same
    nxt = service.submit({"algorithm": "WCC", "graph": "web"})
    assert service.status(nxt, wait=30)["state"] == JobState.DONE


@pytest.mark.chaos
def test_sigterm_is_ignored_by_initial_and_respawned_runners(service):
    """A group-wide SIGTERM is the service's to handle (it drains over
    the pipe).  The respawned runner is forked after ``repro serve``
    installed its handler and must not keep it."""
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        jid = service.submit({**JOB, "record": None})
        while service.health()["runners"][0]["job_id"] != jid:
            time.sleep(0.02)
        first = service.health()["runners"][0]["pid"]
        os.kill(first, signal.SIGTERM)
        assert _kill_runner_after_checkpoint(service, jid, attempt=1) == first
        while service.status(jid)["attempts"] != 2:
            time.sleep(0.02)
        second = service.health()["runners"][0]["pid"]
        os.kill(second, signal.SIGTERM)
        status = service.status(jid, wait=30)
        assert status["state"] == JobState.DONE, status.get("error")
        assert status["attempts"] == 2
        assert service.result(jid)["runner_pid"] == second != first
    finally:
        signal.signal(signal.SIGTERM, previous)


def test_process_backend_job_runs_inside_a_runner(service):
    """A runner is itself a parent: the process backend's pool workers
    start under it and leave nothing behind."""
    jid = service.submit({"algorithm": "PageRank", "graph": "web",
                          "backend": "process",
                          "config": {"seed": 2, "threads": 2}})
    status = service.status(jid, wait=60)
    assert status["state"] == JobState.DONE, status.get("error")
    solo = run(PageRank(), service.graphs.get("web"), mode="nondeterministic",
               config=EngineConfig(seed=2, threads=2))
    arr = np.ascontiguousarray(solo.result())
    assert service.result(jid)["state_sha256"] == \
        hashlib.sha256(arr.tobytes()).hexdigest()
    assert glob.glob(f"/dev/shm/repro-pool-{service.namespace}-*") == []


def test_health_and_metrics_describe_the_runners(service):
    runners = service.health()["runners"]
    assert [r["slot"] for r in runners] == [0]
    assert runners[0]["alive"] and runners[0]["job_id"] is None
    assert runners[0]["pid"] != os.getpid() and runners[0]["jobs_run"] == 0
    jid = service.submit({"algorithm": "PageRank", "graph": "web",
                          "throttle_s": 0.1})
    deadline = time.monotonic() + 30
    while service.health()["runners"][0]["job_id"] != jid:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert "service_jobs_running 1" in service.metrics.to_prometheus()
    service.cancel(jid)
    assert service.status(jid, wait=30)["state"] == JobState.CANCELLED
    deadline = time.monotonic() + 30
    while service.health()["runners"][0]["job_id"] is not None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    assert service.health()["runners"][0]["jobs_run"] == 1
    assert "service_jobs_running 0" in service.metrics.to_prometheus()


def test_runner_died_record_passes_through_the_reducer():
    spec = JobSpec.from_dict({"job_id": "j0001-abcd", "algorithm": "WCC",
                              "graph": "web"})
    jobs = {spec.job_id: Job(spec=spec, state=JobState.RUNNING, attempts=1)}
    before = jobs[spec.job_id].to_state_dict()
    reduce_records(jobs, [{"seq": 9, "type": "runner_died", "job": spec.job_id,
                           "exitcode": -9, "attempt": 1}])
    assert jobs[spec.job_id].to_state_dict() == before


def test_barrier_message_follows_its_checkpoint(tmp_path, monkeypatch):
    """Runner-side half of WAL invariant 2, by call-order spy: the
    ``barrier`` message naming checkpoint *k* is sent only after
    ``save_checkpoint`` for *k* returned — which is why the service may
    journal it on receipt without acknowledging anything."""
    from repro.storage import checkpoint as ckpt_mod

    events = []
    real_save = ckpt_mod.save_checkpoint

    def spy_save(path, ckpt):
        real_save(path, ckpt)
        events.append(("saved", ckpt.iteration))

    class FakeConnection:
        def send(self, msg):
            events.append(msg)

        def poll(self, timeout=0.0):
            return False

    monkeypatch.setattr(ckpt_mod, "save_checkpoint", spy_save)
    spec = JobSpec.from_dict({
        "job_id": "j0001-abcd", "algorithm": "PageRank", "graph": WEB_SPEC,
        "config": {"seed": 1, "threads": 2}, "checkpoint_every": 2})
    jdir = str(tmp_path / "jobs" / spec.job_id)
    assert run_job(FakeConnection(), GraphRegistry(tmp_path / "graphs.json"),
                   jdir, "test-" + spec.job_id, spec, 1, None)

    assert events[-1][0] == "done" and events[-1][1]["attempts"] == 1
    barriers = [e for e in events if e[0] == "barrier"]
    assert [b[1] for b in barriers] == list(range(len(barriers)))
    claimed = [b[3] for b in barriers if b[3] is not None]
    assert claimed == list(range(2, len(barriers) + 1, 2))
    for k in claimed:
        barrier = next(b for b in barriers if b[3] == k)
        assert events.index(("saved", k)) < events.index(barrier), \
            f"barrier claimed checkpoint {k} before it was durable"
