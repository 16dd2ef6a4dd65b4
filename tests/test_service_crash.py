"""Chaos: SIGKILL the whole service mid-job; nothing may be lost.

A real ``repro serve`` subprocess runs a throttled, recorded PageRank
job next to a delta WCC job streaming mutation batches; we ``kill -9``
the *service process* (not a worker) between barriers — after the delta
job's first batch repair — restart it on the same data directory, and
require:

* both jobs finish with ``resumed: true``;
* their state digests are byte-identical to uninterrupted solo runs of
  the same specs (PageRank's conflict counters too, the delta job's
  facts and mutation log);
* the killed attempt's recorder trace stitched to the resumed attempt's
  (``repro trace stitch``) is event-identical to the uninterrupted
  run's provenance trace;
* no ``/dev/shm`` segment and no scratch tmp file survives — the
  restart sweeps the dead incarnation's resources;
* a second kill landing mid-checkpoint-write (simulated torn journal
  tail + checkpoint tmp litter) is tolerated, not fatal.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import cli
from repro.algorithms import PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph.datasets import load_dataset
from repro.graph.mutations import batches_from_spec
from repro.obs import read_trace
from repro.service import ServiceClient
from repro.service.scheduler import _service_namespace

pytestmark = pytest.mark.chaos

SHM_DIR = "/dev/shm"


def _shm_segments(namespace: str) -> list[str]:
    if not os.path.isdir(SHM_DIR):
        return []
    return glob.glob(os.path.join(SHM_DIR, f"repro-pool-{namespace}-*"))


def _start_service(data_dir, extra=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                      env.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--data-dir",
         str(data_dir), "--port", "0", *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    # the first line announces the ephemeral port
    deadline = time.monotonic() + 60
    line = proc.stdout.readline()
    while "listening on" not in line:
        assert time.monotonic() < deadline and proc.poll() is None, \
            f"service did not come up: {line!r}"
        line = proc.stdout.readline()
    url = line.rsplit(" ", 1)[-1].strip()
    return proc, ServiceClient(url)


def _wait_for_barrier(client, job_id, min_iteration=1, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(job_id)
        if (status["state"] == "running"
                and status["iteration"] >= min_iteration
                and status["checkpoint_iteration"] is not None):
            return status
        time.sleep(0.05)
    raise TimeoutError(f"job {job_id} never reached barrier "
                       f"{min_iteration} with a checkpoint")


def _alive(pids) -> list[int]:
    """The pids that can still run: ``os.kill(pid, 0)`` succeeds and the
    process is not a zombie waiting for a slow init to reap it."""
    alive = []
    for pid in pids:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        try:
            with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            if os.path.isdir("/proc/self"):
                continue  # reaped between the two looks
            state = "R"  # no procfs: os.kill's word stands
        if state != "Z":
            alive.append(pid)
    return alive


JOB = {
    "algorithm": "PageRank",
    "graph": {"dataset": "web-google-mini", "scale": 9, "seed": 7},
    "config": {"seed": 4, "threads": 2},
    "record": "conflicts",
    "throttle_s": 0.25,
}
#: three 2% batches: each repair touches a few vertices and reactivates
#: the run, so batch 0 lands iterations before batch 2
DELTA_JOB = {
    "algorithm": "WCC",
    "graph": JOB["graph"],
    "mode": "delta",
    "mutations": {"frac": 0.02},
    "config": {"seed": 4},
    "throttle_s": 0.25,
}


def _sha256(result) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(result.result()).tobytes()).hexdigest()


def test_sigkill_service_mid_job_resumes_bit_identically(tmp_path):
    data_dir = tmp_path / "svc"
    namespace = _service_namespace(str(data_dir))
    graph = load_dataset("web-google-mini", scale=9, seed=7)
    solo_delta = run(WeaklyConnectedComponents(), graph, mode="delta",
                     config=EngineConfig(seed=4),
                     mutations=batches_from_spec(graph,
                                                 DELTA_JOB["mutations"]))
    # the batch-0 repair runs inside iteration at_iteration - 1, before
    # that barrier's checkpoint
    first, last = (m["at_iteration"] for m in
                   solo_delta.extra["mutations"][::2])
    assert first < last

    proc, client = _start_service(data_dir)
    runner_pids = []
    try:
        jid = client.submit(JOB)
        delta_jid = client.submit(DELTA_JOB)
        _wait_for_barrier(client, jid, min_iteration=1)
        _wait_for_barrier(client, delta_jid, min_iteration=first - 1)
        runner_pids = [r["pid"] for r in client.health()["runners"]]
    finally:
        # the kill under test: the whole service, no warning, mid-job
        proc.kill()
        proc.wait(timeout=30)

    # a runner dies with its service: none may still be rewriting
    # state.ckpt when the next incarnation resumes the job
    assert len(runner_pids) == 2, "the service did not report two job runners"
    deadline = time.monotonic() + 2.0
    while _alive(runner_pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _alive(runner_pids) == [], "a job runner outlived its service"

    proc2, client2 = _start_service(data_dir)
    try:
        for job_id in (jid, delta_jid):
            status = client2.wait(job_id, timeout=120)
            assert status["state"] == "done"
            assert status["resumed"], "recovery lost the in-flight flag"

        # --- the delta job resumed from its cut and batch cursor ------
        result = client2.result(delta_jid)
        assert result["resumed"]
        assert result["state_sha256"] == _sha256(solo_delta)
        assert result["delta"] == solo_delta.extra["delta"]
        untimed = ("seeds", "repair_seconds")
        assert [{k: v for k, v in m.items() if k not in untimed}
                for m in result["mutations"]] == \
            [{k: v for k, v in m.items() if k not in untimed}
             for m in solo_delta.extra["mutations"]]

        # --- byte-identity against the uninterrupted run -------------
        result = client2.result(jid)
        assert result["resumed"]
        solo = run(PageRank(), graph, mode="nondeterministic",
                   config=EngineConfig(seed=4, threads=2))
        assert result["state_sha256"] == _sha256(solo)
        assert result["conflicts"] == solo.conflicts.summary()

        # --- stitched recorder trace == uninterrupted provenance -----
        jdir = os.path.join(data_dir, "jobs", jid)
        killed = os.path.join(jdir, "record-1.jsonl")
        resumed = os.path.join(jdir, "record-2.jsonl")
        assert os.path.exists(killed) and os.path.exists(resumed)
        stitched_path = str(tmp_path / "stitched.jsonl")
        assert cli.main(["trace", "stitch", killed, resumed,
                         "-o", stitched_path]) == 0
        solo_trace = str(tmp_path / "solo.jsonl")
        from repro.obs.recorder import Recorder

        recorder = Recorder(policy="conflicts", trace_path=solo_trace)
        run(PageRank(), graph, mode="nondeterministic",
            config=EngineConfig(seed=4, threads=2), record=recorder)

        def provenance(path):
            return [r for r in read_trace(path)
                    if r.get("type") == "provenance"]

        assert provenance(stitched_path) == provenance(solo_trace)
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=30)

    # --- resource hygiene: nothing survives the two incarnations -----
    assert _shm_segments(namespace) == [], "leaked /dev/shm segment"
    leftovers = [f for f in glob.glob(os.path.join(data_dir, "jobs",
                                                   "*", "*"))
                 if ".tmp." in os.path.basename(f)]
    assert leftovers == [], f"leaked scratch tmp files: {leftovers}"


def test_restart_tolerates_torn_journal_and_checkpoint_litter(tmp_path):
    """A kill mid-append (torn journal line) plus mid-checkpoint litter
    (stray ``*.tmp.<pid>``) must be swept, not fatal."""
    data_dir = tmp_path / "svc"
    proc, client = _start_service(data_dir)
    try:
        jid = client.submit(JOB)
        _wait_for_barrier(client, jid, min_iteration=1)
    finally:
        proc.kill()
        proc.wait(timeout=30)

    # simulate both mid-write kill signatures
    journal_path = os.path.join(data_dir, "journal", "journal.jsonl")
    with open(journal_path, "a", encoding="utf-8") as fh:
        fh.write('{"seq":999999,"type":"barr')
    jdir = os.path.join(data_dir, "jobs", jid)
    litter = os.path.join(jdir, "state.ckpt.tmp.424242")
    open(litter, "w").close()

    proc2, client2 = _start_service(data_dir)
    try:
        status = client2.wait(jid, timeout=120)
        assert status["state"] == "done" and status["resumed"]
        assert not os.path.exists(litter), "checkpoint litter not swept"
        # the torn tail was journaled as a recovery fact, not an error
        records = read_trace(journal_path)
        assert any(r.get("type") == "recovered" for r in records) or \
            os.path.exists(os.path.join(data_dir, "journal",
                                        "snapshot.json"))
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc2.kill()
            proc2.wait(timeout=30)
