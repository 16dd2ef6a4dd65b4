"""Perf floor for the service's job-runner processes.

``--max-concurrent`` promises that many jobs *computing* at once.  With
the jobs on threads of the service process a second slot bought nothing
(a vectorized job is thousands of small NumPy calls that hold the
interpreter lock: 1.0x at the commit before the runners); with one
runner process per slot the second slot is a second core.  Same
process, same run, fresh data directories: a pure ratio, so a loaded
host slows both sides alike.
"""

import os
import threading
import time

import pytest

from repro.service import GraphService, JobState

JOBS = 8
CLIENTS = 2
WEB_SPEC = {"dataset": "web-google-mini", "scale": 12, "seed": 7}


def _drain_queue(svc, todo: list, failures: list) -> None:
    """One closed-loop client: submit, wait for the reply, repeat."""
    while True:
        try:
            seed = todo.pop()
        except IndexError:
            return
        jid = svc.submit({"algorithm": "PageRank", "graph": "web",
                          "vectorized": True,
                          "config": {"threads": 4, "seed": seed}})
        status = svc.status(jid, wait=30)
        if status["state"] != JobState.DONE:
            failures.append(status)


def _wall(data_dir, slots: int) -> float:
    svc = GraphService(data_dir, max_concurrent=slots)
    svc.graphs.register("web", WEB_SPEC)
    svc.start()
    try:
        def timed_pass() -> float:
            todo, failures = list(range(JOBS)), []
            clients = [threading.Thread(target=_drain_queue,
                                        args=(svc, todo, failures))
                       for _ in range(CLIENTS)]
            t0 = time.perf_counter()
            for client in clients:
                client.start()
            for client in clients:
                client.join(120)
            wall = time.perf_counter() - t0
            assert not failures and not any(c.is_alive() for c in clients)
            return wall

        timed_pass()  # every runner loads the graph and imports its kernel
        return min(timed_pass() for _ in range(3))
    finally:
        svc.shutdown(drain=True, timeout=60)


@pytest.mark.perfsmoke
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="two slots need two cores to beat one")
def test_two_slots_beat_one_slot(tmp_path):
    one = _wall(tmp_path / "one", slots=1)
    two = _wall(tmp_path / "two", slots=2)
    assert two <= 0.8 * one, (
        f"{JOBS} PageRank jobs took {two:.3f}s on two slots vs {one:.3f}s "
        f"on one: the second slot is not a second core")
