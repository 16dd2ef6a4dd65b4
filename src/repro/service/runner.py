"""Job-runner processes: the only place a service job enters the engine.

Each of the service's ``max_concurrent`` slots owns one long-lived
runner process, so two concurrent jobs compute on two cores instead of
taking turns under one interpreter lock.  The runner holds everything a
job *computes with* — its own :class:`~repro.service.graphs.GraphRegistry`
cache, the engine, the telemetry/recorder/checkpoint files under
``jobs/<id>/``, the job's shm namespace — and the service process keeps
everything that makes a job *durable*: the journal stays single-writer,
and :func:`~repro.service.jobs.reduce_records` never learns that
processes exist.  The two talk over one duplex pipe per slot.

Messages, runner → service (relayed by the slot's thread, see
``GraphService._relay``)::

    ("barrier", iteration, frontier, checkpoint_iteration | None)
    ("interrupted", reason, iteration)      cancel / drain / stop
    ("done", summary)                       result.npy is on disk
    ("failed", error)

and service → runner::

    ("run", JobSpec, attempt, resume_from | None)
    ("interrupt", job id, reason)           polled at every barrier
    ("stop",)

Why the DESIGN §6.2 durability invariants survive the process boundary
without an acknowledgement:

* **Checkpoint before journal (invariant 2).**  ``barrier`` is sent from
  the telemetry callback, which the run loop fires after
  ``Supervisor.post_iteration`` returned — the barrier's checkpoint, if
  one was due, has been through fsync → rename → directory fsync by
  then.  The service appends the ``barrier`` record on receipt, so the
  record is strictly younger than the checkpoint it names.  The runner
  does not wait for that append: ``state.ckpt`` may already hold a
  *later* barrier when the record lands, which is harmless — the record
  is a lower bound, and a resume reads the iteration from the file.
  Journal fsync is thereby off the job's critical path.
* **Pipe order is journal order.**  One writer, one reader, one FIFO:
  the records of a job appear in the order the runner produced them,
  and its terminal message is the last thing the relay reads.
* **Interrupts stop at restore points.**  Cancel and drain arrive as a
  pipe message that the ``interrupt=`` hook polls where the supervisor
  already polls it: after the barrier's checkpoint, never mid-iteration.

Two deaths are first-class.  A runner dies *with* its service
(:func:`_die_with_parent`), so a ``kill -9`` of the service never leaves
a process rewriting ``state.ckpt`` under the next incarnation.  And a
runner that dies *under* a job (SIGKILL, OOM, segfault) is an EOF on the
pipe: the slot respawns it and the job resumes from its last barrier
checkpoint, at most ``spec.max_restarts`` times (:class:`Runner` is the
service-side handle that does the respawning).
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing as mp
import os
import signal
import sys
import time
from dataclasses import replace

import numpy as np

from ..engine.runner import run
from ..obs.recorder import Recorder
from ..obs.telemetry import Telemetry
from ..robust.errors import RunInterrupted
from ..robust.procs import process_context
from ..storage.shm import segment_namespace
from .graphs import GraphRegistry
from .jobs import JobSpec, resolve_algorithm

__all__ = ["Runner", "run_job", "runner_main"]

_PR_SET_PDEATHSIG = 1  # <linux/prctl.h>


def _die_with_parent(parent_pid: int) -> bool:
    """Arrange to be SIGKILLed when the service dies; ``False`` if it
    already has.

    Linux delivers the signal when the *thread* that started this
    process exits, which is why a slot thread stops the runner it
    respawned before it returns.  Elsewhere (and for the window before
    the ``prctl``) the ``os.getppid()`` polls in :func:`runner_main` and
    the interrupt hook are the fallback.
    """
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                          ctypes.c_ulong, ctypes.c_ulong]
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    return os.getppid() == parent_pid


def runner_main(conn, data_dir: str, namespace: str, parent_pid: int) -> None:
    """OS-process entry point (module-level for spawn compatibility).

    Idles in a pipe poll between jobs; runs one job at a time.
    """
    # ^C and a supervisor's SIGTERM reach the whole process group: the
    # service owns both and drains its jobs at a barrier over the pipe.
    # Set explicitly, so a respawned runner does not keep the handler
    # ``serve`` installed in the meantime.  A runner ends by its "stop"
    # message, its service's death, or the SIGKILL rung of ``reap``.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    # The service starts runners daemonic so none can outlive its
    # interpreter; a process-backend job must still start pool workers.
    mp.current_process().daemon = False
    if not _die_with_parent(parent_pid):
        return
    graphs = GraphRegistry(os.path.join(data_dir, "graphs.json"))
    try:
        while True:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            msg = conn.recv()
            if msg[0] == "stop":
                return
            if msg[0] != "run":
                continue  # an interrupt for a job that has already ended
            _, spec, attempt, resume_from = msg
            jdir = os.path.join(data_dir, "jobs", spec.job_id)
            if not run_job(conn, graphs, jdir, f"{namespace}-{spec.job_id}",
                           spec, attempt, resume_from, parent_pid=parent_pid):
                return
    except (EOFError, OSError):
        return  # the service's end of the pipe went away
    finally:
        graphs.close()


def run_job(conn, graphs: GraphRegistry, jdir: str, shm_namespace: str,
            spec: JobSpec, attempt: int, resume_from: str | None, *,
            parent_pid: int | None = None) -> bool:
    """One attempt of one job; every outcome leaves as exactly one
    terminal message.  Returns ``False`` when the runner was told to
    stop (or lost its service) and must not take another job.
    """
    every = int(spec.checkpoint_every)

    def on_iteration(span) -> None:
        # Runs after post_iteration: the barrier's checkpoint (if due)
        # is already durable on disk, so a journal record built from
        # this message preserves the WAL ordering invariant.
        ckpt_iter = (span.iteration + 1
                     if (span.iteration + 1) % every == 0 else None)
        conn.send(("barrier", span.iteration, span.frontier_size, ckpt_iter))
        if spec.throttle_s > 0:
            time.sleep(spec.throttle_s)

    def interrupt() -> str | None:
        if parent_pid is not None and os.getppid() != parent_pid:
            return "orphaned"
        while conn.poll(0):
            msg = conn.recv()
            if msg[0] == "stop" or msg[1] == spec.job_id:
                return msg[-1]  # "stop", or the interrupt's reason
        return None

    sink = Telemetry(trace_path=os.path.join(jdir, f"trace-{attempt}.jsonl"),
                     on_iteration=on_iteration)
    try:
        os.makedirs(jdir, exist_ok=True)
        program = resolve_algorithm(spec.algorithm)()
        graph = graphs.get(spec.graph)
        run_spec = replace(
            spec.run_spec(graph), telemetry=sink, interrupt=interrupt,
            record=None if spec.record is None else Recorder(
                policy=spec.record,
                trace_path=os.path.join(jdir, f"record-{attempt}.jsonl")),
            resume_from=resume_from,
            checkpoint=os.path.join(jdir, "state.ckpt"))
        t0 = time.monotonic()
        with segment_namespace(shm_namespace):
            result = run(program, graph, **vars(run_spec))
        arr = np.ascontiguousarray(result.result())
        np.save(os.path.join(jdir, "result.npy"), arr)
        summary = {
            "converged": bool(result.converged),
            "iterations": int(result.num_iterations),
            "state_sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
            "conflicts": result.conflicts.summary(),
            "resumed": resume_from is not None,
            "attempts": attempt,
            "runner_pid": os.getpid(),
            "wall_s": round(time.monotonic() - t0, 6),
        }
        if spec.mode == "delta":
            summary["delta"] = result.extra.get("delta")
            if "mutations" in result.extra:
                summary["mutations"] = [
                    {k: v for k, v in m.items() if k != "seeds"}
                    for m in result.extra["mutations"]]
        if result.extra.get("degradations"):
            summary["degradations"] = result.extra["degradations"]
        conn.send(("done", summary))
    except RunInterrupted as stop:
        conn.send(("interrupted", stop.reason, stop.iteration))
        return stop.reason not in ("stop", "orphaned")
    except Exception as exc:  # the job failed, not the runner: report it
        conn.send(("failed", repr(exc)))
    finally:
        sink.close()
    return True


class Runner:
    """Service-side handle of one slot's runner process.

    Not thread-safe by itself: the scheduler touches ``job_id`` and
    calls :meth:`send` only under its job-table lock, which is what
    orders an interrupt after the ``run`` message it refers to.
    """

    def __init__(self, slot: int, data_dir: str, namespace: str):
        self.slot = slot
        self.job_id: str | None = None  #: the job this runner is running
        self.jobs_run = 0
        self._args = (data_dir, namespace)
        self.spawn()

    def spawn(self) -> None:
        """Start the process, or a replacement for a dead one (whose
        pipe the caller has closed).

        A replacement is forked from a running service and so, unlike
        the initial runners, inherits what is open by then — the HTTP
        listener included, which it never accepts on and releases when
        it stops or the service dies."""
        ctx = process_context()
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=runner_main, name=f"repro-service-runner-{self.slot}",
            args=(child, *self._args, os.getpid()), daemon=True)
        self.proc.start()
        child.close()

    def send(self, msg: tuple) -> None:
        try:
            self.conn.send(msg)
        except OSError:
            pass  # a dead runner: the slot's relay sees the EOF

    def describe(self) -> dict:
        return {"slot": self.slot, "pid": self.proc.pid,
                "alive": self.proc.is_alive(), "job_id": self.job_id,
                "jobs_run": self.jobs_run}
