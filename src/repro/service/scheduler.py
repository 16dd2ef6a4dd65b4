"""The supervisor pool: concurrent supervised jobs with WAL recovery.

:class:`GraphService` owns a data directory and runs jobs against
standing graphs under the full robustness stack:

* every lifecycle transition hits the :class:`~repro.service.journal.
  JobJournal` *before* the in-memory table changes (write-ahead), so a
  SIGKILL'd service recovers every job durably reached;
* each job runs under :func:`~repro.robust.supervised_run` with its own
  checkpoint file, degradation policy, deadline, and recorder — in the
  job-runner *process* of the slot that took it
  (:mod:`repro.service.runner`), so concurrent jobs use separate cores;
  the slot's thread here only relays the runner's messages into the
  journal, the job table and the metrics;
* each job is resource-scoped: its shared-memory segments carry the
  ``<service>-<job id>`` namespace (:func:`~repro.storage.shm.
  segment_namespace`), its traces/checkpoints/results live under
  ``jobs/<job id>/``, and startup sweeps orphans of dead incarnations;
* graceful shutdown *drains*: running jobs stop at their next barrier
  checkpoint (via the supervisor ``interrupt`` hook) and resume
  bit-identically on the next start.

Data directory layout::

    data_dir/
      journal/journal.jsonl     WAL tail (fsync per append)
      journal/snapshot.json     compacted job table
      graphs.json               named-graph registry
      jobs/<job id>/state.ckpt  last barrier checkpoint (atomic)
      jobs/<job id>/trace-<k>.jsonl   telemetry of service incarnation k
      jobs/<job id>/record-<k>.jsonl  recorder provenance (if enabled)
      jobs/<job id>/result.npy  final per-vertex output (bit-exact)
"""

from __future__ import annotations

import hashlib
import os
import queue
import secrets
import threading
import time
from multiprocessing import connection as mp_connection

import numpy as np

from ..engine.capabilities import check
from ..obs.metrics import MetricsRegistry
from ..robust.errors import RunnerDied
from ..robust.procs import reap
from ..storage.shm import sweep_orphaned_segments
from .graphs import GraphRegistry
from .jobs import (Job, JobSpec, JobState, job_table_state, reduce_records,
                   resolve_algorithm)
from .journal import JobJournal
from .runner import Runner

__all__ = ["GraphService", "ServiceBusy", "resolve_algorithm"]

#: journal tail length that triggers snapshot compaction at startup
_COMPACT_THRESHOLD = 4096

#: longest a ``status(wait=)`` long-poll is held before it answers
MAX_WAIT_S = 30.0


class ServiceBusy(RuntimeError):
    """Admission control rejected a submission (queue at capacity)."""


def _service_namespace(data_dir: str) -> str:
    digest = hashlib.sha256(os.path.abspath(data_dir).encode()).hexdigest()
    return "svc" + digest[:8]


class GraphService:
    """Crash-safe multi-job scheduler around ``supervised_run``.

    Parameters
    ----------
    data_dir:
        Everything durable lives here; two services must not share one.
    max_concurrent:
        Jobs running at once: that many job-runner processes, each with
        a relay thread in this process.
    max_queue:
        Admission control: submissions beyond this many non-terminal
        jobs raise :class:`ServiceBusy` (HTTP 429).
    fsync:
        Journal durability (disable only in throughput tests).
    """

    def __init__(self, data_dir: str | os.PathLike, *, max_concurrent: int = 2,
                 max_queue: int = 64, fsync: bool = True,
                 retain_age_s: float | None = None,
                 retain_count: int | None = None):
        self.data_dir = os.fspath(data_dir)
        self.retain_age_s = retain_age_s
        self.retain_count = retain_count
        os.makedirs(self.data_dir, exist_ok=True)
        self.namespace = _service_namespace(self.data_dir)
        self.journal = JobJournal(os.path.join(self.data_dir, "journal"),
                                  fsync=fsync)
        self.graphs = GraphRegistry(os.path.join(self.data_dir, "graphs.json"))
        self.metrics = MetricsRegistry()
        self.max_concurrent = int(max_concurrent)
        self.max_queue = int(max_queue)
        self.jobs: dict[str, Job] = {}
        self.swept_segments: list[str] = []
        self._queue: queue.Queue[str] = queue.Queue()
        self._lock = threading.RLock()
        #: notified (under the job-table lock) when a job turns terminal
        #: and at shutdown: what ``status(wait=)`` long-polls sleep on
        self._changed = threading.Condition(self._lock)
        self._runners: list[Runner] = []
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = False
        self._started = False
        self._seq = 0
        self._running = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover from the journal, sweep orphans, start the pool.

        The runners are forked here, before any slot thread exists and
        (in ``repro serve``) before the HTTP socket is bound, so a child
        inherits neither a lock another thread holds nor the listener.
        Their parent-death signal is bound to the *thread* calling this
        (Linux semantics): they are SIGKILLed when it exits, so call it
        from a thread that lives as long as the service.
        """
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self.recover()
        # exported as 0 from the first scrape, not from the first death
        self.metrics.counter("service_runner_restarts_total")
        self._runners = [Runner(slot, self.data_dir, self.namespace)
                         for slot in range(self.max_concurrent)]
        for runner in self._runners:
            t = threading.Thread(target=self._worker_loop, args=(runner,),
                                 name=f"repro-service-worker-{runner.slot}",
                                 daemon=True)
            t.start()
            self._workers.append(t)

    def recover(self) -> None:
        """Rebuild the job table from snapshot + WAL; requeue survivors."""
        snap, tail = self.journal.replay()
        jobs: dict[str, Job] = {}
        if snap is not None:
            for data in snap.get("state", {}).values():
                job = Job.from_state_dict(data)
                jobs[job.job_id] = job
        reduce_records(jobs, tail)
        if self.journal.torn_tail:
            self.journal.append("recovered", note="torn journal tail dropped")
        self._seq = max(
            (int(jid[1:jid.index("-")]) for jid in jobs), default=0)
        requeued = 0
        for job in sorted(jobs.values(), key=lambda j: j.job_id):
            if job.state == JobState.RUNNING:
                # In flight when the previous incarnation died: resume
                # from its last barrier checkpoint (or scratch if the
                # death predated the first checkpoint).
                job.resumed = True
                self.metrics.counter("service_jobs_resumed_total").inc()
            if job.cancel_requested and job.state not in JobState.TERMINAL:
                job.state = JobState.CANCELLED
                self.journal.append("finish", job=job.job_id,
                                    status=JobState.CANCELLED)
                continue
            if job.state in (JobState.PENDING, JobState.RUNNING):
                self._queue.put(job.job_id)
                requeued += 1
        self.jobs = jobs
        # Resource sweep: segments and scratch of dead incarnations.
        # Nothing is running yet, so no namespace is live.
        self.swept_segments = sweep_orphaned_segments(self.namespace)
        if self.swept_segments:
            self.metrics.counter("service_segments_swept_total").inc(
                len(self.swept_segments))
        swept_files = self.journal.sweep_tmp_files()
        swept_files += self._sweep_job_scratch()
        if self.swept_segments or swept_files or requeued:
            self.journal.append(
                "recovery_sweep", segments=self.swept_segments,
                files=swept_files, requeued=requeued)
        if self.retain_age_s is not None or self.retain_count is not None:
            self.gc(max_age_s=self.retain_age_s, max_count=self.retain_count)
        if len(tail) > _COMPACT_THRESHOLD:
            self.journal.compact(job_table_state(self.jobs))

    def _sweep_job_scratch(self, job_id: str | None = None) -> list[str]:
        """Remove ``*.tmp.<pid>`` litter a killed checkpoint write left
        (under every job directory, or only ``job_id``'s)."""
        removed = []
        jobs_root = os.path.join(self.data_dir, "jobs")
        if not os.path.isdir(jobs_root):
            return removed
        job_ids = sorted(os.listdir(jobs_root)) if job_id is None else [job_id]
        for jid in job_ids:
            jdir = os.path.join(jobs_root, jid)
            if not os.path.isdir(jdir):
                continue
            for name in sorted(os.listdir(jdir)):
                if ".tmp." in name:
                    try:
                        os.unlink(os.path.join(jdir, name))
                        removed.append(f"{jid}/{name}")
                    except OSError:
                        pass
        return removed

    def shutdown(self, *, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop the pool; with ``drain`` jobs stop at their next barrier.

        Drained jobs stay ``running`` in the journal — exactly the state
        a crash would leave — so the next :meth:`start` resumes them
        from the checkpoint their drain wrote.  Queued jobs stay
        ``pending``.  The job table is compacted on the way out.
        """
        self._draining = bool(drain)
        with self._changed:
            # Under the lock a slot assigns jobs under: a job is either
            # already on its runner (and gets the drain) or never starts.
            self._stop.set()
            if drain:
                for runner in self._runners:
                    if runner.job_id is not None:
                        runner.send(("interrupt", runner.job_id, "drain"))
            self._changed.notify_all()  # release the long-polls
        deadline = time.monotonic() + timeout
        for t in self._workers:
            t.join(max(0.0, deadline - time.monotonic()))
        # Each slot thread stopped its runner on the way out; whatever is
        # left belongs to a thread the timeout gave up on.
        with self._lock:
            for runner in self._runners:
                runner.send(("stop",))
        reap([runner.proc for runner in self._runners])
        for t in self._workers:
            t.join(1.0)  # a relay whose runner was just reaped returns
        for runner in self._runners:
            runner.conn.close()
        self._workers = []
        self._runners = []
        with self._lock:
            self.journal.compact(job_table_state(self.jobs))
            self.journal.close()
        self.graphs.close()

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, spec: dict | JobSpec) -> str:
        """Admit a job: validate, journal ``submit``, enqueue."""
        if isinstance(spec, JobSpec):
            data = spec.to_dict()
        else:
            data = dict(spec)
        if not data.get("job_id"):
            with self._lock:
                self._seq += 1
                data["job_id"] = f"j{self._seq:04d}-{secrets.token_hex(2)}"
        job_spec = JobSpec.from_dict(data)
        # The capability table, on the spec the job runner will run: a
        # combination run() would refuse is never journaled.
        check(resolve_algorithm(job_spec.algorithm)(), None,
              job_spec.run_spec(), service=True)
        if isinstance(job_spec.graph, str):
            if job_spec.graph not in self.graphs.names():
                raise KeyError(
                    f"no graph registered under {job_spec.graph!r}")
        else:
            self.graphs.validate_spec(job_spec.graph)
        with self._lock:
            active = sum(1 for j in self.jobs.values()
                         if j.state not in JobState.TERMINAL)
            if active >= self.max_queue:
                raise ServiceBusy(
                    f"{active} jobs queued or running (limit "
                    f"{self.max_queue}); retry later")
            if job_spec.job_id in self.jobs:
                raise ValueError(f"job id {job_spec.job_id!r} already exists")
            self.journal.append("submit", job=job_spec.job_id,
                                spec=job_spec.to_dict())
            self.jobs[job_spec.job_id] = Job(spec=job_spec)
            self.metrics.counter("service_jobs_submitted_total").inc()
        self._queue.put(job_spec.job_id)
        return job_spec.job_id

    def cancel(self, job_id: str) -> dict:
        """Request cancellation; running jobs stop at the next barrier."""
        with self._lock:
            job = self._get(job_id)
            if job.state in JobState.TERMINAL:
                return job.status()
            self.journal.append("cancel", job=job_id)
            job.cancel_requested = True
            if job.state == JobState.PENDING:
                job.state = JobState.CANCELLED
                self.journal.append("finish", job=job_id,
                                    status=JobState.CANCELLED)
                self._changed.notify_all()
            for runner in self._runners:
                if runner.job_id == job_id:
                    runner.send(("interrupt", job_id, "cancel"))
            return job.status()

    def status(self, job_id: str, *, wait: float = 0.0) -> dict:
        """The job's status; with ``wait`` (seconds, capped at
        :data:`MAX_WAIT_S`) a long-poll that answers as soon as the job
        is terminal, the wait expires or the service shuts down."""
        deadline = time.monotonic() + min(wait, MAX_WAIT_S)
        with self._changed:
            while True:
                job = self._get(job_id)
                remaining = deadline - time.monotonic()
                if (job.state in JobState.TERMINAL or remaining <= 0
                        or self._stop.is_set()):
                    return job.status()
                self._changed.wait(remaining)

    def list_jobs(self) -> list[dict]:
        with self._lock:
            return [self.jobs[jid].status() for jid in sorted(self.jobs)]

    def result(self, job_id: str) -> dict:
        with self._lock:
            job = self._get(job_id)
            if job.state != JobState.DONE or job.result is None:
                raise LookupError(
                    f"job {job_id} has no result (state: {job.state})")
            return dict(job.result)

    def result_array(self, job_id: str) -> np.ndarray:
        path = os.path.join(self.job_dir(job_id), "result.npy")
        return np.load(path)

    def health(self) -> dict:
        with self._lock:
            by_state: dict[str, int] = {}
            for job in self.jobs.values():
                by_state[job.state] = by_state.get(job.state, 0) + 1
            runners = [runner.describe() for runner in self._runners]
        return {
            "ok": True,
            "namespace": self.namespace,
            "jobs": by_state,
            "queue_depth": self._queue.qsize(),
            "max_concurrent": self.max_concurrent,
            "runners": runners,
            "graphs": sorted(self.graphs.names()),
            "draining": self._draining,
        }

    def gc(self, *, max_age_s: float | None = None,
           max_count: int | None = None) -> dict:
        """Retention sweep: forget terminal jobs and delete their artifacts.

        ``max_age_s`` sweeps terminal jobs that finished more than that
        many seconds ago; ``max_count`` keeps only the newest that many
        terminal jobs.  Both criteria compose (a job is swept if either
        says so).  Each sweep journals a ``forget`` record *before*
        removing ``jobs/<id>/`` — replaying a forget for an already-gone
        job is a no-op, so a crash mid-sweep is safe — and the table is
        compacted afterwards so forgotten jobs do not linger in the
        snapshot.  Running and pending jobs are never touched.
        """
        import shutil

        now = time.time()

        def finished(job: Job) -> float:
            if job.finished_at is not None:
                return job.finished_at
            # Jobs journaled before finished_at existed: fall back to
            # the artifact directory's mtime, else treat as ancient.
            try:
                return os.path.getmtime(self.job_dir(job.job_id))
            except OSError:
                return 0.0

        with self._lock:
            terminal = sorted(
                (j for j in self.jobs.values()
                 if j.state in JobState.TERMINAL),
                key=lambda j: (-finished(j), j.job_id))
            victims = []
            for rank, job in enumerate(terminal):
                too_old = (max_age_s is not None
                           and now - finished(job) > max_age_s)
                overflow = max_count is not None and rank >= max_count
                if too_old or overflow:
                    victims.append(job)
            for job in victims:
                self.journal.append("forget", job=job.job_id)
                self.jobs.pop(job.job_id, None)
                shutil.rmtree(self.job_dir(job.job_id), ignore_errors=True)
            if victims:
                self.journal.compact(job_table_state(self.jobs))
                self.metrics.counter("service_jobs_forgotten_total").inc(
                    len(victims))
            return {"swept": [j.job_id for j in victims],
                    "kept": len(terminal) - len(victims)}

    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.data_dir, "jobs", job_id)

    def _get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise KeyError(f"no such job {job_id!r}")
        return job

    # ------------------------------------------------------------------
    # the slots: one relay thread + one runner process each
    # ------------------------------------------------------------------
    def _worker_loop(self, runner: Runner) -> None:
        running = self.metrics.gauge("service_jobs_running")
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            with self._lock:
                job = self.jobs.get(job_id)
                if job is None or job.state in JobState.TERMINAL:
                    continue
                self._running += 1
                running.set(self._running)
            try:
                self._run_job(runner, job)
            except Exception as exc:  # defensive: a worker never dies
                self._finish(job, JobState.FAILED, error=repr(exc))
            finally:
                with self._lock:
                    runner.job_id = None
                    self._running -= 1
                    running.set(self._running)
                self.metrics.gauge("service_queue_depth").set(
                    self._queue.qsize())
        # Stop my runner before I exit: one I respawned is SIGKILLed by
        # its parent-death signal the moment this thread is gone.
        with self._lock:
            runner.send(("stop",))
        runner.proc.join(5.0)

    def _run_job(self, runner: Runner, job: Job) -> None:
        """Run ``job`` on ``runner``, again after each runner death.

        A death costs the slot a respawn and the job one of its
        ``max_restarts``: it resumes from its last barrier checkpoint
        exactly as it would after a death of the whole service.
        """
        ckpt_path = os.path.join(self.job_dir(job.job_id), "state.ckpt")
        deaths = 0
        while True:
            with self._lock:
                if self._stop.is_set():
                    return  # shutdown won the race: the job stays queued
                if job.cancel_requested:
                    # asked while no live runner could be told
                    self._finish(job, JobState.CANCELLED)
                    return
                job.state = JobState.RUNNING
                attempt = job.attempts + 1
                job.attempts = attempt
                self.journal.append("start", job=job.job_id, attempt=attempt,
                                    resumed=job.resumed,
                                    runner_pid=runner.proc.pid)
                resume_from = ckpt_path if (
                    job.resumed and os.path.exists(ckpt_path)) else None
                runner.job_id = job.job_id
                runner.jobs_run += 1
                runner.send(("run", job.spec, attempt, resume_from))
            if self._relay(runner, job):
                return
            reap([runner.proc])
            exitcode = runner.proc.exitcode
            if self._stop.is_set():
                return  # shutdown reaped it; the job stays ``running``
            deaths += 1
            with self._lock:
                self.journal.append("runner_died", job=job.job_id,
                                    exitcode=exitcode, attempt=attempt)
                self.metrics.counter("service_runner_restarts_total").inc()
                # What its unlink paths would have removed.
                sweep_orphaned_segments(f"{self.namespace}-{job.job_id}")
                self._sweep_job_scratch(job.job_id)
                runner.conn.close()
                runner.spawn()
            if deaths > job.spec.max_restarts:
                self._finish(job, JobState.FAILED, error=repr(RunnerDied(
                    f"job runner died {deaths} time(s) under {job.job_id}, "
                    f"last with exit code {exitcode}", exitcode=exitcode)))
                return
            job.resumed = True

    def _relay(self, runner: Runner, job: Job) -> bool:
        """Turn the runner's messages into journal records, job-table
        updates and metrics until the job's attempt ends.

        Returns ``False`` if the runner died first.  Records are
        appended on receipt and in pipe order; a ``barrier`` message is
        only ever sent after its checkpoint is durable (see
        :mod:`repro.service.runner`), so WAL invariant 2 holds without
        the runner waiting for the append.
        """
        conn, sentinel = runner.conn, runner.proc.sentinel
        while True:
            # The sentinel, not just EOF: a sibling forked while this
            # pipe was being set up may hold its far end open.
            if conn not in mp_connection.wait([conn, sentinel]):
                return False
            try:
                kind, *fields = conn.recv()
            except (EOFError, OSError):
                return False
            if kind == "barrier":
                iteration, frontier, ckpt_iter = fields
                with self._lock:
                    job.iteration = iteration
                    if ckpt_iter is not None:
                        job.checkpoint_iteration = ckpt_iter
                    self.journal.append(
                        "barrier", job=job.job_id, iteration=iteration,
                        frontier=frontier, checkpoint_iteration=ckpt_iter)
            elif kind == "interrupted":
                reason, iteration = fields
                if reason == "cancel":
                    self._finish(job, JobState.CANCELLED)
                else:
                    # Drain: journal nothing terminal — the job is
                    # exactly where a crash would leave it, and the WAL
                    # already records the barrier its checkpoint covers.
                    with self._lock:
                        self.journal.append("drain", job=job.job_id,
                                            iteration=iteration)
                return True
            elif kind == "failed":
                self._finish(job, JobState.FAILED, error=fields[0])
                return True
            elif kind == "done":
                summary = fields[0]
                with self._lock:
                    for event in summary.get("degradations", ()):
                        self.journal.append("degrade", job=job.job_id,
                                            event=event)
                self.metrics.histogram("service_job_seconds").observe(
                    summary["wall_s"])
                self._finish(job, JobState.DONE, result=summary)
                return True

    def _finish(self, job: Job, status: str, *, result: dict | None = None,
                error: str | None = None) -> None:
        with self._lock:
            finished_at = time.time()
            record: dict = {"job": job.job_id, "status": status,
                            "finished_at": finished_at}
            if result is not None:
                record["result"] = result
            if error is not None:
                record["error"] = error
            self.journal.append("finish", **record)
            job.state = status
            job.result = result
            job.error = error
            job.finished_at = finished_at
            self.metrics.counter("service_jobs_finished_total",
                                 status=status).inc()
            self._changed.notify_all()
