"""One persistent pool of barrier-paced OS workers over one shm segment.

Both process backends (``nondet_parallel``: workers own vertex blocks of
in-memory arrays; ``nondet_outofcore``: the same worker body owns shard
intervals) bring a shm :class:`~repro.storage.shm.ArrayLayout` and a
worker *body*; everything else about running ``P`` processes lives here:

* **master side** — :class:`WorkerPool`: the ``P + 1``-party barrier,
  one duplex pipe per worker, the per-iteration message (the delay
  model rides along only when it changed), and failure classification.  A worker that dies (SIGKILL, segfault,
  unhandled exception) breaks the iteration barrier — a sentinel watcher
  aborts it within a fraction of a second — and :meth:`WorkerPool.sync`
  raises :class:`~repro.robust.errors.WorkerDied` (a
  :class:`WorkerTimeout` subclass, so the supervised degradation ladder
  restarts it with backoff).  The master's canonical state is plain
  process-local memory, committed only *after* a successful barrier, so
  it is always barrier-consistent and memory-token restarts are valid.
* **teardown** — :meth:`WorkerPool.close` and a ``weakref.finalize``
  run the same ladder (stop message, barrier abort, the join →
  terminate → kill of :func:`~repro.robust.procs.reap`, unlink), so the
  segment is gone on every exit path (clean, raise,
  ``KeyboardInterrupt``, GC of the owner); the stdlib
  ``resource_tracker`` backstops a SIGKILLed master.
* **worker side** — :func:`_worker_main` (orphan-polling message loop,
  error pipe) around ``body(link, *args)`` /
  ``body.iterate(dm, iteration, *fields)``, and :class:`WorkerLink`: the
  barrier wait that counts epochs (as :attr:`WorkerPool.epoch` does),
  the single-writer ``phase_w`` row, the ``worker_span`` trace segment.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import traceback
import weakref
from multiprocessing import connection as mp_connection

import numpy as np

from ..robust.errors import WorkerDied, WorkerTimeout
from ..robust.procs import process_context, reap
from ..storage.shm import ArrayLayout, SharedArrayPool

__all__ = ["WorkerLink", "WorkerPool", "profile_directive"]


def _program_sig(program) -> tuple:
    items = []
    for k in sorted(vars(program)):
        v = vars(program)[k]
        if isinstance(v, np.ndarray):
            items.append((k, v.dtype.str, v.shape, hash(v.tobytes())))
        else:
            items.append((k, repr(v)))
    return (type(program), tuple(items))


def profile_directive(sink, metrics, run_id: int) -> tuple:
    """The ``(enabled, trace_dir, run_id)`` tuple shipped with every
    iteration message.

    The run id lets a reused pool's workers reset their barrier-epoch
    counters (and start fresh trace segments) at each run start.
    Profiling is pure timing plus single-writer shared rows — no RNG
    use, no effect on the racy iteration itself, so bit-identity holds.
    """
    worker_dir = getattr(sink, "worker_dir", None)
    if worker_dir is not None:
        os.makedirs(worker_dir, exist_ok=True)
    return (sink is not None or metrics is not None, worker_dir, run_id)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class WorkerLink:
    """What a worker body needs from its pool: id, shm views, barrier,
    profiling state."""

    def __init__(self, wid: int, shm: SharedArrayPool, barrier, timeout):
        self.wid = wid
        self.shm = shm
        self._barrier = barrier
        self._timeout = timeout
        #: Is the current run profiled (phase clock + ``phase_w`` row)?
        self.profile = False
        #: Barrier waits since the run started; matches the master's
        #: count, which makes it the trace-merge key.
        self.epoch = 0
        self._trace_dir: str | None = None
        self._run_id = None
        self._seg_fh = None

    def wait(self) -> None:
        self._barrier.wait(self._timeout)
        self.epoch += 1

    def configure(self, prof) -> None:
        """Apply an ``(enabled, trace_dir, run_id)`` profiling directive.

        A new ``run_id`` starts a fresh run on a reused pool: the barrier
        epoch restarts at 0 (so it stays comparable to the master's
        count) and any open trace segment is replaced.
        """
        enabled, trace_dir, run_id = prof
        self.profile = bool(enabled)
        if run_id != self._run_id or trace_dir != self._trace_dir:
            self.close()
            self._trace_dir = trace_dir
            self._run_id = run_id
            self.epoch = 0

    def publish_phases(self, names, acc: dict) -> None:
        """Write my row of the shared ``phase_w`` block (slot order
        ``names``); the next barrier orders it before the master's fold."""
        row = self.shm.array("phase_w")[self.wid]
        for k, name in enumerate(names):
            row[k] = acc.get(name, 0.0)

    def span(self, iteration: int, phases: dict, **fields) -> None:
        """Append this iteration's span to my private JSONL segment.

        Worker-private file, flushed per record like the master sink: a
        SIGKILLed worker leaves at most one torn final line, which
        ``read_trace`` tolerates when the merge path reads the segment.
        """
        if self._trace_dir is None:
            return
        if self._seg_fh is None:
            path = os.path.join(self._trace_dir, f"worker-{self.wid}.jsonl")
            self._seg_fh = open(path, "w", encoding="utf-8")
            json.dump({"type": "event", "name": "worker_start",
                       "worker": self.wid, "pid": os.getpid()},
                      self._seg_fh, separators=(",", ":"))
            self._seg_fh.write("\n")
        json.dump({"type": "worker_span", "worker": self.wid,
                   "iteration": iteration, "epoch": self.epoch,
                   "phases": {k: v for k, v in phases.items() if v > 0},
                   **fields},
                  self._seg_fh, separators=(",", ":"))
        self._seg_fh.write("\n")
        self._seg_fh.flush()

    def close(self) -> None:
        if self._seg_fh is not None:
            self._seg_fh.close()
            self._seg_fh = None


def _worker_main(wid: int, seg_name: str, layout: ArrayLayout, conn,
                 barrier, barrier_timeout, body, body_args) -> None:
    """OS-process entry point (module-level for spawn compatibility).

    The worker idles in a pipe poll between iterations (so a persistent
    pool costs nothing while the master is between ``run()`` calls) and
    is barrier-paced *within* one, by its body.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # master owns ^C
    except (ValueError, OSError):  # pragma: no cover
        pass
    ppid = os.getppid()
    shm = None
    link = None
    try:
        shm = SharedArrayPool.attach(seg_name, layout)
        link = WorkerLink(wid, shm, barrier, barrier_timeout)
        worker = body(link, *body_args)
        dm = None
        while True:
            # Poll so an orphaned worker (master SIGKILLed between
            # iterations) notices the reparent and exits on its own.
            while not conn.poll(1.0):
                if os.getppid() != ppid:
                    return
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, payload, iteration, prof, *fields = msg
            if payload is not None:  # delay model shipped only on change
                dm = payload
            link.configure(prof)
            worker.iterate(dm, iteration, *fields)
    except threading.BrokenBarrierError:
        # Master aborted (its timeout, its shutdown, or a sibling died):
        # nothing to report, just leave.
        return
    except (EOFError, OSError):
        return  # master side of the pipe went away
    except Exception:  # pragma: no cover - exercised via chaos tests
        try:
            conn.send(("error", wid, traceback.format_exc()))
        except Exception:
            pass
        try:
            barrier.abort()
        except Exception:
            pass
    finally:
        if link is not None:
            link.close()
        if shm is not None:
            shm.release_views()
            shm.close()


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
def _watch(stop_event, barrier, sentinels) -> None:
    """Abort the barrier the moment any worker dies unexpectedly.

    Module-level on purpose: a bound-method watcher would be held by
    ``threading._active`` and keep the pool's owner (and its shm
    segment) alive past its last reference, defeating teardown-at-GC.
    """
    while not stop_event.is_set():
        ready = mp_connection.wait(sentinels, timeout=0.2)
        if stop_event.is_set():
            return
        if ready:
            try:
                barrier.abort()
            except Exception:  # pragma: no cover
                pass
            return


def _destroy(procs, conns, barrier, shm, arrays, stop_event) -> None:
    """Teardown shared by :meth:`WorkerPool.close` and the GC finalizer
    (which therefore must hold no reference to the pool)."""
    stop_event.set()
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    try:
        barrier.abort()  # unstick anything mid-barrier
    except Exception:
        pass
    reap(procs)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    arrays.clear()  # drop numpy views pinning the segment
    shm.close()  # unlinks, unmaps


class WorkerPool:
    """``workers`` processes running ``body`` over one shm segment.

    ``body(link, *body_args(w))`` is constructed once inside worker
    ``w``; each :meth:`broadcast` makes it run ``iterate(dm, iteration,
    *fields)``, which must cross the pool's barrier exactly as often as
    the master calls :meth:`sync` for that iteration.  ``name`` prefixes
    the process names; ``preload`` (name -> array) is copied into the
    segment before any worker starts, for what a body reads while it is
    being constructed.
    """

    def __init__(self, layout: ArrayLayout, workers: int,
                 timeout: float | None, *, key, name: str, body, body_args,
                 preload=None):
        #: :meth:`key_of` the pool was built for; reuse needs it equal.
        self.key = key
        self.workers = workers
        self.timeout = None if timeout is None else float(timeout)
        self.shm = SharedArrayPool.create(layout)
        #: name -> live shm view.
        self.arrays = {n: self.shm.array(n) for n in layout.names()}
        for n, arr in (preload or {}).items():
            self.arrays[n][:] = arr
        ctx = process_context()
        self.barrier = ctx.Barrier(workers + 1)
        worker_timeout = (
            None if self.timeout is None else self.timeout * 4 + 30.0
        )
        self.procs: list = []
        self.conns: list = []
        self._stop_event = threading.Event()
        self._last_dm = None
        #: Barrier steps since the run started, as each worker's
        #: :attr:`WorkerLink.epoch` counts them.
        self.epoch = 0
        self._run_id = None
        try:
            for w in range(workers):
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_worker_main, name=f"{name}-{w}",
                    args=(w, self.shm.name, layout, child, self.barrier,
                          worker_timeout, body, body_args(w)),
                    daemon=True,
                )
                proc.start()
                child.close()
                self.procs.append(proc)
                self.conns.append(parent)
        except BaseException:
            _destroy(self.procs, self.conns, self.barrier, self.shm,
                     self.arrays, self._stop_event)
            raise
        self._watcher = threading.Thread(
            target=_watch, name=f"{name}-watcher", daemon=True,
            args=(self._stop_event, self.barrier,
                  [proc.sentinel for proc in self.procs]))
        self._watcher.start()
        # The finalizer (not __del__) guarantees teardown when the last
        # reference to the pool dies — no cycles through self.
        self._finalizer = weakref.finalize(
            self, _destroy, self.procs, self.conns, self.barrier,
            self.shm, self.arrays, self._stop_event)

    @staticmethod
    def key_of(program, workers: int, timeout, layout: ArrayLayout) -> tuple:
        """What a pool depends on: a later run with an equal key (same
        program parameters, worker count, timeout and segment layout)
        may reuse it — seed, jitter and delay model travel per iteration."""
        return (_program_sig(program), workers, timeout,
                tuple(sorted(layout.entries.items())))

    @property
    def alive(self) -> bool:
        return (self._finalizer.alive
                and all(proc.is_alive() for proc in self.procs))

    def broadcast(self, iteration: int, dm, prof, *fields) -> None:
        """Start ``iteration`` on every worker."""
        # The delay model rides along only when it changed (it is
        # pickled per send; the rest of the iteration state travels
        # through the segment).
        payload = dm if dm != self._last_dm else None
        if payload is not None:
            self._last_dm = dm
        if prof[2] != self._run_id:  # a new run restarts the epochs
            self._run_id, self.epoch = prof[2], 0
        for conn in self.conns:
            try:
                conn.send(("iter", payload, iteration, prof, *fields))
            except (BrokenPipeError, OSError) as exc:
                raise self.failure(iteration) from exc

    def sync(self, iteration: int) -> None:
        """One master barrier step; a broken barrier raises
        :meth:`failure`."""
        try:
            self.barrier.wait(self.timeout)
        except threading.BrokenBarrierError as exc:
            raise self.failure(iteration) from exc
        self.epoch += 1

    def publish(self, plan, state) -> None:
        """Start-of-iteration fill every pool shares: the vertex plan,
        the pre-iteration vertex state, zeroed profiling rows."""
        sh = self.arrays
        for name in ("thr_v", "pi_v", "time_v", "active"):
            np.copyto(sh[name], getattr(plan, name))
        for f in state.vertex_field_names:
            np.copyto(sh["v0:" + f], state.vertex(f))
            np.copyto(sh["vout:" + f], state.vertex(f))
        sh["phase_w"].fill(0.0)
        sh["wcount"].fill(0)

    def fold(self, bar, names, sink, metrics, counts) -> None:
        """Fold the rows workers wrote before barrier C: ``phase_w``
        (slot order ``names``) into ``bar.span``, each ``counts`` column
        into ``sink`` (``worker.<name>``, summed) and ``metrics``
        (``repro_worker_<name>_total``, per worker)."""
        rows = self.arrays["phase_w"]
        phases_w = [{name: float(rows[w, k]) for k, name in enumerate(names)
                     if rows[w, k] > 0} for w in range(self.workers)]
        bar.span = {"barrier_epoch": self.epoch, "worker_phases": phases_w}
        for name, deltas in counts.items():
            if sink is not None:
                sink.counter("worker." + name).inc(int(deltas.sum()))
            for w, x in enumerate(deltas if metrics is not None else ()):
                metrics.counter(f"repro_worker_{name}_total",
                                worker=str(w)).inc(int(x))
        for w, phases in enumerate(phases_w if metrics is not None else ()):
            metrics.counter("repro_worker_barrier_wait_seconds_total",
                            worker=str(w)).inc(phases.get("barrier_wait", 0.0))

    def failure(self, iteration: int) -> WorkerTimeout:
        """Classify a broken barrier into WorkerDied/WorkerTimeout."""
        errors: list[tuple[int, str]] = []
        for w, conn in enumerate(self.conns):
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg and msg[0] == "error":
                        errors.append((w, msg[2]))
            except (EOFError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=0.2)
        dead = [w for w, proc in enumerate(self.procs)
                if not proc.is_alive()]
        if errors:
            wid, tb = errors[0]
            return WorkerDied(
                f"worker {wid} raised at iteration {iteration}:\n{tb}",
                iteration=iteration, workers=tuple(w for w, _ in errors))
        if dead:
            # A sibling that saw the broken barrier exits 0; report the
            # abnormal exits (signal/nonzero) as the actual casualties.
            abnormal = [w for w in dead if self.procs[w].exitcode != 0]
            culprits = abnormal or dead
            codes = {w: self.procs[w].exitcode for w in culprits}
            return WorkerDied(
                f"worker(s) {culprits} died at iteration {iteration} "
                f"(exit codes {codes})",
                iteration=iteration, workers=tuple(culprits))
        return WorkerTimeout(
            f"workers failed to reach the iteration barrier within "
            f"{self.timeout}s at iteration {iteration}",
            iteration=iteration, stuck=tuple(range(self.workers)))

    def abort(self) -> None:
        """Break the barrier so no worker waits on a master that left."""
        try:
            self.barrier.abort()
        except Exception:  # pragma: no cover
            pass

    def close(self) -> None:
        """Stop the workers and unlink the segment (idempotent)."""
        self._finalizer()
        self._watcher.join(timeout=2.0)
