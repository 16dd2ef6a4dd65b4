"""OS-process lifecycle shared by everything that owns child processes.

Two owners exist — the engine's :class:`~repro.engine.workerpool.
WorkerPool` (barrier-paced workers over one shm segment) and the
service's job runners (:mod:`repro.service.runner`) — and both start
children the same way and must be able to get rid of them on every exit
path.  Stdlib only, like :mod:`repro.robust.errors`, so either side can
import it without a cycle.
"""

from __future__ import annotations

import multiprocessing as mp

__all__ = ["process_context", "reap"]


def process_context():
    """The multiprocessing context children are started from.

    ``fork`` where the platform has it: a child costs a page-table copy
    instead of an interpreter start plus the NumPy import, and inherits
    the already-loaded modules.  ``spawn`` otherwise, which is why every
    child entry point is a module-level function with picklable
    arguments.
    """
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method)


def reap(procs) -> None:
    """join → terminate → kill: no process in ``procs`` outlives this.

    The caller has already asked the processes to stop (a stop message,
    a broken barrier); this only waits for them to comply and escalates
    on the ones that do not.
    """
    for proc in procs:
        proc.join(timeout=5.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - last resort
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
