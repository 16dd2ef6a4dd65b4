"""Exception vocabulary of the fault-tolerance subsystem.

Kept import-free (stdlib only) so low-level engine modules — notably
:mod:`repro.engine.workerpool`, whose iteration barrier raises
:class:`WorkerTimeout` / :class:`WorkerDied` — can depend on it without
an import cycle.
"""

from __future__ import annotations

__all__ = [
    "RobustError",
    "WorkerTimeout",
    "WorkerDied",
    "RunnerDied",
    "InjectedCrash",
    "WatchdogAlarm",
    "ConvergenceFailure",
    "CheckpointError",
    "RunInterrupted",
]


class RobustError(RuntimeError):
    """Base class of every fault-tolerance error."""


class WorkerTimeout(RobustError):
    """A pool worker failed to reach the iteration barrier in time.

    Raised by the master of the process and out-of-core worker pools
    (:mod:`repro.engine.workerpool`) when ``EngineConfig.worker_timeout_s``
    elapses at a barrier with every worker still alive — the wedged-worker
    failure mode a bare barrier wait would hang on.  The supervised
    retry loop restarts from the last barrier.
    """

    def __init__(self, message: str, *, iteration: int = -1,
                 stuck: tuple[int, ...] = ()):
        super().__init__(message)
        self.iteration = iteration
        self.stuck = tuple(stuck)


class WorkerDied(WorkerTimeout):
    """An OS worker process of the parallel backend died mid-run.

    Raised by :class:`~repro.engine.nondet_parallel.ParallelEngine` when
    an iteration barrier breaks because a worker crashed (segfault,
    SIGKILL, unhandled exception).  Subclasses :class:`WorkerTimeout` so
    the supervised degradation ladder recovers it with the same
    restart-with-backoff path it already uses for wedged workers — the
    master's state is barrier-consistent at the point of the raise, so a
    memory-token restart is valid.
    """

    def __init__(self, message: str, *, iteration: int = -1,
                 workers: tuple[int, ...] = ()):
        super().__init__(message, iteration=iteration, stuck=workers)
        self.workers = tuple(workers)


class RunnerDied(RobustError):
    """A service job-runner process died under a job more often than the
    job's ``max_restarts`` allows.

    The scheduler sees the death as EOF on the runner's pipe (SIGKILL,
    OOM kill, segfault), respawns the slot's runner and resumes the job
    from its last barrier checkpoint; this is the typed reason a job
    ends ``failed`` once that budget is spent.  ``exitcode`` follows
    ``multiprocessing``: negative = killed by that signal.
    """

    def __init__(self, message: str, *, exitcode: int | None = None):
        super().__init__(message)
        self.exitcode = exitcode


class InjectedCrash(RobustError):
    """A :class:`~repro.robust.faults.FaultPlan` crash fault fired.

    Simulates a SIGKILL'd worker/process at a deterministic point; the
    supervised run loop catches it and restarts from the last
    checkpoint.
    """

    def __init__(self, message: str, *, iteration: int = -1,
                 thread: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.thread = thread


class WatchdogAlarm(RobustError):
    """The convergence watchdog tripped (stall / oscillation / deadline).

    Carries the :class:`~repro.robust.watchdog.WatchdogVerdict` so the
    degradation policy can choose a recovery action.
    """

    def __init__(self, verdict):
        super().__init__(
            f"convergence watchdog: {verdict.kind} detected at iteration "
            f"{verdict.iteration} ({verdict.detail})"
        )
        self.verdict = verdict


class ConvergenceFailure(RobustError):
    """Every degradation avenue was exhausted without convergence."""


class CheckpointError(RobustError):
    """A checkpoint could not be written, read, or applied."""


class RunInterrupted(RobustError):
    """A run was stopped deliberately at an iteration barrier.

    Raised by :meth:`~repro.robust.supervisor.Supervisor.post_iteration`
    when an ``interrupt=`` callable returns a reason (the service's
    graceful drain and job cancellation).  The raise happens *after* the
    barrier's checkpoint and restart token were taken, so the stopped
    run resumes bit-identically from ``iteration``.  Deliberate, so the
    supervised retry loop lets it propagate instead of restarting.
    """

    def __init__(self, reason: str, *, iteration: int = -1):
        super().__init__(f"run interrupted ({reason}) at iteration {iteration}")
        self.reason = reason
        self.iteration = iteration
