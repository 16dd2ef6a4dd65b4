"""Fault tolerance: injection, convergence watchdog, checkpoint/resume.

The paper's Theorem 2 admits algorithms that *never* converge under
nondeterministic execution; real deployments additionally crash, wedge,
and tear writes.  This package provides the production layer the
asynchronous-engine literature (Maiter; delayed asynchronous iterations)
says such engines need:

* :class:`FaultPlan` — seeded, declarative fault injection (crashes,
  stalls, torn writes, lost scatter updates, inflated delays) every
  engine consults at fixed instrumentation points;
* :class:`ConvergenceWatchdog` + :class:`DegradationPolicy` — detect
  stalls, Theorem-2 oscillation, and deadline breaches, then retry,
  escalate atomicity, or fall back to a deterministic engine;
* :func:`supervised_run` — the retry loop gluing both to the barrier
  checkpoints of :mod:`repro.storage.checkpoint`.

``Supervisor``/``supervised_run`` are imported lazily: they depend on
:mod:`repro.storage`, which itself depends on this package's error
types.
"""

from __future__ import annotations

from .errors import (
    CheckpointError,
    ConvergenceFailure,
    InjectedCrash,
    RobustError,
    RunInterrupted,
    RunnerDied,
    WatchdogAlarm,
    WorkerDied,
    WorkerTimeout,
)
from .faults import FAULT_KINDS, Fault, FaultPlan
from .watchdog import (
    ConvergenceWatchdog,
    DegradationPolicy,
    WatchdogVerdict,
    state_digest,
)

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
    "Fault",
    "FaultPlan",
    "FAULT_KINDS",
    "ConvergenceWatchdog",
    "DegradationPolicy",
    "WatchdogVerdict",
    "state_digest",
    "Supervisor",
    "supervised_run",
]

_LAZY = {"Supervisor", "supervised_run"}


def __getattr__(name: str):
    if name in _LAZY:
        from . import supervisor

        return getattr(supervisor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
