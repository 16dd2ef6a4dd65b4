"""Always-on graph service: standing graphs, supervised jobs, WAL.

The service layer turns the one-shot robustness stack (PR 4's
``supervised_run`` + barrier checkpoints) into a long-running daemon
where **no job outcome is lost to any crash** — worker, job, or the
service process itself:

* :mod:`~repro.service.journal` — write-ahead job journal (fsync per
  append, atomic snapshot compaction, torn-tail tolerance);
* :mod:`~repro.service.jobs` — job specs, lifecycle state machine, and
  the idempotent journal reducer;
* :mod:`~repro.service.graphs` — persistent named-graph registry
  (load once per runner, read-only across its jobs);
* :mod:`~repro.service.scheduler` — the supervisor pool: admission
  control, one relay thread per slot, graceful drain, crash recovery +
  orphan sweeps;
* :mod:`~repro.service.runner` — the slots' job-runner processes, where
  jobs enter the engine under per-job resource scoping (shm namespaces,
  scratch dirs, RNG streams);
* :mod:`~repro.service.http` / :mod:`~repro.service.client` — the
  stdlib HTTP surface (``repro serve`` / ``repro client``).
"""

from .client import ServiceClient, ServiceError
from .graphs import GraphRegistry
from .jobs import Job, JobSpec, JobState, job_table_state, reduce_records
from .journal import JobJournal, JournalError
from .scheduler import GraphService, ServiceBusy

__all__ = [
    "GraphRegistry",
    "GraphService",
    "Job",
    "JobJournal",
    "JobSpec",
    "JobState",
    "JournalError",
    "ServiceBusy",
    "ServiceClient",
    "ServiceError",
    "job_table_state",
    "reduce_records",
]
