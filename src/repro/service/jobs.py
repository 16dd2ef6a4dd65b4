"""Job model: specs, lifecycle states, and the journal reducer.

A :class:`JobSpec` is the JSON-able description a client submits; a
:class:`Job` is the scheduler's live view of it — state machine plus
the facts the journal has durably recorded.  :func:`reduce_records`
folds a replayed journal (snapshot state + tail records, see
:mod:`repro.service.journal`) back into the job table; it is a pure,
idempotent reducer, which is what makes snapshot compaction and
crash-between-snapshot-and-truncate replays safe.

Lifecycle::

    PENDING --start--> RUNNING --finish(done)-----> DONE
        \\                 |  \\--finish(failed)---> FAILED
         \\                |  \\--finish(cancelled)-> CANCELLED
          \\               +--(service killed)-----> RUNNING, resumed
           +--finish(cancelled before start)------> CANCELLED

A job found RUNNING during replay was in flight when the service died;
recovery marks it ``resumed`` and re-queues it — its job directory
holds the last barrier checkpoint, so the re-run continues
bit-identically rather than from scratch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field

from ..engine.spec import RunSpec
from ..graph.mutations import BATCH_SPEC, batches_from_spec
from ..obs.recorder import RECORD_POLICIES
from ..robust.watchdog import DegradationPolicy
from ..storage.checkpoint import config_from_dict

__all__ = ["JobState", "JobSpec", "Job", "reduce_records", "job_table_state",
           "resolve_algorithm", "wire_run_spec", "WIRE_FIELDS"]

_JOB_ID_RE = re.compile(r"^j[0-9]{4,}-[0-9a-f]{4}$")

#: Engine-config keys a submission may set (a deliberate allowlist: the
#: spec travels over HTTP, so unknown keys are rejected at admission,
#: not deep inside an engine).
ALLOWED_CONFIG_KEYS = frozenset({
    "threads", "delay", "seed", "max_iterations", "jitter", "atomicity",
    "dispatch", "worker_timeout_s", "direction_alpha", "direction_beta",
})
#: the fields a job spec (and the CLI's shared flags) carries verbatim to
#: :class:`RunSpec`
WIRE_FIELDS = ("mode", "vectorized", "backend", "faults", "deadline_s",
               "checkpoint_every")


def resolve_algorithm(name: str):
    """Algorithm factory by CLI name (lazy: avoids a cli import cycle)."""
    from ..cli import ALGORITHMS

    factory = ALGORITHMS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown algorithm {name!r}; choose from "
            f"{', '.join(sorted(ALGORITHMS))}")
    return factory


class JobState:
    """String constants (JSON-friendly) of the job state machine."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    TERMINAL = frozenset({DONE, FAILED, CANCELLED})
    ALL = frozenset({PENDING, RUNNING, DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobSpec:
    """What to run: algorithm, graph, engine config, robustness knobs.

    ``graph`` is either a registered graph name (string) or an inline
    spec dict (see :class:`~repro.service.graphs.GraphRegistry`).
    ``throttle_s`` sleeps in the job's runner process after every
    iteration barrier — a pure pacing knob (wall time only, never
    semantics) used by the chaos tests to pin a job mid-flight, and
    useful for demos.
    """

    job_id: str
    algorithm: str
    graph: str | dict
    config: dict = dc_field(default_factory=dict)
    mode: str = RunSpec.mode
    vectorized: bool | str = RunSpec.vectorized
    backend: str | None = RunSpec.backend
    checkpoint_every: int = RunSpec.checkpoint_every
    deadline_s: float | None = None
    faults: str | None = None
    record: str | None = None  #: recorder policy name, or None = off
    max_restarts: int = DegradationPolicy.max_restarts
    throttle_s: float = 0.0
    #: delta mode only: seeded mutation-batch spec the service expands
    #: against its graph ({"num_batches": K, "frac": F, "seed": S}) —
    #: a spec rather than edge arrays so the submission stays small and
    #: the draw is reproducible from the journal alone.
    mutations: dict | None = None

    def validate(self) -> None:
        """Shape checks only.  Which switches compose is the capability
        table's, consulted at admission: journal replay must still load
        a spec the table has since come to refuse (the job then fails
        with the table's reason)."""
        if not _JOB_ID_RE.match(self.job_id):
            raise ValueError(f"malformed job id {self.job_id!r}")
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise ValueError("spec needs an algorithm name")
        if not isinstance(self.graph, (str, dict)) or not self.graph:
            raise ValueError("spec needs a graph name or inline graph spec")
        if not isinstance(self.config, dict):
            raise ValueError("config must be a dict of EngineConfig fields")
        unknown = set(self.config) - ALLOWED_CONFIG_KEYS
        if unknown:
            raise ValueError(
                f"unsupported config key(s): {', '.join(sorted(unknown))}")
        if self.throttle_s < 0:
            raise ValueError("throttle_s must be >= 0")
        if self.record not in (None, *RECORD_POLICIES):
            raise ValueError(f"record={self.record!r} not a recorder policy")
        if self.mutations is not None:
            if not isinstance(self.mutations, dict):
                raise ValueError("mutations must be a batch-spec dict")
            unknown = set(self.mutations) - set(BATCH_SPEC)
            if unknown:
                raise ValueError(
                    f"unknown mutation key(s): {', '.join(sorted(unknown))}")
            batches = {**BATCH_SPEC, **self.mutations}
            if int(batches["num_batches"]) < 1:
                raise ValueError("mutations.num_batches must be >= 1")
            if not 0 < float(batches["frac"]) <= 1:
                raise ValueError("mutations.frac must be in (0, 1]")

    def run_spec(self, graph=None) -> RunSpec:
        """The :class:`~repro.engine.spec.RunSpec` this job runs (see
        :func:`wire_run_spec`), as scheduler admission judges it; the job
        runner passes ``graph`` and replaces the placeholders with live
        values — the checkpoint path, the interrupt hook, a recorder."""
        return wire_run_spec(
            self.to_dict(), graph, interrupt=True,
            record=None if self.record is None else True,
            checkpoint="state.ckpt",
            policy=DegradationPolicy(max_restarts=self.max_restarts))

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "algorithm": self.algorithm,
            "graph": self.graph,
            "config": dict(self.config),
            "mode": self.mode,
            "vectorized": self.vectorized,
            "backend": self.backend,
            "checkpoint_every": self.checkpoint_every,
            "deadline_s": self.deadline_s,
            "faults": self.faults,
            "record": self.record,
            "max_restarts": self.max_restarts,
            "throttle_s": self.throttle_s,
            "mutations": self.mutations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown job-spec field(s): {', '.join(sorted(unknown))}")
        spec = cls(**data)
        spec.validate()
        return spec


def wire_run_spec(wire: dict, graph=None, **live) -> RunSpec:
    """The :class:`~repro.engine.spec.RunSpec` a flat JSON switch dict
    names — a :class:`JobSpec`'s fields, or the CLI's shared flags: the
    spec's wire subset.  ``config`` holds
    :class:`~repro.engine.EngineConfig` fields, ``mutations`` a
    :data:`~repro.graph.mutations.BATCH_SPEC` dict (expanded against
    ``graph`` when one is given); ``live`` sets the fields JSON cannot
    carry."""
    fields = {name: wire[name] for name in WIRE_FIELDS if name in wire}
    if wire.get("config"):
        fields["config"] = config_from_dict(wire["config"])
    if wire.get("mutations") is not None:
        fields["mutations"] = (wire["mutations"] if graph is None
                               else batches_from_spec(graph, wire["mutations"]))
    return RunSpec(**fields, **live)


@dataclass
class Job:
    """Live view of one job: spec + durably journaled facts."""

    spec: JobSpec
    state: str = JobState.PENDING
    attempts: int = 0  #: number of journaled ``start`` records
    resumed: bool = False  #: recovered from a dead service incarnation
    cancel_requested: bool = False
    draining: bool = False  #: set in memory by graceful shutdown
    iteration: int = -1  #: last journaled barrier iteration
    checkpoint_iteration: int | None = None
    degradations: list = dc_field(default_factory=list)
    result: dict | None = None
    error: str | None = None
    finished_at: float | None = None  #: journaled wall-clock of ``finish``

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    def status(self) -> dict:
        """JSON-able status for the HTTP API / CLI client."""
        out = {
            "job_id": self.job_id,
            "state": self.state,
            "algorithm": self.spec.algorithm,
            "graph": self.spec.graph,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "iteration": self.iteration,
            "checkpoint_iteration": self.checkpoint_iteration,
            "cancel_requested": self.cancel_requested,
        }
        if self.degradations:
            out["degradations"] = list(self.degradations)
        if self.result is not None:
            out["result"] = self.result
        if self.error is not None:
            out["error"] = self.error
        if self.finished_at is not None:
            out["finished_at"] = self.finished_at
        return out

    def to_state_dict(self) -> dict:
        """Snapshot form (everything the journal would have rebuilt)."""
        return {
            "spec": self.spec.to_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "resumed": self.resumed,
            "cancel_requested": self.cancel_requested,
            "iteration": self.iteration,
            "checkpoint_iteration": self.checkpoint_iteration,
            "degradations": list(self.degradations),
            "result": self.result,
            "error": self.error,
            "finished_at": self.finished_at,
        }

    @classmethod
    def from_state_dict(cls, data: dict) -> "Job":
        return cls(
            spec=JobSpec.from_dict(data["spec"]),
            state=data.get("state", JobState.PENDING),
            attempts=int(data.get("attempts", 0)),
            resumed=bool(data.get("resumed", False)),
            cancel_requested=bool(data.get("cancel_requested", False)),
            iteration=int(data.get("iteration", -1)),
            checkpoint_iteration=data.get("checkpoint_iteration"),
            degradations=list(data.get("degradations", ())),
            result=data.get("result"),
            error=data.get("error"),
            finished_at=data.get("finished_at"),
        )


def reduce_records(jobs: dict[str, Job], records) -> dict[str, Job]:
    """Fold journal records into the job table (idempotent; in place).

    Unknown record types pass through untouched — the same
    forward-compatibility stance as the trace readers.
    """
    for rec in records:
        rtype = rec.get("type")
        if rtype == "submit":
            spec = JobSpec.from_dict(rec["spec"])
            if spec.job_id not in jobs:
                jobs[spec.job_id] = Job(spec=spec)
            continue
        job = jobs.get(rec.get("job"))
        if job is None:
            continue
        if rtype == "start":
            job.state = JobState.RUNNING
            job.attempts = max(job.attempts, int(rec.get("attempt", 1)))
        elif rtype == "barrier":
            job.iteration = max(job.iteration, int(rec.get("iteration", -1)))
            ci = rec.get("checkpoint_iteration")
            if ci is not None:
                job.checkpoint_iteration = int(ci)
        elif rtype == "degrade":
            event = rec.get("event", {})
            if event not in job.degradations:
                job.degradations.append(event)
        elif rtype == "cancel":
            job.cancel_requested = True
            if job.state == JobState.PENDING:
                job.state = JobState.CANCELLED
        elif rtype == "finish":
            job.state = rec.get("status", JobState.DONE)
            job.result = rec.get("result")
            job.error = rec.get("error")
            if rec.get("finished_at") is not None:
                job.finished_at = float(rec["finished_at"])
        elif rtype == "forget":
            # Retention GC: the job and its artifacts are gone; replaying
            # a forget for an already-absent job is a no-op (idempotent).
            jobs.pop(job.job_id, None)
    return jobs


def job_table_state(jobs: dict[str, Job]) -> dict:
    """Snapshot payload for :meth:`JobJournal.compact`."""
    return {jid: job.to_state_dict() for jid, job in sorted(jobs.items())}
