"""The run specification: every ``run()`` switch, stated once.

``run()`` builds one :class:`RunSpec`; ``capabilities.check`` judges and
normalizes it; ``dispatch`` and ``supervised_run`` read it.  A service
job's JSON fields and the CLI's shared flags are its wire subset
(:func:`repro.service.jobs.wire_run_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .capabilities import Refused, positive
from .config import EngineConfig

__all__ = ["RunSpec"]


@dataclass(frozen=True)
class RunSpec:
    """One request to run a program: the execution model and every
    switch, sink and robustness knob around it.  Which values compose is
    the capability table's (README "What runs with what").  ``None``
    sinks cost one pointer check per iteration."""

    #: the execution model: ``"sync"`` (BSP, Theorem 1's premise),
    #: ``"deterministic"`` (Gauss–Seidel, the paper's DE),
    #: ``"chromatic"`` (color classes), ``"nondeterministic"`` (the
    #: paper's racy NE), ``"pure-async"`` (barrier-free, the paper's
    #: future work) or ``"delta"`` (delta-accumulative, incremental)
    mode: str = "nondeterministic"
    #: the :class:`EngineConfig`; ``None`` runs the default one or, with
    #: ``resume_from``, adopts the checkpointed one
    config: EngineConfig | None = None
    #: start from this state instead of the program's initial one
    state: object = None
    #: ``observer(iteration, state, next_schedule)``, called at every
    #: barrier with the same trajectory on every path
    observer: object = None
    #: ``True`` takes the NumPy array path on the mode's plan when the
    #: program/config is eligible, else the bit-identical object engine
    #: with a ``vectorized_fallback`` event; ``"require"`` refuses instead
    vectorized: bool | str = False
    #: ``"process"`` runs the vectorized model across ``config.threads``
    #: OS worker processes over shared memory, bit-identically; a dead
    #: worker raises :class:`~repro.robust.errors.WorkerDied`
    backend: str | None = None
    #: the array paths' per-iteration strategy, bit-identical in every
    #: value: ``"pull"`` (dense masks), ``"push"`` (the frontier's edges;
    #: the §IV push-eligibility check applies) or ``"auto"`` (Beamer's
    #: heuristic, ``config.direction_alpha`` / ``direction_beta``)
    direction: str = "pull"
    #: a :class:`~repro.obs.Telemetry` sink: a span per iteration plus
    #: run metadata and fallback events
    telemetry: object = None
    #: a :class:`~repro.obs.MetricsRegistry`: per-iteration phase timers,
    #: conflict/update counters and latency histograms, accumulated
    #: across runs and processes
    metrics: object = None
    #: race provenance per contended edge access: a
    #: :class:`~repro.obs.Recorder`, a JSONL path, or ``True`` for an
    #: in-memory conflicts-only recorder
    record: object = None
    #: a pre-built :class:`~repro.robust.Supervisor`; installs its hooks
    #: without the retry loop
    supervisor: object = None
    #: a :class:`~repro.robust.FaultPlan`, a list of
    #: :class:`~repro.robust.Fault`, or a spec such as ``"crash@3;torn@5"``
    faults: object = None
    #: a :class:`~repro.robust.ConvergenceWatchdog` (stalls, Theorem-2
    #: oscillation, deadline breaches)
    watchdog: object = None
    #: a :class:`~repro.robust.DegradationPolicy`: restart budget,
    #: backoff, atomicity escalation, deterministic fallback engine
    policy: object = None
    #: path of the barrier checkpoint, written atomically (last one wins)
    checkpoint: object = None
    #: write the checkpoint every this many iterations
    checkpoint_every: int = 1
    #: checkpoint to continue from, bit-identically
    resume_from: object = None
    #: wall-clock budget; a breach goes through the degradation policy
    deadline_s: float | None = None
    #: zero-argument callable polled at every barrier after its
    #: checkpoint; a truthy return (the reason) raises
    #: :class:`~repro.robust.RunInterrupted`, resumable bit-identically
    interrupt: object = None
    #: delta mode: :class:`~repro.graph.mutations.MutationBatch` list
    #: streamed through the engine after convergence, repaired in place
    mutations: object = None
    #: delta mode: residual below which a vertex is left unscheduled
    #: (``None``: the kernel's)
    delta_threshold: float | None = None
    #: delta mode: dispatch every above-threshold vertex (``"frontier"``)
    #: or only the largest residuals (``"priority"``, Maiter-style)
    delta_scheduling: str = "frontier"

    @classmethod
    def build(cls, config_kwargs: dict, **fields) -> "RunSpec":
        """The spec of ``run(**fields, **config_kwargs)``: individual
        :class:`EngineConfig` fields stand in for ``config``."""
        if config_kwargs:
            if fields.get("config") is not None:
                raise Refused("pass either config= or individual config "
                              "kwargs, not both")
            positive("max_iterations", config_kwargs.get("max_iterations", 1))
            fields["config"] = EngineConfig(**config_kwargs)
        return cls(**fields)

    @property
    def robustness(self) -> str:
        """The capability table's ``robustness`` axis value."""
        if self.checkpoint is not None or self.resume_from is not None:
            return "checkpoint"
        if any(x is not None for x in (self.supervisor, self.faults,
                                       self.watchdog, self.policy,
                                       self.deadline_s)):
            return "faults"
        return "none" if self.interrupt is None else "interrupt"

    @property
    def supervised(self) -> bool:
        """Whether :func:`repro.robust.supervised_run` (the retry loop)
        runs it: a robustness knob but no pre-built ``supervisor``."""
        return self.robustness != "none" and self.supervisor is None
