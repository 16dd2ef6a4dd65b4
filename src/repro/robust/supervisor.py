"""The supervised execution loop: inject, monitor, checkpoint, recover.

Two pieces live here:

* :class:`Supervisor` — the per-run hook object every engine consults at
  its instrumentation points.  A ``None`` supervisor costs the engines
  one pointer check per iteration (the same contract as ``telemetry=``
  and ``record=``); an active one applies :class:`FaultPlan` faults,
  feeds the :class:`ConvergenceWatchdog`, writes barrier checkpoints,
  and maintains the in-memory restart token.

* :func:`supervised_run` — the retry loop around the engines.  Crashes
  and worker timeouts restart from the best restore point (file
  checkpoint > in-memory barrier token > scratch) with exponential
  backoff; watchdog alarms degrade — first escalate the atomicity
  guarantee, then abandon nondeterminism and finish on a deterministic
  engine from the last good barrier state.  Every recovery decision is
  recorded as a ``degradation`` event in the telemetry/recorder traces
  and in ``result.extra["degradations"]``.

Hook protocol (the one loop, :func:`repro.engine.loop.run_loop`)::

    sup.engine_start(mode, program, config, state=..., frontier=ids,
                     rngs={...}, conflicts=log, cursor={...})
                                                 -> (start_iteration, ids)
    sup.pre_iteration(iteration)                           # faults fire
    dm_i = sup.iteration_delay_model(iteration, dm)        # delay faults
    ids = sup.post_iteration(iteration, state=state, schedule=ids)

Frontiers are sorted int64 vertex-id arrays.  ``post_iteration`` runs at
the barrier, *after* the commit and *before* the telemetry span /
observer callback, so every downstream consumer sees the post-fault
schedule.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import replace

import numpy as np

from ..engine.atomicity import AtomicityPolicy
from ..engine.capabilities import Refused, lookup, residency_of
from ..engine.config import EngineConfig
from ..engine.delaymodel import DelayModel
from ..engine.runner import dispatch
from ..engine.spec import RunSpec
from .errors import (
    CheckpointError,
    ConvergenceFailure,
    InjectedCrash,
    RunInterrupted,
    WatchdogAlarm,
    WorkerTimeout,
)
from .faults import FaultPlan
from .watchdog import ConvergenceWatchdog, DegradationPolicy, state_digest

__all__ = ["Supervisor", "supervised_run"]

#: engines whose in-flight state may be inconsistent after a crash
#: (pure-async has no barrier)
_NO_MEMORY_RESTART = frozenset({"pure-async"})


class Supervisor:
    """Per-run hook object consulted by the engines.

    Engines hold it behind a single ``if supervisor is not None`` check,
    so a disabled fault-tolerance layer costs one pointer comparison per
    iteration.
    """

    def __init__(self, *, faults: FaultPlan | None = None,
                 watchdog: ConvergenceWatchdog | None = None,
                 checkpoint_path=None, checkpoint_every: int = 1,
                 telemetry=None, record=None, interrupt=None):
        self.faults = faults
        self.watchdog = watchdog
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.telemetry = telemetry
        self.record = record
        #: zero-argument callable polled at every barrier; a truthy
        #: return value (the reason string) stops the run with
        #: :class:`RunInterrupted` *after* the barrier checkpoint
        self.interrupt = interrupt
        #: iteration of the last checkpoint written this run (None = none)
        self.last_checkpoint_iteration: int | None = None
        #: in-memory restart token maintained at every barrier
        self.memory_token: dict | None = None
        #: restore point applied at the next ``engine_start``
        self.pending_resume = None
        self._mode = ""
        self._program_name = ""
        self._config: EngineConfig | None = None
        self._rngs: dict = {}
        self._conflicts = None
        self._cursor: dict | None = None
        self._fired_seen = 0

    # ------------------------------------------------------------------
    # engine hooks
    # ------------------------------------------------------------------
    def engine_start(self, mode: str, program, config: EngineConfig, *,
                     state, frontier, rngs: dict | None = None,
                     conflicts=None, cursor: dict | None = None):
        """Register run context (``rngs``: name -> generator, ``None``
        for a stream not in use; ``cursor``: the engine's JSON-able
        position beyond state and frontier, e.g. the delta engine's
        batch cursor); apply a pending restore point, ``cursor`` in
        place.

        Returns ``(start_iteration, frontier)``, the frontier as a
        sorted int64 id array.  ``frontier=None`` marks a barrier-free
        engine (pure-async): checkpoint/resume is refused for it.
        """
        self._mode = mode
        self._program_name = type(program).__name__
        self._config = config
        self._rngs = {k: g for k, g in (rngs or {}).items() if g is not None}
        self._conflicts = conflicts
        self._cursor = cursor
        if frontier is None:
            if self.checkpoint_path is not None or self.pending_resume is not None:
                raise CheckpointError(
                    "the pure-async engine is barrier-free: there is no "
                    "consistent cut to checkpoint or resume from")
            return 0, None
        resume = self.pending_resume
        self.pending_resume = None
        if resume is None:
            return 0, frontier
        if not isinstance(resume, dict):  # a file Checkpoint: token shape
            if resume.program != self._program_name:
                raise CheckpointError(
                    f"checkpoint was taken for program {resume.program!r}, "
                    f"cannot resume {self._program_name!r}")
            self._apply_arrays(resume, state)
            resume = {"iteration": resume.iteration,
                      "frontier": resume.frontier,
                      "rng_states": resume.rng_states,
                      "conflicts": resume.conflicts,
                      "cursor": resume.extra.get("cursor")}
        for name, rng_state in resume["rng_states"].items():
            rng = self._rngs.get(name)
            if rng is not None:
                rng.bit_generator.state = rng_state
        if conflicts is not None and resume.get("conflicts"):
            _restore_conflicts(conflicts, resume["conflicts"])
        if cursor is not None and resume.get("cursor") is not None:
            cursor.clear()
            cursor.update(copy.deepcopy(resume["cursor"]))
        return (int(resume["iteration"]),
                np.asarray(resume["frontier"], dtype=np.int64))

    def pre_iteration(self, iteration: int) -> None:
        """Fire engine-level faults before the iteration's updates run.

        Thread-targeted faults fire here too: the engines' threads are
        virtual, so the barrier is the only place a per-worker fault can
        act.
        """
        faults = self.faults
        if faults is None or not faults:
            return
        stall = faults.stall_seconds(iteration, thread=None, engine_level=True)
        crash = faults.crash_index(iteration, thread=None, engine_level=True)
        if self._config is not None:
            for tid in range(self._config.threads):
                stall += faults.stall_seconds(iteration, thread=tid,
                                              engine_level=False)
                if crash is None:
                    crash = faults.crash_index(iteration, thread=tid,
                                               engine_level=False)
        if stall > 0:
            self.drain_fired()
            time.sleep(stall)
        if crash is not None:
            faults.raise_crash(crash[0], crash[1], iteration)

    def iteration_delay_model(self, iteration: int,
                              delay_model: DelayModel) -> DelayModel:
        """The iteration's delay model, inflated by its delay faults."""
        faults = self.faults
        if faults is None or not faults:
            return delay_model
        factor = faults.delay_factor(iteration)
        if factor == 1.0:
            return delay_model
        self.drain_fired()
        return _scale_delay_model(delay_model, factor)

    def post_iteration(self, iteration: int, *, state, schedule):
        """Barrier hook: value faults, checkpoint, restart token, watchdog.

        Returns the (possibly fault-reduced) schedule, a sorted int64 id
        array like the one given.
        """
        faults = self.faults
        ids = schedule
        if faults is not None and faults:
            ids = faults.drop_scatter(iteration, ids)
            faults.apply_torn(iteration, state)
            self.drain_fired()
        if (self.checkpoint_path is not None
                and (iteration + 1) % self.checkpoint_every == 0):
            self._write_checkpoint(iteration + 1, state, ids)
        self.memory_token = {
            "iteration": iteration + 1,
            "frontier": ids.copy(),
            "rng_states": self._rng_states(),
            "conflicts": _capture_conflicts(self._conflicts),
            "cursor": copy.deepcopy(self._cursor),
        }
        if self.interrupt is not None:
            # Polled after the checkpoint/token so the stop point is a
            # durable restore point: drain and cancel lose nothing.
            reason = self.interrupt()
            if reason:
                raise RunInterrupted(str(reason), iteration=iteration + 1)
        if self.watchdog is not None:
            digest = (state_digest(state, ids)
                      if self.watchdog.wants_digest else None)
            verdict = self.watchdog.observe(
                iteration, frontier_size=int(ids.size), digest=digest)
            if verdict is not None:
                raise WatchdogAlarm(verdict)
        return ids

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def drain_fired(self) -> None:
        """Emit newly fired faults as ``fault_injected`` trace events."""
        faults = self.faults
        if faults is None:
            return
        while self._fired_seen < len(faults.fired):
            entry = faults.fired[self._fired_seen]
            self._fired_seen += 1
            if self.telemetry is not None:
                self.telemetry.event("fault_injected", **entry)
            if self.record is not None:
                self.record.event("fault_injected", **entry)

    def _rng_states(self) -> dict:
        return {name: rng.bit_generator.state
                for name, rng in self._rngs.items()}

    def _write_checkpoint(self, iteration: int, state, ids: np.ndarray) -> None:
        from ..storage.checkpoint import Checkpoint, save_checkpoint

        ckpt = Checkpoint(
            iteration=iteration,
            mode=self._mode,
            program=self._program_name,
            config=self._config or EngineConfig(),
            frontier=ids,
            vertex_arrays={f: state.vertex(f)
                           for f in state.vertex_field_names},
            edge_arrays={f: state.edge(f) for f in state.edge_field_names},
            rng_states=self._rng_states(),
            conflicts=_capture_conflicts(self._conflicts),
            extra={} if self._cursor is None else {"cursor": self._cursor},
        )
        save_checkpoint(self.checkpoint_path, ckpt)
        self.last_checkpoint_iteration = iteration

    @staticmethod
    def _apply_arrays(ckpt, state) -> None:
        for name, arr in ckpt.vertex_arrays.items():
            target = state.vertex(name)
            if target.shape != arr.shape:
                raise CheckpointError(
                    f"vertex array {name!r} has shape {arr.shape}, "
                    f"state expects {target.shape}")
            target[:] = arr
        for name, arr in ckpt.edge_arrays.items():
            target = state.edge(name)
            if target.shape != arr.shape:
                raise CheckpointError(
                    f"edge array {name!r} has shape {arr.shape}, "
                    f"state expects {target.shape}")
            target[:] = arr


# ----------------------------------------------------------------------
# conflict-log capture
# ----------------------------------------------------------------------
def _capture_conflicts(log) -> dict:
    if log is None:
        return {}
    return {
        "read_write": log.read_write,
        "write_write": log.write_write,
        "contended_edges": log.contended_edges,
        "lost_writes": log.lost_writes,
        "stale_reads": log.stale_reads,
        "per_iteration": {str(k): v for k, v in log.per_iteration.items()},
    }


def _restore_conflicts(log, data: dict) -> None:
    log.read_write = int(data.get("read_write", 0))
    log.write_write = int(data.get("write_write", 0))
    log.contended_edges = int(data.get("contended_edges", 0))
    log.lost_writes = int(data.get("lost_writes", 0))
    log.stale_reads = int(data.get("stale_reads", 0))
    log.per_iteration.clear()
    log.per_iteration.update(
        {int(k): v for k, v in (data.get("per_iteration") or {}).items()})


def _scale_delay_model(dm: DelayModel, factor: float) -> DelayModel:
    return DelayModel(intra=dm.intra * factor, inter=dm.inter * factor,
                      group_size=dm.group_size)


# ----------------------------------------------------------------------
# the supervised loop
# ----------------------------------------------------------------------
def _make_state(program, graph, mode):
    """Initial state for ``graph`` — out-of-core and delta aware."""
    from ..storage.shards import ShardStore

    if isinstance(graph, ShardStore):
        return graph.nondet_runner().make_state(program)
    if mode == "delta":
        from ..engine.nondet_delta import delta_state

        return delta_state(program, graph)
    return program.make_state(graph)


def _emit_degradation(telemetry, record, degradations: list, event: dict) -> None:
    degradations.append(event)
    if telemetry is not None:
        telemetry.event("degradation", **event)
    if record is not None:
        record.event("degradation", **event)


def supervised_run(program, graph, spec: RunSpec):
    """Run ``program`` under fault injection, monitoring, and recovery.

    This is the engine room behind ``run()``'s robustness knobs (the
    :class:`~repro.engine.spec.RunSpec` fields say what each one does).
    When ``spec.config`` is ``None`` and ``resume_from`` names a
    checkpoint, the checkpointed configuration is adopted so a bare
    ``--resume`` replays the original run exactly.
    """
    resume_ckpt = None
    config = spec.config
    if spec.resume_from is not None:
        from ..storage.checkpoint import load_checkpoint

        resume_ckpt = load_checkpoint(spec.resume_from)
        if resume_ckpt.mode != spec.mode:
            raise CheckpointError(
                f"checkpoint was taken in mode {resume_ckpt.mode!r}; "
                f"resume with the same mode (got {spec.mode!r})")
        if config is None:
            config = resume_ckpt.config
    config = config or EngineConfig()
    faults = (None if spec.faults is None
              else FaultPlan.from_spec(spec.faults, seed=config.seed))
    policy = spec.policy or DegradationPolicy()
    watchdog = spec.watchdog
    if spec.deadline_s is not None:
        if watchdog is None:
            watchdog = ConvergenceWatchdog(oscillation=False,
                                           deadline_s=spec.deadline_s)
        else:
            watchdog.deadline_s = float(spec.deadline_s)
    telemetry, record = spec.telemetry, spec.record

    sup = Supervisor(faults=faults, watchdog=watchdog,
                     checkpoint_path=spec.checkpoint,
                     checkpoint_every=spec.checkpoint_every,
                     telemetry=telemetry, record=record,
                     interrupt=spec.interrupt)
    sup.pending_resume = resume_ckpt

    # The attempt's spec: what a recovery step changes is replaced in it.
    cur = replace(spec, config=config, supervisor=sup, state=(
        spec.state if spec.state is not None
        else _make_state(program, graph, spec.mode)))
    degradations: list[dict] = []
    restarts = 0
    escalated = False
    fell_back = False

    while True:
        if watchdog is not None:
            watchdog.reset()
        try:
            result = dispatch(program, graph, cur)
            break
        except (InjectedCrash, WorkerTimeout) as exc:
            sup.drain_fired()
            restarts += 1
            if restarts > policy.max_restarts:
                raise ConvergenceFailure(
                    f"gave up after {policy.max_restarts} restart(s): {exc}"
                ) from exc
            event = {
                "action": "restart",
                "attempt": restarts,
                "cause": type(exc).__name__,
                "iteration": getattr(exc, "iteration", -1),
                "detail": str(exc),
            }
            file_restore = None
            if spec.checkpoint is not None \
                    and os.path.exists(os.fspath(spec.checkpoint)):
                from ..storage.checkpoint import load_checkpoint

                file_restore = load_checkpoint(spec.checkpoint)
            elif resume_ckpt is not None and sup.memory_token is None:
                # crashed before the first barrier of a resumed run
                file_restore = resume_ckpt
            token = (sup.memory_token
                     if cur.mode not in _NO_MEMORY_RESTART else None)
            if token is not None and (file_restore is None
                                      or token["iteration"] >= file_restore.iteration):
                restore = dict(token)
                event["resume_iteration"] = restore["iteration"]
            elif file_restore is not None:
                restore = file_restore
                event["resume_iteration"] = restore.iteration
            else:
                restore = None
                event["resume_iteration"] = 0
            if restore is None and cur.mode in ("pure-async", "delta"):
                # no cut to reuse: pure-async has no barrier, and delta
                # may have repaired batches in before iteration 0
                cur = replace(cur, state=_make_state(program, graph, cur.mode))
            sup.pending_resume = restore
            _emit_degradation(telemetry, record, degradations, event)
            time.sleep(policy.backoff_for(restarts))
        except WatchdogAlarm as exc:
            sup.drain_fired()
            verdict = exc.verdict
            event = {
                "cause": "watchdog",
                "kind": verdict.kind,
                "iteration": verdict.iteration,
                "detail": verdict.detail,
            }
            if (policy.escalate_atomicity and not escalated
                    and cur.config.atomicity in (AtomicityPolicy.ATOMIC_RELAXED,
                                                 AtomicityPolicy.NONE)):
                escalated = True
                cur = replace(cur, config=cur.config.with_(
                    atomicity=AtomicityPolicy.LOCK))
                event["action"] = "escalate-atomicity"
            elif not fell_back:
                fell_back = True
                # The one switch the table has not seen yet: a ShardStore
                # graph has no object engine to fall back to.
                lookup(policy.fallback_mode, residency=residency_of(graph))
                if cur.mode == "delta":
                    raise Refused(
                        f"fallback_mode={policy.fallback_mode!r} cannot run "
                        "the delta cut: the deterministic engines take a "
                        "program state, not (x, accum, Δ) and a batch "
                        "cursor") from exc
                # The last rung runs the object oracle: the fallback
                # modes' array plans (sync, DE, chromatic) would refuse
                # record= under ``"require"``; nor does it take a
                # direction.
                cur = replace(cur, mode=policy.fallback_mode,
                              vectorized=False, backend=None,
                              direction="pull")
                event["action"] = f"fallback:{policy.fallback_mode}"
            else:
                event["action"] = "give-up"
                _emit_degradation(telemetry, record, degradations, event)
                raise ConvergenceFailure(
                    f"no degradation avenue left after {verdict.kind} at "
                    f"iteration {verdict.iteration}") from exc
            # the alarmed barrier state is consistent — continue from it
            sup.pending_resume = (dict(sup.memory_token)
                                  if sup.memory_token is not None else None)
            _emit_degradation(telemetry, record, degradations, event)

    result.extra["degradations"] = degradations
    if faults is not None:
        result.extra["faults_fired"] = list(faults.fired)
    if sup.last_checkpoint_iteration is not None:
        result.extra["last_checkpoint_iteration"] = sup.last_checkpoint_iteration
    return result
