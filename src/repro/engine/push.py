"""Push-mode execution — the paper's future-work condition, built out.

The paper's §II scopes update functions in *pull* mode (read in-edges,
write out-edges) and its future work asks for "more sufficient
conditions (e.g., those considering the push mode)".  In push mode
(Ligra's style, which §III cites for its whole-update CAS granularity),
``f(v)`` reads only its own state and *pushes* contributions into its
out-neighbours' **vertex accumulators**; the contended object moves
from edges to per-vertex accumulators, and the atomic primitive is an
atomic *combine* (fetch-and-min / fetch-and-add / CAS loop) rather than
an atomic load or store.

This module provides:

* :class:`CombineOp` — the accumulator algebra (MIN / MAX / ADD), with
  the properties the sufficient condition needs (commutative,
  associative, idempotent or not);
* :class:`PushProgram` / :class:`PushContext` — the push-mode program
  API: ``take`` your own accumulator, update your state, ``push`` to
  out-neighbours (which schedules them, mirroring the paper's task
  generation rule);
* :class:`PushEngine` — a barriered executor with the same virtual
  thread/dispatch/delay machinery as the pull-mode engine.  A push by
  task ``w`` is folded into the target's accumulator *as seen by* task
  ``r`` iff ``w ≺ r`` (Definitions 1–3); in-flight pushes are never
  lost — they are consumed at the next opportunity — because an atomic
  combine delivers every contribution exactly once.  With
  ``AtomicityPolicy.NONE`` racy combines drop contributions with the
  configured probability (the classic lost-update), so the engine can
  demonstrate why the atomic combine is the push-mode analogue of
  §III's atomicity guarantee.

The corresponding sufficient condition lives in
:func:`repro.theory.eligibility.check_push_program`:

    *If a push-mode algorithm converges under a deterministic schedule
    and every accumulator's combine operation is commutative and
    associative, and combines are applied atomically, then the
    algorithm converges nondeterministically* — order of delivery
    cannot change any folded value, so the proof of Theorem 1 carries
    over with "edge value" replaced by "accumulator value".
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..graph import DiGraph
from .atomicity import AtomicityPolicy
from .config import EngineConfig
from .conflicts import ConflictLog
from .dispatch import make_plan
from .frontier import sorted_ids
from .loop import run_loop
from .result import IterationStats, RunResult
from .state import FieldSpec, State
from .traits import AlgorithmTraits

__all__ = [
    "CombineOp",
    "AccumulatorSpec",
    "PushContext",
    "PushProgram",
    "PushEngine",
    "run_push",
]


class CombineOp(enum.Enum):
    """Accumulator combine algebra."""

    MIN = "min"
    MAX = "max"
    ADD = "add"

    @property
    def commutative_associative(self) -> bool:
        return True  # all three are; a future SUBTRACT would not be

    @property
    def idempotent(self) -> bool:
        """Idempotent ops (min/max) tolerate duplicate delivery too."""
        return self in (CombineOp.MIN, CombineOp.MAX)

    def fold(self, a: float, b: float) -> float:
        if self is CombineOp.ADD:
            return a + b
        # MIN/MAX: propagate NaN symmetrically.  The naive
        # ``a if a <= b else b`` answers ``b`` whenever a comparison
        # involves NaN, so fold(nan, x) != fold(x, nan) — silently
        # breaking the commutativity check_push_program relies on.
        if a != a or b != b:
            return float("nan")
        if self is CombineOp.MIN:
            return a if a <= b else b
        return a if a >= b else b

    @property
    def identity(self) -> float:
        if self is CombineOp.MIN:
            return float(np.inf)
        if self is CombineOp.MAX:
            return float(-np.inf)
        return 0.0


@dataclass(frozen=True)
class AccumulatorSpec:
    """One named per-vertex accumulator."""

    op: CombineOp
    dtype: np.dtype | type | str = np.float64


class _PendingPush:
    """One in-flight contribution: (time, thread, sender, value)."""

    __slots__ = ("time", "thread", "sender", "value")

    def __init__(self, time: float, thread: int, sender: int, value: float):
        self.time = time
        self.thread = thread
        self.sender = sender
        self.value = value


class PushContext:
    """What a push-mode update may see and do.

    Scope: the update's own vertex fields and accumulators, plus
    *pushes* to out-neighbours.  There is no edge data and no reading of
    other vertices — the defining restriction of push mode.
    """

    __slots__ = ("vid", "_graph", "_state", "_engine", "_schedule", "n_pushes", "n_takes")

    def __init__(self, vid: int, graph: DiGraph, state: State, engine, schedule: set[int]):
        self.vid = vid
        self._graph = graph
        self._state = state
        self._engine = engine
        self._schedule = schedule
        self.n_pushes = 0
        self.n_takes = 0

    @property
    def graph(self) -> DiGraph:
        return self._graph

    @property
    def out_degree(self) -> int:
        return self._graph.out_degree(self.vid)

    def out_neighbors(self) -> np.ndarray:
        return self._graph.out_neighbors(self.vid)

    def get(self, field: str) -> float:
        return self._state.vertex(field)[self.vid]

    def set(self, field: str, value: float) -> None:
        self._state.vertex(field)[self.vid] = value

    def peek(self, field: str) -> float:
        """Current (visible) value of this vertex's accumulator."""
        return self._engine.fold_visible(self.vid, field, consume=False)

    def take(self, field: str) -> float:
        """Atomically read-and-reset this vertex's accumulator.

        Only contributions that have *propagated* to this task are
        consumed; in-flight pushes stay pending and re-activate the
        vertex later — no contribution is ever lost (the atomic-combine
        guarantee).
        """
        self.n_takes += 1
        return self._engine.fold_visible(self.vid, field, consume=True)

    def push(self, target: int, field: str, value: float) -> None:
        """Atomically combine ``value`` into ``target``'s accumulator and
        schedule ``target`` (the push-mode task-generation rule).

        A contribution dropped by a racy non-atomic combine
        (``AtomicityPolicy.NONE``) never landed anywhere, so it must not
        fire the task-generation rule: only a delivered push schedules
        its target.
        """
        self.n_pushes += 1
        if self._engine.deliver(self.vid, int(target), field, float(value)):
            self._schedule.add(int(target))


class PushProgram(abc.ABC):
    """A push-mode vertex program."""

    traits: AlgorithmTraits

    @abc.abstractmethod
    def vertex_fields(self) -> Mapping[str, FieldSpec]:
        """Per-vertex state (private to the owner)."""

    @abc.abstractmethod
    def accumulators(self) -> Mapping[str, AccumulatorSpec]:
        """Named accumulators with their combine algebra."""

    def initial_frontier(self, graph: DiGraph):
        return "all"

    @abc.abstractmethod
    def update(self, ctx: PushContext) -> None:
        """take → compute → push."""

    def make_state(self, graph: DiGraph) -> State:
        return State(graph, self.vertex_fields(), {})

    def result(self, state: State) -> np.ndarray:
        names = state.vertex_field_names
        if not names:
            raise ValueError(f"{type(self).__name__} declares no vertex fields")
        return state.vertex(names[0])


class PushEngine:
    """Barriered push-mode executor (deterministic or simulated-racy).

    The same iteration/dispatch skeleton as the pull-mode engines; the
    shared mutable objects are per-vertex accumulators.  Visibility of a
    push follows Definitions 1–3 through the configured delay model;
    un-propagated pushes carry over to later iterations (timestamps are
    rebased so everything in flight is visible at the next barrier).
    """

    mode = "push"

    def __init__(self):
        self._acc_specs: Mapping[str, AccumulatorSpec] = {}
        self._pending: dict[str, dict[int, list[_PendingPush]]] = {}
        self._current_slot = None
        self._delay_model = None
        self._lost_rng = None
        self._lost_p = 0.0
        self.log = ConflictLog()

    # -- engine internals used by PushContext ---------------------------
    def deliver(self, sender: int, target: int, field: str, value: float) -> bool:
        """Fold one contribution into ``target``'s pending set.

        Returns whether the contribution landed: ``False`` means a racy
        non-atomic combine lost it (the classic lost-update), in which
        case the caller must not schedule the target.
        """
        slot = self._current_slot
        pushes = self._pending[field].setdefault(target, [])
        racing = any(
            p.thread != slot.thread
            and abs(p.time - slot.time) < self._delay_model.delay(p.thread, slot.thread)
            for p in pushes
        )
        if racing:
            # Concurrent combines on one accumulator: contention exists
            # under every policy; only a non-atomic combine loses one.
            self.log.write_write += 1
            if self._lost_rng is not None and self._lost_rng.random() < self._lost_p:
                self.log.lost_writes += 1
                return False
        pushes.append(_PendingPush(slot.time, slot.thread, sender, value))
        return True

    def fold_visible(self, vid: int, field: str, *, consume: bool) -> float:
        spec = self._acc_specs[field]
        slot = self._current_slot
        pushes = self._pending[field].get(vid)
        acc = spec.op.identity
        if not pushes:
            return acc
        kept: list[_PendingPush] = []
        invisible = 0
        for p in pushes:
            if p.thread == slot.thread:
                visible = p.time < slot.time
            else:
                visible = (slot.time - p.time) >= self._delay_model.delay(
                    p.thread, slot.thread
                )
            if visible:
                acc = spec.op.fold(acc, p.value)
                if not consume:
                    kept.append(p)
            else:
                invisible += 1
                kept.append(p)
        # Per-contribution accounting, matching pull mode's per-access
        # stale-read counters: every in-flight push this fold failed to
        # observe is one stale read, not one per fold call.
        self.log.stale_reads += invisible
        if consume or len(kept) != len(pushes):
            if kept:
                self._pending[field][vid] = kept
            else:
                del self._pending[field][vid]
        return acc

    def _rebase_pending(self) -> set[int]:
        """At the barrier, mark all in-flight pushes as propagated and
        return the vertices that still hold contributions."""
        holders: set[int] = set()
        for field, per_vertex in self._pending.items():
            for vid, pushes in per_vertex.items():
                for p in pushes:
                    p.time = -np.inf  # visible to everyone next iteration
                holders.add(vid)
        return holders

    # -- the step of the one loop ----------------------------------------
    def run(
        self,
        program: PushProgram,
        graph: DiGraph,
        config: EngineConfig | None = None,
        *,
        state: State | None = None,
        observer=None,
    ) -> RunResult:
        config = config or EngineConfig()
        state = state if state is not None else program.make_state(graph)
        self._acc_specs = dict(program.accumulators())
        self._pending = {f: {} for f in self._acc_specs}
        self.log = ConflictLog(keep_events=config.keep_conflict_events)
        if config.atomicity is AtomicityPolicy.NONE:
            self._lost_rng = config.rng("torn")
            self._lost_p = config.torn_probability
        else:
            self._lost_rng = None
        jitter_rng = config.rng("jitter") if config.jitter > 0 else None
        p = config.threads

        def step(iteration, active, dm, clock):
            self._delay_model = dm
            plan = make_plan(
                active, p, policy=config.dispatch, jitter=config.jitter, rng=jitter_rng
            )
            next_schedule: set[int] = set()
            upd = [0] * p
            pushes = [0] * p
            takes = [0] * p
            for vid in plan.execution_order():
                slot = plan.slots[vid]
                self._current_slot = slot
                ctx = PushContext(vid, graph, state, self, next_schedule)
                program.update(ctx)
                upd[slot.thread] += 1
                pushes[slot.thread] += ctx.n_pushes
                takes[slot.thread] += ctx.n_takes
            # Barrier: everything in flight becomes visible; vertices
            # still holding contributions must run again (so an empty
            # frontier also certifies an empty pending store).
            next_schedule.update(self._rebase_pending())
            return (sorted_ids(next_schedule),
                    IterationStats(iteration, int(active.size), upd, takes,
                                   pushes), None, {})

        return run_loop(program, graph, config, state, step, mode=self.mode,
                        conflicts=self.log, observer=observer)


def run_push(
    program: PushProgram,
    graph: DiGraph,
    *,
    mode: str = "nondeterministic",
    config: EngineConfig | None = None,
    observer=None,
    **config_kwargs,
) -> RunResult:
    """Execute a push-mode program.

    ``mode="deterministic"`` forces a single virtual thread without
    jitter (a sequential small-label sweep); ``"nondeterministic"`` uses
    the configured thread count/delay/jitter.
    """
    if config is not None and config_kwargs:
        raise ValueError("pass either config= or individual config kwargs, not both")
    if config is None:
        config = EngineConfig(**config_kwargs)
    if mode == "deterministic":
        config = config.with_(threads=1, jitter=0.0)
    elif mode != "nondeterministic":
        raise ValueError(f"unknown push mode {mode!r}")
    return PushEngine().run(program, graph, config, observer=observer)
