"""The nondeterministic executor: the paper's subject of study.

This engine realizes, exactly, the system model of §II under which the
paper proves Theorems 1 and 2: the *synchronous implementation of the
asynchronous model*.  Execution proceeds in barrier-separated iterations;
within an iteration the chosen updates are dispatched to ``P`` virtual
threads (Fig. 1), run small-label-first per thread, and race on the edge
data they share.  Visibility between same-iteration accesses follows
Definitions 1–3, parameterized by the propagation delay ``d``, with
optional seeded timestamp jitter modelling environmental noise.

Because Python (the GIL, and this reproduction's single-core target)
cannot host genuinely racy native threads, concurrency is *simulated*:
updates execute one at a time in global virtual-time order while the
engine mediates every edge access through the visibility rule
(:meth:`~repro.engine.delaymodel.DelayModel.visible`, applied by the
edge store :class:`~repro.engine.edge_history.EdgeHistory` that the
pure-async engine shares; here in its barrier form, which keeps every
write until the commit classifies it).  This is
a faithful — in fact strictly more controllable — realization of the
paper's model:

* a read sees a same-iteration write iff the writer ``≺`` the reader
  (Lemma 1: the edge transmits either the old or the new value, decided
  by the schedule);
* when several updates write one edge, the one with the maximal
  effective timestamp commits at the barrier (Lemma 2: exactly one of
  the competing values survives);
* every conflict is *observed and counted*, which a real racy execution
  cannot do without perturbing itself;
* the whole execution is a deterministic function of
  ``(program, graph, EngineConfig)`` — vary ``seed`` to sample the
  paper's "one run to another".

With ``atomicity=NONE`` the engine additionally injects torn values into
racing accesses, demonstrating why §III's minimal atomicity guarantee is
a precondition for everything else.
"""

from __future__ import annotations

import numpy as np

from ..graph import DiGraph
from .atomicity import AtomicityPolicy
from .config import EngineConfig
from .conflicts import ConflictLog
from .dispatch import make_plan
from .edge_history import EdgeHistory
from .frontier import sorted_ids
from .loop import run_loop
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["NondeterministicEngine"]

class NondeterministicEngine:
    """Simulated racy parallel executor (coordinated, asynchronous model)."""

    mode = "nondeterministic"

    @staticmethod
    def step_iteration(
        program: VertexProgram,
        graph: DiGraph,
        state: State,
        plan,
        config: EngineConfig,
        *,
        iteration: int = 0,
        log: ConflictLog | None = None,
        torn_rng: np.random.Generator | None = None,
        gather_rng: np.random.Generator | None = None,
        stats: list[IterationStats] | None = None,
        recorder=None,
        delay_model=None,
    ) -> set[int]:
        """Execute one racy iteration under an explicit dispatch plan.

        Mutates ``state`` (the barrier commit) and returns ``S_{n+1}``.
        This is the engine's *only* iteration body — :meth:`run` loops it —
        factored out so external drivers, notably the exhaustive schedule
        explorer in :mod:`repro.theory.explore`, can steer the schedule
        directly instead of sampling it through seeds.  ``gather_rng``
        carries the fp-noise stream; when ``stats`` is given, an
        :class:`IterationStats` row with the per-thread work profile is
        appended to it.  ``delay_model`` overrides the configured one
        (a delay fault's inflation).
        """
        log = log if log is not None else ConflictLog()
        if delay_model is None:
            delay_model = config.effective_delay_model()
        store = EdgeHistory(state, delay_model, config.atomicity,
                            config.torn_probability, torn_rng,
                            barrier=True, sees_own=False)
        next_schedule: set[int] = set()
        p = config.threads
        upd = [0] * p
        reads = [0] * p
        writes = [0] * p
        for vid in plan.execution_order():
            slot = plan.slots[vid]
            store.time, store.thread = slot.time, slot.thread
            ctx = UpdateContext(
                vid, graph, state, store, next_schedule, gather_rng=gather_rng,
                strict_scope=config.validate_scope,
            )
            program.update(ctx)
            upd[slot.thread] += 1
            reads[slot.thread] += ctx.n_edge_reads
            writes[slot.thread] += ctx.n_edge_writes
        store.commit(iteration, log, recorder=recorder)
        if stats is not None:
            stats.append(
                IterationStats(
                    iteration=iteration,
                    num_active=len(plan.slots),
                    updates_per_thread=upd,
                    reads_per_thread=reads,
                    writes_per_thread=writes,
                )
            )
        return next_schedule

    def run(
        self,
        program: VertexProgram,
        graph: DiGraph,
        config: EngineConfig | None = None,
        *,
        state: State | None = None,
        record=None,
        **loop_kw,
    ) -> RunResult:
        config = config or EngineConfig()
        state = state if state is not None else program.make_state(graph)
        rngs = {name: config.rng(name) for name, on in (
            ("fp", config.fp_noise), ("jitter", config.jitter > 0),
            ("torn", config.atomicity is AtomicityPolicy.NONE)) if on}
        log = ConflictLog(keep_events=config.keep_conflict_events)

        def step(iteration, active, dm, clock):
            # Coarse phase attribution: the object engine interleaves
            # every update with the racy store, so its whole iteration
            # body is one "gather" phase; only the dispatch plan
            # separates out.
            plan = make_plan(active, config.threads, policy=config.dispatch,
                             jitter=config.jitter, rng=rngs.get("jitter"))
            clock.lap("plan_build")
            stats: list[IterationStats] = []
            next_schedule = self.step_iteration(
                program, graph, state, plan, config, iteration=iteration,
                log=log, torn_rng=rngs.get("torn"), gather_rng=rngs.get("fp"),
                stats=stats, recorder=record, delay_model=dm,
            )
            clock.lap("gather")
            return sorted_ids(next_schedule), stats[0], None, {}

        return run_loop(program, graph, config, state, step, mode=self.mode,
                        rngs=rngs, conflicts=log, record=record, **loop_kw)
