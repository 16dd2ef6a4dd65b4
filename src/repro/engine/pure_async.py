"""Pure asynchronous execution: the paper's future-work model, built.

The paper studies the *synchronous implementation* of the asynchronous
model — iterations with barriers — and lists "pure asynchronous model"
(no barriers at all) as future work.  This engine provides it as a
discrete-event simulation:

* Each of ``P`` virtual threads owns a FIFO work queue of update tasks
  and a local clock; a thread repeatedly pops a task, executes it at its
  current clock time, and advances the clock by the task's duration
  (1 time unit + seeded jitter).
* There are **no barriers and no committed snapshots**: every write is
  appended to the edge's global history, and a read by thread ``t`` at
  time ``τ`` observes the newest (max ``(time, vid)``) write that has
  *propagated* to ``t`` — its own writes immediately, any other write
  once :meth:`~repro.engine.delaymodel.DelayModel.visible` admits it.
  The history is the nondeterministic engine's store,
  :class:`~repro.engine.edge_history.EdgeHistory`, in its barrier-free
  form: a long history drops writes every thread already sees.
* Task generation follows the paper's rule — writing edge ``(v, u)``
  enqueues ``u`` — with *autonomous scheduling*: the new task goes to
  the queue of the thread that owns ``u`` (its block owner), and
  duplicate pending tasks collapse (a vertex is enqueued at most once
  until it runs, GraphLab-style).  When the program implements
  :meth:`~repro.engine.program.VertexProgram` plus a ``priority(vid,
  state) -> float`` method, ready tasks are ordered lowest-priority-
  value-first within each thread (§I's "autonomous scheduling [lets] a
  graph algorithm define the execution path of the updates so as to
  accelerate its convergence" — e.g. SSSP ordering by tentative
  distance approximates Dijkstra and cuts task counts).
* Termination: all queues empty.  Convergence properties carry over
  from the barriered model (Theorems 1 and 2 only need every write to
  become visible in finite time), which the test suite checks; GRACE's
  observation that the barriered implementation has comparable runtime
  to pure asynchrony is visible in the comparable task counts.

Conflicts (reads missing un-propagated writes, overlapping writes) are
accounted with the same :class:`~repro.engine.conflicts.ConflictLog`
vocabulary; "iterations" in the result are redefined as the number of
tasks executed divided by the active-thread count (a wall-clock-ish
progress measure) with per-thread work recorded for the cost model.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from ..graph import DiGraph
from .atomicity import AtomicityPolicy
from .config import EngineConfig
from .conflicts import ConflictLog
from .edge_history import EdgeHistory
from .frontier import initial_frontier
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["PureAsyncEngine"]


class PureAsyncEngine:
    """Barrier-free asynchronous executor with autonomous scheduling."""

    mode = "pure-async"

    def run(
        self,
        program: VertexProgram,
        graph: DiGraph,
        config: EngineConfig | None = None,
        *,
        state: State | None = None,
        observer=None,
        telemetry=None,
        record=None,
        supervisor=None,
        metrics=None,  # the engines' common signature; the table refuses it
    ) -> RunResult:
        config = config or EngineConfig()
        sink = telemetry
        if sink is not None:
            sink.begin_engine_run(self.mode, program, config)
        if record is not None:
            record.begin_engine_run(self.mode, program, config)
        t0 = time.perf_counter() if sink is not None else 0.0
        state = state if state is not None else program.make_state(graph)
        p = config.threads
        delay_model = config.effective_delay_model()
        jitter_rng = config.rng("pure_async_jitter")
        torn_rng = (config.rng("torn")
                    if config.atomicity is AtomicityPolicy.NONE else None)
        if supervisor is not None:
            # Barrier-free: no consistent cut exists, so the supervisor
            # refuses checkpoint/resume (frontier=None) and faults are
            # keyed by *task index* instead of iteration.
            supervisor.engine_start(
                self.mode, program, config, state=state, frontier=None,
                rngs={},
            )
        log = ConflictLog(keep_events=config.keep_conflict_events)
        store = EdgeHistory(state, delay_model, config.atomicity,
                            config.torn_probability, torn_rng,
                            barrier=False, sees_own=True)
        if record is not None and record.wants_reads:
            store.read_recorder = record

        # Static block ownership: vertex v belongs to thread owner(v).
        n = graph.num_vertices
        chunk = max(1, -(-n // p))  # ceil division

        def owner(v: int) -> int:
            return min(v // chunk, p - 1)

        # Per-thread min-heaps of (ready_time, priority, seq, vid).  A
        # task's ready time is when the triggering write has propagated
        # to the owning thread: running it earlier could read the stale
        # value and lose the update forever — the failure mode the
        # barrier rules out in the paper's model, handled here by the
        # arrival constraint.  The priority component implements
        # autonomous scheduling: programs exposing priority(vid, state)
        # reorder runnable tasks, lowest value first.
        # Two heaps per thread: `future` ordered by arrival time (tasks
        # whose triggering information has not yet propagated), and
        # `runnable` ordered by the program's autonomous priority (among
        # tasks whose information has arrived, the algorithm chooses).
        future: list[list[tuple[float, float, int, int]]] = [[] for _ in range(p)]
        runnable: list[list[tuple[float, int, int]]] = [[] for _ in range(p)]
        prio_fn = getattr(program, "priority", None)

        def priority_of(v: int) -> float:
            return float(prio_fn(v, state)) if prio_fn is not None else 0.0

        # vid -> latest ready_time already enqueued (dedup: re-enqueue
        # only when newer information will arrive after that task runs).
        pending: dict[int, float] = {}
        seq = 0
        for v in initial_frontier(program, graph).sorted_vertices().tolist():
            heapq.heappush(runnable[owner(v)], (priority_of(v), seq, v))
            seq += 1
            pending[v] = 0.0

        clocks = [0.0] * p
        tasks_executed = 0
        reads_per_thread = [0] * p
        writes_per_thread = [0] * p
        updates_per_thread = [0] * p
        max_tasks = config.max_iterations * max(1, n)
        converged = True

        def promote(t: int, now: float) -> None:
            while future[t] and future[t][0][0] <= now:
                _, prio, sq, v = heapq.heappop(future[t])
                heapq.heappush(runnable[t], (prio, sq, v))

        while any(runnable) or any(future):
            if tasks_executed >= max_tasks:
                converged = False
                break
            # Next event: the thread that can start a task soonest —
            # immediately from its runnable heap, or after the earliest
            # future arrival.
            best_thread = -1
            best_start = np.inf
            for t in range(p):
                promote(t, clocks[t])
                if runnable[t]:
                    start = clocks[t]
                elif future[t]:
                    start = max(clocks[t], future[t][0][0])
                else:
                    continue
                if start < best_start:
                    best_start = start
                    best_thread = t
            thread = best_thread
            promote(thread, best_start)
            _, _, vid = heapq.heappop(runnable[thread])
            if pending.get(vid, -1.0) <= best_start:
                pending.pop(vid, None)
            if supervisor is not None:
                supervisor.pre_iteration(tasks_executed)
            store.time, store.thread = best_start, thread
            schedule: set[int] = set()
            ctx = UpdateContext(vid, graph, state, store, schedule,
                                strict_scope=config.validate_scope)
            program.update(ctx)
            tasks_executed += 1
            updates_per_thread[thread] += 1
            reads_per_thread[thread] += ctx.n_edge_reads
            writes_per_thread[thread] += ctx.n_edge_writes
            # Task duration: one unit plus environmental jitter.
            duration = 1.0 + (
                float(jitter_rng.uniform(0.0, config.jitter)) if config.jitter else 0.0
            )
            end_time = best_start + duration
            clocks[thread] = end_time
            for u in sorted(schedule):
                target = owner(u)
                arrival = (
                    end_time
                    if target == thread
                    else end_time + delay_model.delay(thread, target)
                )
                if pending.get(u, -1.0) >= arrival:
                    continue  # an already-queued task will see this write
                pending[u] = arrival
                if arrival <= clocks[target]:
                    heapq.heappush(runnable[target], (priority_of(u), seq, u))
                else:
                    heapq.heappush(future[target], (arrival, priority_of(u), seq, u))
                seq += 1

        store.commit(0, log, recorder=record)
        # Without barriers there is no commit point: stale reads count as
        # read-write conflicts, overlapping writes as write-write.
        log.read_write += store.stale_reads
        log.write_write += store.overlapping_writes
        stats = [
            IterationStats(
                iteration=0,
                num_active=tasks_executed,
                updates_per_thread=updates_per_thread,
                reads_per_thread=reads_per_thread,
                writes_per_thread=writes_per_thread,
            )
        ]
        if sink is not None:
            # Barrier-free: the whole run is one span ("iterations" are
            # redefined as executed tasks / thread count, see module doc).
            sink.iteration(
                iteration=0,
                num_active=tasks_executed,
                updates_per_thread=updates_per_thread,
                reads_per_thread=reads_per_thread,
                writes_per_thread=writes_per_thread,
                frontier_size=0,
                wall_time_s=time.perf_counter() - t0,
                read_write=log.read_write,
                write_write=log.write_write,
                tasks_executed=tasks_executed,
            )
        if observer is not None:
            observer(0, state, set())
        result = RunResult(
            program=program,
            state=state,
            mode=self.mode,
            converged=converged and not any(runnable) and not any(future),
            num_iterations=max(1, -(-tasks_executed // max(1, n))),
            iterations=stats,
            conflicts=log,
            config=config,
        )
        if record is not None:
            record.end_run(result)
        if sink is not None:
            sink.end_run(result)
        return result
