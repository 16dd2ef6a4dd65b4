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
  appended to the edge's global version history, and a read by thread
  ``t`` at time ``τ`` observes the newest version that has *propagated*
  to ``t`` — its own writes immediately, another thread's writes once
  ``τ − write_time ≥ delay(writer_thread, t)``.
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

Conflicts (reads racing un-propagated writes, overlapping writes) are
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
from .atomicity import AtomicityPolicy, tear
from .config import EngineConfig
from .conflicts import ConflictLog
from .frontier import initial_frontier
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["PureAsyncEngine"]


class _VersionedStore:
    """Barrier-free edge store with per-edge version histories."""

    __slots__ = (
        "_arrays",
        "_history",
        "_base",
        "_delay",
        "_max_delay",
        "_torn",
        "_torn_p",
        "_torn_rng",
        "current_thread",
        "current_time",
        "stale_reads",
        "racy_reads",
        "overlapping_writes",
        "recorder",
        "_rec_reads",
    )

    #: History length that triggers compaction of fully-propagated versions.
    PRUNE_THRESHOLD = 16

    def __init__(self, state: State, delay_model, atomicity, torn_probability, torn_rng):
        self._arrays = {f: state.edge(f) for f in state.edge_field_names}
        # (field, eid) -> list of (time, thread, vid, value).  The engine
        # executes tasks in nondecreasing virtual start time, so entries
        # are appended time-sorted; any version older than
        # ``now - max_delay`` is visible to every future reader, and all
        # versions older than the newest such one are dead — they get
        # compacted into `_base` so reads stay O(propagation window).
        self._history: dict[tuple[str, int], list[tuple]] = {}
        self._base: dict[tuple[str, int], float] = {}
        self._delay = delay_model
        self._max_delay = delay_model.max_delay
        self._torn = atomicity is AtomicityPolicy.NONE
        self._torn_p = torn_probability
        self._torn_rng = torn_rng
        self.current_thread = 0
        self.current_time = 0.0
        self.stale_reads = 0
        self.racy_reads = 0
        self.overlapping_writes = 0
        # Set by the engine when a flight recorder is attached; _rec_reads
        # additionally requires recorder.wants_reads (Lemma-1 provenance).
        self.recorder = None
        self._rec_reads = None

    def read(self, vid: int, eid: int, field: str) -> float:
        key = (field, eid)
        hist = self._history.get(key)
        if not hist:
            return float(self._base.get(key, self._arrays[field][eid]))
        t_r, thread_r = self.current_time, self.current_thread
        value = self._base.get(key, self._arrays[field][eid])
        best_t = -np.inf
        racing_value = None
        stale = False
        stale_writes = None
        for t_w, thread_w, vid_w, val_w in hist:
            if thread_w == thread_r:
                visible = t_w <= t_r
            else:
                visible = (t_r - t_w) >= self._delay.delay(thread_w, thread_r)
            if visible:
                if t_w > best_t:
                    best_t = t_w
                    value = val_w
            elif t_w <= t_r:
                stale = True
                if self._rec_reads is not None:
                    if stale_writes is None:
                        stale_writes = []
                    stale_writes.append((vid_w, thread_w))
                if self._torn and thread_w != thread_r:
                    racing_value = val_w
        if stale:
            self.stale_reads += 1
            self.racy_reads += 1
            if stale_writes is not None:
                # A same-thread write is always visible (t_w <= t_r), so
                # every stale pair here crosses threads: a genuine race.
                for vid_w, thread_w in stale_writes:
                    self._rec_reads.read_event(
                        iteration=0,
                        field=field,
                        eid=eid,
                        reader=vid,
                        reader_thread=thread_r,
                        writer=vid_w,
                        writer_thread=thread_w,
                        count=1,
                        order="concurrent",
                        rule="lemma1-stale",
                        value=float(value),
                    )
        if racing_value is not None and self._torn_rng.random() < self._torn_p:
            return tear(float(value), float(racing_value), self._torn_rng)
        return float(value)

    def write(self, vid: int, eid: int, field: str, value: float) -> None:
        key = (field, eid)
        hist = self._history.setdefault(key, [])
        if hist:
            last_t, last_thread, _, _ = hist[-1]
            if (
                last_thread != self.current_thread
                and abs(self.current_time - last_t)
                < self._delay.delay(last_thread, self.current_thread)
            ):
                self.overlapping_writes += 1
        hist.append((self.current_time, self.current_thread, vid, float(value)))
        # The backing array keeps the *initial* value during the run (it
        # is the fallback readers see before any version propagates);
        # finalize() installs the winning version at the end.
        if len(hist) > self.PRUNE_THRESHOLD:
            self._compact(key, hist)

    def _compact(self, key: tuple[str, int], hist: list[tuple]) -> None:
        """Fold fully-propagated versions into the base value.

        Valid because global virtual time is nondecreasing: every future
        read happens at ``t_r >= now``, so a version older than
        ``now - max_delay`` is already visible to every thread, and only
        the newest such version can ever be returned.
        """
        cutoff = self.current_time - self._max_delay
        idx = -1
        for i, entry in enumerate(hist):
            if entry[0] <= cutoff:
                idx = i
            else:
                break
        if idx >= 0:
            self._base[key] = hist[idx][3]
            del hist[: idx + 1]

    def _vis(self, t_w: float, thread_w: int, t_r: float, thread_r: int) -> bool:
        """Had the write at (t_w, thread_w) propagated to (t_r, thread_r)?"""
        if thread_w == thread_r:
            return t_w <= t_r
        return (t_r - t_w) >= self._delay.delay(thread_w, thread_r)

    def finalize(self, log: ConflictLog) -> None:
        log.stale_reads += self.stale_reads
        # Without barriers there is no commit point; report overlapping
        # writes as write-write conflicts and racy reads as read-write.
        log.read_write += self.racy_reads
        log.write_write += self.overlapping_writes
        recorder = self.recorder
        keys = sorted(self._history) if recorder is not None else self._history
        for key in keys:
            field, eid = key
            hist = self._history[key]
            # Final value: the maximal-time write (ties: later thread id),
            # falling back to the compacted base when the tail is empty.
            if hist:
                winner = max(hist, key=lambda h: (h[0], h[1]))
                self._arrays[field][eid] = winner[3]
                if recorder is not None:
                    # Provenance covers the retained (un-compacted) tail:
                    # versions folded into _base were visible to every
                    # thread and could not have contended with the winner.
                    eff: dict[int, tuple] = {}
                    for h in hist:
                        eff[h[2]] = h
                    lost = []
                    for vid_w in sorted(eff):
                        if vid_w == winner[2]:
                            continue
                        t_w, thread_w, _, val_w = eff[vid_w]
                        if self._vis(t_w, thread_w, winner[0], winner[1]):
                            order = "before"
                        elif self._vis(winner[0], winner[1], t_w, thread_w):
                            order = "after"
                        else:
                            order = "concurrent"
                        lost.append(
                            {"vid": vid_w, "thread": thread_w,
                             "value": float(val_w), "order": order}
                        )
                    recorder.commit_event(
                        iteration=0,
                        field=field,
                        eid=eid,
                        writer=winner[2],
                        writer_thread=winner[1],
                        value=float(winner[3]),
                        lost=lost,
                        rule="lemma2" if len(eff) > 1 else "uncontended",
                    )
            elif key in self._base:
                self._arrays[field][eid] = self._base[key]
            if len({h[2] for h in hist}) > 1:
                log.contended_edges += 1


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
        store = _VersionedStore(
            state, delay_model, config.atomicity, config.torn_probability, torn_rng
        )
        if record is not None:
            store.recorder = record
            if record.wants_reads:
                store._rec_reads = record

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
            store.current_thread = thread
            store.current_time = best_start
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

        store.finalize(log)
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
