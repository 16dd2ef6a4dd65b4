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
engine mediates every edge access through the visibility rule.  This is
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
from .atomicity import AtomicityPolicy, tear
from .config import EngineConfig
from .conflicts import (
    AccessRecord,
    ConflictLog,
    classify_access_counts,
    classify_accesses,
)
from .dispatch import make_plan
from .frontier import sorted_ids
from .loop import run_loop
from .ordering import TaskSlot
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["NondeterministicEngine"]

# Write record layout inside the per-edge history: (time, thread, vid, value).
_T, _TH, _VID, _VAL = 0, 1, 2, 3


class _RacyStore:
    """Edge store implementing the Definitions 1–3 visibility rule.

    One instance lives for one iteration.  ``current`` is set by the
    engine to the executing update's :class:`TaskSlot` before each call
    into the program.

    With ``keep_access_log=True`` every read is recorded as an individual
    tuple so the barrier can materialize :class:`AccessRecord` streams
    (needed for :class:`~repro.engine.conflicts.ConflictEvent` capture);
    by default only per-reader counters are kept, which yields identical
    aggregate conflict totals at a fraction of the allocation cost.
    """

    __slots__ = (
        "_committed",
        "_delay",
        "_max_delay",
        "_torn",
        "_torn_p",
        "_torn_rng",
        "_keep_log",
        "_settled",
        "writes",
        "reads",
        "read_counts",
        "stale_reads",
        "torn_reads",
        "current",
    )

    def __init__(
        self,
        committed: dict[str, np.ndarray],
        delay_model,
        atomicity: AtomicityPolicy,
        torn_probability: float,
        torn_rng: np.random.Generator | None,
        *,
        keep_access_log: bool = True,
    ):
        self._committed = committed
        self._delay = delay_model  # DelayModel: pairwise propagation delays
        self._max_delay = delay_model.max_delay
        self._torn = atomicity is AtomicityPolicy.NONE
        self._torn_p = torn_probability
        self._torn_rng = torn_rng
        self._keep_log = keep_access_log
        # field -> eid -> list of write records.
        self.writes: dict[str, dict[int, list[tuple]]] = {f: {} for f in committed}
        # Detailed read records (keep_access_log): field -> eid -> [(t, thread, vid)].
        self.reads: dict[str, dict[int, list[tuple]]] = {f: {} for f in committed}
        # Compact read summary (default): field -> eid -> vid -> [thread, count].
        self.read_counts: dict[str, dict[int, dict[int, list[int]]]] = {
            f: {} for f in committed
        }
        # Settled-prefix cache: field -> eid -> [n_settled, best_key, best_val].
        # The first n_settled write records of an edge's history are old
        # enough (t_r - t_w >= max_delay) to be visible to *every* future
        # reader — global execution time is nondecreasing — so they are
        # folded into one running Lemma-2 maximum instead of rescanned.
        self._settled: dict[str, dict[int, list]] = {f: {} for f in committed}
        self.stale_reads = 0
        self.torn_reads = 0
        self.current: TaskSlot | None = None

    def read(self, vid: int, eid: int, field: str) -> float:
        slot = self.current
        t_r, thread_r = slot.time, slot.thread
        if self._keep_log:
            self.reads[field].setdefault(eid, []).append((t_r, thread_r, vid))
        else:
            counts = self.read_counts[field].setdefault(eid, {})
            entry = counts.get(vid)
            if entry is None:
                counts[vid] = [thread_r, 1]
            else:
                entry[1] += 1

        wlist = self.writes[field].get(eid)
        value = self._committed[field][eid]
        racing_value = None
        if wlist:
            cache = self._settled[field].get(eid)
            if cache is None:
                cache = self._settled[field][eid] = [0, None, None]
            n_settled, best_key, best_val = cache
            n_writes = len(wlist)
            # Advance the settled prefix: writes arrive in nondecreasing
            # time order, and a write with t_r - t_w >= max_delay is
            # visible under both the same-thread rule (t_w < t_r) and any
            # cross-thread pairwise delay — now and for every later read.
            while n_settled < n_writes and (
                t_r - wlist[n_settled][_T]
            ) >= self._max_delay:
                w = wlist[n_settled]
                key = (w[_T], w[_VID])
                if best_key is None or key > best_key:
                    best_key = key
                    best_val = w[_VAL]
                n_settled += 1
            cache[0], cache[1], cache[2] = n_settled, best_key, best_val
            if best_key is not None:
                value = best_val
            stale = False
            for i in range(n_settled, n_writes):
                t_w, thread_w, vid_w, val_w = wlist[i]
                if thread_w == thread_r:
                    visible = t_w < t_r
                else:
                    visible = (t_r - t_w) >= self._delay.delay(thread_w, thread_r)
                if visible:
                    key = (t_w, vid_w)
                    if best_key is None or key > best_key:
                        best_key = key
                        value = val_w
                elif vid_w != vid:
                    if t_w <= t_r:
                        stale = True
                    if (
                        self._torn
                        and thread_w != thread_r
                        and abs(t_r - t_w) < self._delay.delay(thread_w, thread_r)
                    ):
                        racing_value = val_w
            if stale:
                self.stale_reads += 1
        if racing_value is not None and self._torn_rng.random() < self._torn_p:
            self.torn_reads += 1
            return tear(float(value), float(racing_value), self._torn_rng)
        return float(value)

    def write(self, vid: int, eid: int, field: str, value: float) -> None:
        slot = self.current
        self.writes[field].setdefault(eid, []).append(
            (slot.time, slot.thread, vid, float(value))
        )

    # ------------------------------------------------------------------
    def commit(
        self,
        state: State,
        iteration: int,
        log: ConflictLog,
        recorder=None,
    ) -> None:
        """Barrier: resolve winners (Lemma 2), commit, classify conflicts.

        With a ``recorder``, every written edge additionally yields
        provenance events *before* its commit is applied — visibility is
        recomputed from the access records the store already holds, so
        the recording adds nothing to the per-access hot path.  Fields
        and edges are walked in sorted order so the event stream is a
        canonical function of the schedule (the property that lets the
        vectorized fast path reproduce it bulk-wise, bit for bit).
        """
        fields = sorted(self.writes) if recorder is not None else self.writes
        for field in fields:
            per_edge = self.writes[field]
            arr = state.edge(field)
            read_map = self.reads[field]
            count_map = self.read_counts[field]
            eids = sorted(per_edge) if recorder is not None else per_edge
            for eid in eids:
                wlist = per_edge[eid]
                winner = max(wlist, key=lambda w: (w[_T], w[_VID]))
                final = winner[_VAL]
                if self._torn and len(wlist) > 1:
                    # A pair of writes racing within the propagation window
                    # may commit a torn mix of the two values.
                    racing = [
                        w
                        for w in wlist
                        if w[_VID] != winner[_VID]
                        and w[_TH] != winner[_TH]
                        and abs(w[_T] - winner[_T])
                        < self._delay.delay(w[_TH], winner[_TH])
                    ]
                    if racing and self._torn_rng.random() < self._torn_p:
                        loser = max(racing, key=lambda w: (w[_T], w[_VID]))
                        final = tear(loser[_VAL], final, self._torn_rng)
                if recorder is not None:
                    self._record_provenance(
                        recorder,
                        iteration,
                        field,
                        eid,
                        wlist,
                        read_map.get(eid, ()),
                        float(arr[eid]),
                        winner,
                        float(final),
                    )
                arr[eid] = final
                if self._keep_log:
                    accesses = [
                        AccessRecord(vid=w[_VID], thread=w[_TH], time=w[_T], is_write=True, value=w[_VAL])
                        for w in wlist
                    ]
                    accesses.extend(
                        AccessRecord(vid=r[2], thread=r[1], time=r[0], is_write=False)
                        for r in read_map.get(eid, ())
                    )
                    classify_accesses(log, iteration, eid, field, accesses, winner[_VID])
                else:
                    classify_access_counts(
                        log,
                        iteration,
                        eid,
                        field,
                        [(w[_VID], w[_TH]) for w in wlist],
                        count_map.get(eid, {}),
                        winner[_VID],
                    )
        log.stale_reads += self.stale_reads

    # ------------------------------------------------------------------
    def _visible(self, t_w: float, thread_w: int, t_r: float, thread_r: int) -> bool:
        """Defs. 1–3: is a write at (t_w, thread_w) visible at (t_r, thread_r)?"""
        if thread_w == thread_r:
            return t_w < t_r
        return (t_r - t_w) >= self._delay.delay(thread_w, thread_r)

    def _record_provenance(
        self,
        recorder,
        iteration: int,
        field: str,
        eid: int,
        wlist: list[tuple],
        rlist,
        pre_value: float,
        winner: tuple,
        final: float,
    ) -> None:
        """Emit Lemma-1 read pairs and the Lemma-2 commit for one edge.

        Read pairs are derived by replaying the visibility rule over the
        recorded access log — every read of one update task shares the
        task's effective timestamp, so one (reader, writer) pair
        classifies uniformly and aggregates to a single ``count`` event.
        """
        # Effective (last) write per distinct writer; global time is
        # nondecreasing, so the last record per vid is its maximum.
        eff: dict[int, tuple] = {}
        for w in wlist:
            eff[w[_VID]] = w
        winner_vid, winner_thread = winner[_VID], winner[_TH]
        if recorder.wants_reads and self._keep_log and rlist:
            readers: dict[int, list] = {}
            for t_r, thread_r, vid_r in rlist:
                entry = readers.get(vid_r)
                if entry is None:
                    readers[vid_r] = [t_r, thread_r, 1]
                else:
                    entry[2] += 1
            for vid_r in sorted(readers):
                t_r, thread_r, count = readers[vid_r]
                observed, best_key = pre_value, None
                for w in wlist:
                    if self._visible(w[_T], w[_TH], t_r, thread_r):
                        key = (w[_T], w[_VID])
                        if best_key is None or key > best_key:
                            best_key, observed = key, w[_VAL]
                for vid_w in sorted(eff):
                    if vid_w == vid_r:
                        continue
                    w = eff[vid_w]
                    if self._visible(w[_T], w[_TH], t_r, thread_r):
                        order, rule = "before", "lemma1-fresh"
                    elif w[_T] <= t_r:
                        order, rule = "concurrent", "lemma1-stale"
                    else:
                        order, rule = "after", "lemma1-old"
                    recorder.read_event(
                        iteration=iteration,
                        field=field,
                        eid=eid,
                        reader=vid_r,
                        reader_thread=thread_r,
                        writer=vid_w,
                        writer_thread=w[_TH],
                        count=count,
                        order=order,
                        rule=rule,
                        value=float(observed),
                    )
        lost = []
        for vid_w in sorted(eff):
            if vid_w == winner_vid:
                continue
            w = eff[vid_w]
            if self._visible(w[_T], w[_TH], winner[_T], winner_thread):
                order = "before"
            elif self._visible(winner[_T], winner_thread, w[_T], w[_TH]):
                order = "after"
            else:
                order = "concurrent"
            lost.append(
                {"vid": vid_w, "thread": w[_TH], "value": float(w[_VAL]), "order": order}
            )
        recorder.commit_event(
            iteration=iteration,
            field=field,
            eid=eid,
            writer=winner_vid,
            writer_thread=winner_thread,
            value=final,
            lost=lost,
            rule="lemma2" if len(eff) > 1 else "uncontended",
        )


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
        committed = {f: state.edge(f) for f in state.edge_field_names}
        store = _RacyStore(
            committed,
            delay_model,
            config.atomicity,
            config.torn_probability,
            torn_rng,
            keep_access_log=config.keep_conflict_events
            or (recorder is not None and recorder.wants_reads),
        )
        next_schedule: set[int] = set()
        p = config.threads
        upd = [0] * p
        reads = [0] * p
        writes = [0] * p
        for vid in plan.execution_order():
            slot = plan.slots[vid]
            store.current = slot
            ctx = UpdateContext(
                vid, graph, state, store, next_schedule, gather_rng=gather_rng,
                strict_scope=config.validate_scope,
            )
            program.update(ctx)
            upd[slot.thread] += 1
            reads[slot.thread] += ctx.n_edge_reads
            writes[slot.thread] += ctx.n_edge_writes
        store.commit(state, iteration, log, recorder=recorder)
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
