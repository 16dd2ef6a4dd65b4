"""True multi-core nondeterministic execution: the process backend.

The shared-memory residency of :mod:`~repro.engine.nondet_core`: CSR
topology, the published plan and every vertex/edge array of one
iteration live in a single :class:`~repro.storage.shm.SharedArrayPool`
segment mapped zero-copy into ``P`` OS processes
(:class:`~repro.engine.workerpool.WorkerPool`), so the workers literally
share memory the way the paper's racy threads share the cache-coherent
heap.

**Work division is the paper's own dispatch.**  The master plans with
:func:`~repro.engine.dispatch.plan_arrays` and worker ``w`` *is* model
thread ``w``: it executes the kernel for the vertices the plan assigned
to thread ``w``.  That identification is what makes the parallel run
**bit-for-bit identical** to the single-process fast path (and hence to
the object engine), not merely equivalent:

* Per edge and field the §II scope rule allows at most two writers —
  the endpoints.  The src-side slots (``ws/wvs/rs``) are written only by
  the owner of ``src[e]``, the dst-side slots (``rd``; ``wd/wvd``, which
  exist only if the kernel declares ``writes_dst``) only by the owner
  of ``dst[e]``, and ``vout[v]`` only by the owner of ``v`` — all
  cross-worker writes go to disjoint array slots, so the shared output
  arrays are data-race-free without locks.
* The chaotic fix-point decomposes by ownership: a *seen* value can only
  change on an edge whose reading endpoint is active, so each worker
  running :func:`~repro.engine.nondet_core.repair` on the in- and
  out-edges of its own vertices detects exactly the dirty vertices it
  owns; the union over workers equals the single-process dirty set, and
  the repair rounds (two barriers each: writes-visible, then
  change-flags) count identically.
* Conflict totals are counted per worker on its in-edges (each edge has
  one destination owner) into a shared block the master sums; Lemma-2
  winners commit master-side into plain process-local state.

Telemetry spans, flight-recorder provenance and supervisor hooks
(fault injection, watchdog, checkpoint/resume) all run master-side in
:func:`~repro.engine.loop.run_loop` and therefore behave exactly
as in the single-process engines.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..graph import DiGraph
from ..obs.metrics import PhaseClock
from ..storage.shm import ArrayLayout
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    READ_COUNT,
    EdgePlan,
    NondetPassContext,
    check_eligible,
    commit_on,
    conflict_counts,
    repair,
    resolve_nondet_kernel,
    run_array,
    visibility,
)
from .program import VertexProgram
from .result import RunResult
from .state import State
from .workerpool import WorkerLink, WorkerPool, profile_directive

__all__ = ["ParallelEngine"]

#: Phase slots of the shared ``phase_w`` stat block, in row order.
#: ``plan_build`` is the worker-side Defs. 1–3 predicate construction;
#: ``barrier_wait`` covers the A/B fix-point barriers (C is excluded —
#: it ends the measured window); ``lemma2_commit`` is the worker's
#: conflict-counting tail before C.
_WPHASES = ("plan_build", "gather", "push_scatter", "repair_pass",
            "barrier_wait", "lemma2_commit")


def _build_layout(graph: DiGraph, state: State, kernel,
                  p: int) -> ArrayLayout:
    """One segment holding topology, plan, state, and per-worker slots."""
    n, m = graph.num_vertices, graph.num_edges
    specs: dict[str, tuple[tuple[int, ...], object]] = {
        "src": ((m,), np.int64),
        "dst": ((m,), np.int64),
        "out_degrees": ((n,), np.int64),
        "active": ((n,), np.bool_),
        "thr_v": ((n,), np.int64),
        "pi_v": ((n,), np.int64),
        "time_v": ((n,), np.float64),
    }
    for f in state.vertex_field_names:
        dt = state.vertex(f).dtype
        specs["v0:" + f] = ((n,), dt)
        specs["vout:" + f] = ((n,), dt)
    for f in state.edge_field_names:
        dt = state.edge(f).dtype
        specs["committed:" + f] = ((m,), dt)
        specs["rs:" + f] = ((m,), READ_COUNT)
        specs["rd:" + f] = ((m,), READ_COUNT)
    for f in kernel.written_fields:
        for side in "sd" if kernel.writes_dst else "s":
            specs[f"w{side}:{f}"] = ((m,), np.bool_)
            specs[f"wv{side}:{f}"] = ((m,), state.edge(f).dtype)
    specs["flags"] = ((p,), np.uint8)
    specs["reads_t"] = ((p,), np.int64)
    specs["writes_t"] = ((p,), np.int64)
    specs["conf"] = ((p, 4), np.int64)
    # Per-worker phase seconds (_WPHASES slots) and counter deltas
    # ([kernel passes, repaired vertices, slice passes]), folded by the
    # master at barrier C exactly like ``conf``: each worker writes only
    # its own row before C, the master reads after — no locks, no races.
    specs["phase_w"] = ((p, len(_WPHASES)), np.float64)
    specs["wcount"] = ((p, 3), np.int64)
    return ArrayLayout.build(specs)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Worker:
    """Worker ``w`` = model thread ``w`` of the paper's executor."""

    def __init__(self, link: WorkerLink, graph: DiGraph,
                 program: VertexProgram):
        self.link = link
        self.graph = graph  # CSR/CSC edge-id slices for slice passes
        self.kernel = resolve_nondet_kernel(program)(program)
        self.written = tuple(self.kernel.written_fields)
        shm = link.shm
        # The published vertex plan (``vp`` of the core's predicates).
        self.active = shm.array("active")
        self.thr_v = shm.array("thr_v")
        self.pi_v = shm.array("pi_v")
        self.time_v = shm.array("time_v")
        self.flags = shm.array("flags")
        self.reads_t = shm.array("reads_t")
        self.writes_t = shm.array("writes_t")
        self.conf = shm.array("conf")
        self.wcount = shm.array("wcount")
        self.in_degrees = graph.in_degrees()
        # Seen arrays are worker-local (each endpoint's view of an edge
        # is private to the task that owns the endpoint): repair()
        # materializes private buffers per iteration.
        self.ctx = NondetPassContext(
            graph, None, self.active, self.written,
            src=shm.array("src"), dst=shm.array("dst"),
            out_degrees=shm.array("out_degrees"),
            **{name: shm.arrays(name + ":")
               for name in ("committed", "v0", "vout", *OUTPUTS)})
        self._clock: PhaseClock | None = None

    # -- repair()'s sync hook: the A/B barriers of one fix-point round --
    def writes_visible(self) -> None:
        clock = self._clock
        if clock is not None:
            clock.lap("repair_pass")
        self.link.wait()  # A: every worker's pass-k writes are visible
        if clock is not None:
            clock.lap("barrier_wait")

    def any_changed(self, mine: bool) -> bool:
        clock = self._clock
        self.flags[self.link.wid] = mine
        if clock is not None:
            clock.lap("repair_pass")
        self.link.wait()  # B: all change flags posted
        if clock is not None:
            clock.lap("barrier_wait")
        return bool(self.flags.any())

    def iterate(self, dm, iteration: int, push: bool, alpha: float) -> None:
        link, ctx = self.link, self.ctx
        wid = link.wid
        src, dst = ctx.src, ctx.dst
        clock = self._clock = PhaseClock() if link.profile else None
        owned = self.active & (self.thr_v == wid)
        owned_ids = np.flatnonzero(owned)
        if push:
            # Sparse (push) direction: the same racy iteration over my
            # owned vertices' incident edge-id slices only.  es is the
            # identical edge set flatnonzero(owned[src]) yields; ed is
            # set-equal in CSC order — everything downstream is either
            # positional within (es, ed) or order-independent.
            es = self.graph.out_edge_ids(owned_ids)
            ed = self.graph.in_edge_ids(owned_ids)
        else:
            es = np.flatnonzero(owned[src])
            ed = np.flatnonzero(owned[dst])
        # My in-edges need the plan, for detection and the conflict tail;
        # my out-edges the one mask their src side detects with, if any.
        two_sided = self.kernel.writes_dst
        ep = EdgePlan(self, dm, src[ed], dst[ed]).touch(two_sided)
        seen_s_on = (es, visibility(self, dm, src[es], dst[es], False)
                     ) if two_sided else None
        ctx.seen_s = dict(ctx.committed)
        ctx.seen_d = dict(ctx.committed)
        if clock is not None:
            clock.lap("plan_build")
        if push:
            self.kernel.run_slice_pass(ctx, owned_ids, es, ed)
        else:
            self.kernel.run_pass(ctx, owned)
        if clock is not None:
            clock.lap("push_scatter" if push else "gather")
        passes, sliced, repaired = repair(
            self.kernel, self.graph, ctx, self.written,
            seen_d_on=(ed, ep.vis_s2d), seen_s_on=seen_s_on,
            in_degrees=self.in_degrees, alpha=alpha,
            bound=int(np.count_nonzero(self.active)), sparse=push,
            sync=self)
        # My work and, on my in-edges, the conflict totals: every
        # conflict needs an active destination, which exactly one worker
        # owns, so the master's sum counts every edge once.  Siblings'
        # slots are stable here — nobody writes after the last B.
        reads = sum(int(ctx.rs[f][es].sum()) + int(ctx.rd[f][ed].sum())
                    for f in ctx.committed)
        writes = sum(int(a[es].sum()) for a in ctx.ws.values()) + sum(
            int(a[ed].sum()) for a in ctx.wd.values())
        conf = np.zeros(4, dtype=np.int64)
        for f in self.written:
            conf += conflict_counts(
                ep, ctx.ws[f][ed], ctx.wd[f][ed] if two_sided else None,
                ctx.rs[f][ed], ctx.rd[f][ed])
        self.reads_t[wid] = reads
        self.writes_t[wid] = writes
        self.conf[wid] = conf
        self.wcount[wid] = (1 + passes, repaired, sliced)
        if clock is not None:
            clock.lap("lemma2_commit")
            phases = clock.drain()
            link.publish_phases(_WPHASES, phases)
        link.wait()  # C: counters + writes final
        if clock is not None:
            link.span(iteration, phases, passes=1 + passes,
                      repaired=repaired, owned=int(owned_ids.size))


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class ParallelEngine:
    """Shared-memory process backend for the nondeterministic model.

    ``config.threads`` doubles as the worker count: worker ``w``
    executes exactly the tasks the dispatch assigns to model thread
    ``w``, which is what makes the result bit-identical to
    ``vectorized=True`` (see the module docstring) at *any* ``P``.
    """

    mode = "nondeterministic"

    def __init__(self):
        self._pool: WorkerPool | None = None
        self._graph_ref = None
        self._run_counter = 0

    def close(self) -> None:
        """Tear down the persistent worker pool (workers, segment); the
        same instance can run again on a fresh one."""
        if self._pool is not None:
            self._pool.close()
        self._pool = None
        self._graph_ref = None

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
        direction: str = "pull",
        metrics=None,
    ) -> RunResult:
        config = config or EngineConfig()
        push_ok = check_eligible(program, config, direction,
                                 "the process backend")
        sink = telemetry
        kernel = resolve_nondet_kernel(program)(program)
        written = tuple(kernel.written_fields)
        state = state if state is not None else program.make_state(graph)
        p = config.threads
        timeout = config.worker_timeout_s
        edge_fields = tuple(state.edge_field_names)
        layout = _build_layout(graph, state, kernel, p)
        # Pool reuse: keep the forked workers (and the segment) across
        # run() calls on the same (graph, program, layout, P, timeout) —
        # the per-run cost drops to array copies.  Anything else tears
        # the old pool down first.
        key = WorkerPool.key_of(program, p, timeout, layout)
        preexisting = (
            self._pool is not None and self._pool.alive
            and self._graph_ref() is graph and self._pool.key == key
        )
        if not preexisting:
            self.close()
        self._run_counter += 1
        prof = profile_directive(sink, metrics, self._run_counter)
        extra = {"backend": "process", "workers": p, "pool_reused": False}
        epoch = 0

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal epoch
            pool = self._pool
            if pool is None:
                # Lazy setup: a run that converges immediately never
                # creates a segment or forks a worker.
                pool = self._pool = WorkerPool(
                    layout, p, timeout, key=key, name="repro-nondet-worker",
                    body=_Worker, body_args=lambda w: (graph, program),
                    preload={"src": graph.edge_src, "dst": graph.edge_dst,
                             "out_degrees": graph.out_degrees()})
                try:
                    self._graph_ref = weakref.ref(graph)
                except TypeError:
                    # DiGraph has no __weakref__ slot; pin it for the
                    # pool's lifetime (the segment mirrors its arrays).
                    self._graph_ref = lambda _g=graph: _g
            else:
                extra["pool_reused"] = preexisting
            sh = pool.arrays
            # The master only commits (plan + Lemma-2 tiebreak); the
            # full-graph visibility masks are computed only for the
            # flight recorder — workers evaluate it on their own edges.
            ep = plan.edges().touch(kernel.writes_dst, commit_only=True,
                                    rows=record is not None)
            if clock is not None:
                clock.lap("plan_build")
            # Publish the plan and the pre-iteration state snapshot.  The
            # master's own bookkeeping stays dense in either direction:
            # the shared write-mask arrays are zero-filled per iteration,
            # so they are always valid dense masks; only the workers
            # execute sparsely.
            pool.publish(plan, state)
            for f in edge_fields:
                np.copyto(sh["committed:" + f], state.edge(f))
                sh["rs:" + f].fill(0)
                sh["rd:" + f].fill(0)
            for f in written:
                sh["ws:" + f].fill(False)
                if kernel.writes_dst:
                    sh["wd:" + f].fill(False)
            sh["flags"].fill(0)
            pool.broadcast(iteration, dm, prof, push, config.direction_alpha)
            if clock is not None:
                clock.lap("shm_sync")
            # Pace the workers' fix-point rounds: barrier A (pass-k
            # writes visible), barrier B (change flags posted).
            for _ in range(int(plan.ids.size) + 2):
                pool.sync(iteration)  # A
                pool.sync(iteration)  # B
                if clock is not None:
                    clock.lap("barrier_wait")
                if not sh["flags"].any():
                    break
                bar.passes += 1
            else:  # pragma: no cover - DAG depth bound violated
                pool.abort()
                raise RuntimeError("nondet fix-point failed to converge")
            pool.sync(iteration)  # C: counters final
            if clock is not None:
                clock.lap("barrier_wait")
                epoch += 2 * bar.passes + 1
                # The barrier fold: per-worker phase rows and counter
                # deltas written before C, read after — the same
                # single-writer protocol as ``conf``.  Counter deltas
                # are *summed* across workers (they are per-iteration
                # deltas); per-worker detail survives via labels and
                # the ``worker_phases`` rows.
                phases_w = pool.worker_phases(_WPHASES)
                bar.span = {"barrier_epoch": epoch,
                            "worker_phases": phases_w}
                if sink is not None:
                    sink.counter("worker.kernel_passes").inc(
                        int(sh["wcount"][:, 0].sum()))
                    sink.counter("worker.repaired_vertices").inc(
                        int(sh["wcount"][:, 1].sum()))
                if metrics is not None:
                    for w in range(p):
                        metrics.counter(
                            "repro_worker_kernel_passes_total",
                            worker=str(w)).inc(int(sh["wcount"][w, 0]))
                        metrics.counter(
                            "repro_worker_barrier_wait_seconds_total",
                            worker=str(w)).inc(
                            phases_w[w].get("barrier_wait", 0.0))
            # Reduce what the workers counted on the edges they own.
            bar.conflicts += sh["conf"].sum(axis=0)
            bar.reads_t += sh["reads_t"]
            bar.writes_t += sh["writes_t"]
            bar.slice_passes = int(sh["wcount"][:, 2].sum())
            # Barrier merge: Lemma-2 winners into the master state.
            commit_on(bar, ep, None, written,
                      {name: pool.shm.arrays(name + ":") for name in OUTPUTS},
                      {f: state.edge(f) for f in written})
            bar.vout = pool.shm.arrays("vout:")

        try:
            return run_array(
                program, graph, config, state, body, label="process",
                extra=extra, direction=direction, push_ok=push_ok,
                observer=observer, telemetry=telemetry, record=record,
                supervisor=supervisor, metrics=metrics,
            )
        except BaseException:
            # Exceptional exit: never leave workers (or the segment)
            # behind.  A clean return keeps the pool warm for the next
            # run() on this engine instance; GC finalizes it otherwise.
            self.close()
            raise
