"""True multi-core nondeterministic execution: the process backend.

The shared-memory residency of :mod:`~repro.engine.nondet_core`: CSR
topology, the published plan and every vertex/edge array of one
iteration live in a single :class:`~repro.storage.shm.SharedArrayPool`
segment mapped zero-copy into ``P`` OS processes
(:class:`~repro.engine.workerpool.WorkerPool`), so the workers literally
share memory the way the paper's racy threads share the cache-coherent
heap.

**The segment is in PSW slot order** over ``P`` vertex blocks of about
``m / P`` in-edges each (:func:`~repro.storage.shards.psw_layout`,
computed once per pool by the master): worker ``w`` owns block ``w``,
gathers over shard ``w`` (its in-edges) and scatters over windows
``(·, w)`` (its out-edges) — contiguous slices, ``1/P`` of the edges.
The result depends on the plan, not on which process runs a vertex
(the out-of-core interval pool relies on the same fact), so the run is
**bit-for-bit identical** to the single-process fast path (and hence to
the object engine) at any ``P``:

* Per edge and field the §II scope rule allows at most two writers —
  the endpoints.  An edge's src-side slots (``ws/wvs/rs``) lie in a
  window of its source's block, its dst-side slots (``rd``; ``wd/wvd``,
  which exist only if the kernel declares ``writes_dst``) in its
  destination's shard, and ``vout[v]`` belongs to ``v``'s block — all
  cross-worker writes go to disjoint slots, so no locks are needed.
  A shard keeps each destination's in-edges in canonical order, so
  float sums add them in the scalar gather loop's order.
* The chaotic fix-point decomposes by ownership: a *seen* value can only
  change on an edge whose reading endpoint is active, so a worker
  running :func:`~repro.engine.nondet_core.repair` on its shard (and,
  two-sided, its windows) detects exactly its block's dirty vertices;
  their union is the single-process dirty set, and the rounds (two
  barriers each: writes-visible, then change-flags) count identically.
* Each worker counts conflicts and per-thread work on its shard (each
  edge lies in one) by the plan's ``thr_v``, into rows the master sums;
  the master commits Lemma 2 on the slot-order arrays, with canonical
  ids for the recorder, into plain process-local state.
  So is ``repair_slice_passes`` (see :meth:`_Worker.any_changed`).

Telemetry spans, flight-recorder provenance and supervisor hooks
(fault injection, watchdog, checkpoint/resume) all run master-side in
:func:`~repro.engine.loop.run_loop` and therefore behave exactly
as in the single-process engines.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..graph import DiGraph
from ..obs.metrics import NO_CLOCK, PhaseClock
from ..storage.shards import edge_balanced_bounds, psw_layout
from ..storage.shm import ArrayLayout
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    READ_COUNT,
    EdgePlan,
    NondetPassContext,
    PlanCache,
    check_eligible,
    commit_on,
    count_on,
    incident_mass,
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
    """One segment holding topology, plan, state, and per-worker slots;
    every ``(m,)`` array in slot order."""
    n, m = graph.num_vertices, graph.num_edges
    # Counter deltas: [kernel passes, repaired vertices, slice passes].
    specs = WorkerPool.shared_specs(n, state, p, _WPHASES, 3)
    specs.update({
        # ``slot``: canonical edge id -> slot, for slice passes
        **{name: ((m,), np.int64) for name in ("src", "dst", "slot")},
        "bounds": ((p + 1,), np.int64),
        "shard_offsets": ((p + 1,), np.int64),
        "window_index": ((p, p + 1), np.int64),
        "out_degrees": ((n,), np.int64),
    })
    for f in state.edge_field_names:
        dt = state.edge(f).dtype
        specs["committed:" + f] = ((m,), dt)
        specs["rs:" + f] = ((m,), READ_COUNT)
        specs["rd:" + f] = ((m,), READ_COUNT)
    for f in kernel.written_fields:
        for side in "sd" if kernel.writes_dst else "s":
            specs[f"w{side}:{f}"] = ((m,), np.bool_)
            specs[f"wv{side}:{f}"] = ((m,), state.edge(f).dtype)
    # Row w: worker w's counts, column t: model thread t's work; like
    # ``phase_w`` and ``wcount``, each worker writes only its own row
    # before C, the master reads after — no locks, no races.
    specs["reads_t"] = ((p, p), np.int64)
    specs["writes_t"] = ((p, p), np.int64)
    specs["conf"] = ((p, 4), np.int64)
    return ArrayLayout.build(specs)


def _slot_order(graph: DiGraph, p: int) -> dict[str, np.ndarray]:
    """The segment's topology, and ``perm`` (slot -> canonical id)."""
    bounds = edge_balanced_bounds(graph.in_degrees(), p)
    perm, offsets, windows = psw_layout(graph.edge_src, graph.edge_dst,
                                        bounds)
    slot = np.empty_like(perm)
    slot[perm] = np.arange(perm.size)
    return {"perm": perm, "src": graph.edge_src[perm],
            "dst": graph.edge_dst[perm], "slot": slot, "bounds": bounds,
            "shard_offsets": offsets, "window_index": windows,
            "out_degrees": graph.out_degrees()}


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Worker:
    """Worker ``w``: the vertices of block ``w``, over shard ``w`` (its
    in-edges) and windows ``(·, w)`` (its out-edges)."""

    def __init__(self, link: WorkerLink, graph: DiGraph,
                 program: VertexProgram):
        self.link = link
        self.kernel = resolve_nondet_kernel(program)(program)
        self.written = tuple(self.kernel.written_fields)
        shm = link.shm
        w = link.wid
        # The published vertex plan (``vp`` of the core's predicates).
        self.active = shm.array("active")
        self.thr_v = shm.array("thr_v")
        self.pi_v = shm.array("pi_v")
        self.time_v = shm.array("time_v")
        self.flags = shm.array("flags")
        self.dirty = shm.array("dirty")
        self.sliced, self.alpha = 0, 0.0
        # My rows of the blocks the master sums after barrier C.
        self.rows = SimpleNamespace(
            conflicts=shm.array("conf")[w], reads_t=shm.array("reads_t")[w],
            writes_t=shm.array("writes_t")[w])
        self.wcount = shm.array("wcount")
        bounds, offsets = shm.array("bounds"), shm.array("shard_offsets")
        win = shm.array("window_index")
        self.block = slice(int(bounds[w]), int(bounds[w + 1]))
        self.shard = slice(int(offsets[w]), int(offsets[w + 1]))
        windows = tuple(slice(int(a), int(b))
                        for a, b in zip(win[:, w], win[:, w + 1]))
        self.out_slots = np.r_[windows] if self.kernel.writes_dst else None
        # The CSR/CSC edge-id slices of slice passes, as slots.
        slot = shm.array("slot")
        self.graph = SimpleNamespace(
            out_edge_ids=lambda ids: slot[graph.out_edge_ids(ids)],
            in_edge_ids=lambda ids: slot[graph.in_edge_ids(ids)])
        self.in_degrees = graph.in_degrees()
        # Seen arrays are worker-local: repair() materializes them.
        self.ctx = NondetPassContext(
            graph, None, self.active, self.written,
            src=shm.array("src"), dst=shm.array("dst"),
            out_degrees=shm.array("out_degrees"),
            in_range=self.shard, out_ranges=windows,
            **{name: shm.arrays(name + ":")
               for name in ("committed", "v0", "vout", *OUTPUTS)})
        self._clock = NO_CLOCK

    # -- repair()'s sync hook: the A/B barriers of one fix-point round --
    def writes_visible(self) -> None:
        self._clock.lap("repair_pass")
        self.link.wait()  # A: every worker's pass-k writes are visible
        self._clock.lap("barrier_wait")

    def any_changed(self, mine: bool, dirty: np.ndarray) -> bool:
        wid = self.link.wid
        self.flags[wid] = mine
        self.dirty[self.block] = dirty[self.block]
        self._clock.lap("repair_pass")
        self.link.wait()  # B: all change flags and dirty sets posted
        self._clock.lap("barrier_wait")
        changed = bool(self.flags.any())
        # ``repair_slice_passes`` by ``thr_v``, like every per-thread
        # stat, so the block cut does not change it: does model thread
        # ``wid``'s share of the round's dirty set pass the Beamer test
        # repair() applies (this worker's own choice is on its block's).
        ids = np.flatnonzero(self.dirty & (self.thr_v == wid)) if changed else ()
        if len(ids):
            self.sliced += incident_mass(
                ids, self.ctx.out_degrees, self.in_degrees
            ) * self.alpha < self.ctx.m
        return changed

    def iterate(self, dm, iteration: int, push: bool, alpha: float) -> None:
        link, ctx, shard = self.link, self.ctx, self.shard
        src, dst = ctx.src, ctx.dst
        clock = self._clock = PhaseClock() if link.profile else NO_CLOCK
        self.sliced, self.alpha = 0, alpha
        owned = np.zeros(ctx.n, dtype=bool)
        owned[self.block] = self.active[self.block]
        owned_ids = np.flatnonzero(owned)
        # My shard's plan, for detection and counting; my windows' one
        # mask their src side detects with, if any.
        two_sided = self.kernel.writes_dst
        ep = EdgePlan(self, dm, src[shard], dst[shard]).touch(two_sided)
        es = self.out_slots
        seen_s_on = (es, visibility(self, dm, src[es], dst[es], False)
                     ) if two_sided else None
        ctx.seen_s = dict(ctx.committed)
        ctx.seen_d = dict(ctx.committed)
        clock.lap("plan_build")
        if push:
            self.kernel.run_slice_pass(
                ctx, owned_ids, self.graph.out_edge_ids(owned_ids),
                self.graph.in_edge_ids(owned_ids))
        else:
            self.kernel.run_pass(ctx, owned)
        clock.lap("push_scatter" if push else "gather")
        passes, _, repaired = repair(
            self.kernel, self.graph, ctx, self.written,
            seen_d_on=(shard, ep.vis_s2d), seen_s_on=seen_s_on,
            in_degrees=self.in_degrees, alpha=alpha,
            bound=int(np.count_nonzero(self.active)), sparse=push,
            sync=self)
        # Every edge lies in one shard, so the master's sum counts each
        # once; nobody writes after the last B.
        for row in vars(self.rows).values():
            row.fill(0)
        count_on(self.rows, ep, self.written,
                 {name: {f: a[shard] for f, a in getattr(ctx, name).items()}
                  for name in OUTPUTS})
        self.wcount[link.wid] = (1 + passes, repaired, self.sliced)
        if clock:
            clock.lap("lemma2_commit")
            phases = clock.drain()
            link.publish_phases(_WPHASES, phases)
        link.wait()  # C: counters + writes final
        if clock:
            link.span(iteration, phases, passes=1 + passes,
                      repaired=repaired, owned=int(owned_ids.size))


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
class ParallelEngine:
    """Shared-memory process backend for the nondeterministic model.

    ``config.threads`` doubles as the worker count; the result is
    bit-identical to ``vectorized=True`` (see the module docstring) at
    *any* ``P``.
    """

    mode = "nondeterministic"

    def __init__(self):
        self._pool: WorkerPool | None = None
        self._graph = None  # pinned for the pool's lifetime
        self._perm: np.ndarray | None = None
        self._run_counter = 0

    def close(self) -> None:
        """Tear down the persistent worker pool (workers, segment); the
        same instance can run again on a fresh one."""
        if self._pool is not None:
            self._pool.close()
        self._pool = self._graph = self._perm = None

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
            and self._graph is graph and self._pool.key == key
        )
        preload = None
        if not preexisting:
            self.close()
            preload = _slot_order(graph, p)
            self._perm = preload.pop("perm")
        perm = self._perm
        # The master's plan, over the segment's slot order.
        topo = preload if preload is not None else self._pool.arrays
        plan = PlanCache(
            SimpleNamespace(edge_src=topo["src"], edge_dst=topo["dst"],
                            num_vertices=graph.num_vertices),
            p, policy=config.dispatch, jitter=config.jitter,
            rng=config.rng("jitter") if config.jitter > 0 else None)
        self._run_counter += 1
        prof = profile_directive(telemetry, metrics, self._run_counter)
        extra = {"backend": "process", "workers": p, "pool_reused": False}
        epoch = 0

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal epoch, preload
            pool = self._pool
            if pool is None:
                # Lazy setup: a run that converges immediately never
                # creates a segment or forks a worker.
                pool = self._pool = WorkerPool(
                    layout, p, timeout, key=key, name="repro-nondet-worker",
                    body=_Worker, body_args=lambda w: (graph, program),
                    preload=preload)
                self._graph, preload = graph, None  # the segment holds it
            else:
                extra["pool_reused"] = preexisting
            sh = pool.arrays
            # The master only commits (plan + Lemma-2 tiebreak); the
            # full-graph visibility masks are computed only for the
            # flight recorder — workers evaluate it on their own edges.
            ep = plan.edges().touch(kernel.writes_dst, commit_only=True,
                                    rows=record is not None)
            clock.lap("plan_build")
            # Publish the plan and the pre-iteration state snapshot (in
            # slot order).  The shared write masks are zero-filled per
            # iteration, so the master's commit is dense in either
            # direction; only the workers execute sparsely.
            pool.publish(plan, state)
            for f in edge_fields:
                sh["committed:" + f][:] = state.edge(f)[perm]
                sh["rs:" + f].fill(0)
                sh["rd:" + f].fill(0)
            for f in written:
                sh["ws:" + f].fill(False)
                if kernel.writes_dst:
                    sh["wd:" + f].fill(False)
            sh["flags"].fill(0)
            pool.broadcast(iteration, dm, prof, push, config.direction_alpha)
            clock.lap("shm_sync")
            # Pace the workers' fix-point rounds: barrier A (pass-k
            # writes visible), barrier B (change flags posted).
            for _ in range(int(plan.ids.size) + 2):
                pool.sync(iteration)  # A
                pool.sync(iteration)  # B
                clock.lap("barrier_wait")
                if not sh["flags"].any():
                    break
                bar.passes += 1
            else:  # pragma: no cover - DAG depth bound violated
                pool.abort()
                raise RuntimeError("nondet fix-point failed to converge")
            pool.sync(iteration)  # C: counters final
            if clock:
                clock.lap("barrier_wait")
                epoch += 2 * bar.passes + 1
                pool.fold(bar, epoch, _WPHASES, telemetry, metrics, {
                    "kernel_passes": sh["wcount"][:, 0],
                    "repaired_vertices": sh["wcount"][:, 1]})
            # Reduce what the workers counted on their shards.
            bar.conflicts += sh["conf"].sum(axis=0)
            bar.reads_t += sh["reads_t"].sum(axis=0)
            bar.writes_t += sh["writes_t"].sum(axis=0)
            bar.slice_passes = int(sh["wcount"][:, 2].sum())
            # Lemma-2 winners into the slot-order snapshot, then the state.
            new = {f: sh["committed:" + f] for f in written}
            commit_on(bar, ep, perm, written,
                      {name: pool.shm.arrays(name + ":") for name in OUTPUTS},
                      new)
            for f in written:
                state.edge(f)[perm] = new[f]
            bar.vout = pool.shm.arrays("vout:")

        try:
            return run_array(
                program, graph, config, state, body, label="process",
                extra=extra, direction=direction, push_ok=push_ok,
                observer=observer, telemetry=telemetry, record=record,
                supervisor=supervisor, metrics=metrics, plan=plan,
            )
        except BaseException:
            # Exceptional exit: never leave workers (or the segment)
            # behind.  A clean return keeps the pool warm for the next
            # run() on this engine instance; GC finalizes it otherwise.
            self.close()
            raise
