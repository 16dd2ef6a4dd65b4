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
one :class:`~repro.engine.nondet_core.Part` — shard ``w`` (its
in-edges) and windows ``(·, w)`` (its out-edges), ``1/P`` of the edges.
The out-of-core pool runs the same :class:`_Worker` on intervals of the
mapped scratch.  The result depends on the plan, not on which process
runs a vertex, so the run is **bit-for-bit identical** to the
single-process fast path (and hence to the object engine) at any ``P``:

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
* Each worker counts conflicts and per-thread work on the slots of its
  shard that can hold an output (each edge lies in one shard) by the
  plan's ``thr_v``, into rows the master sums;
  the master commits Lemma 2 on the slot-order arrays, with canonical
  ids for the recorder, into plain process-local state.
  So is ``repair_slice_passes`` (see :meth:`_Worker.any_changed`).

Telemetry spans, flight-recorder provenance and supervisor hooks
(fault injection, watchdog, checkpoint/resume) all run master-side in
:func:`~repro.engine.loop.run_loop` and therefore behave exactly
as in the single-process engines.
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace

import numpy as np

from ..graph import DiGraph
from ..graph.digraph import ragged_ids
from ..obs.metrics import NO_CLOCK, PhaseClock
from ..storage.shards import edge_balanced_bounds, psw_layout
from ..storage.shm import ArrayLayout
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    READ_COUNT,
    EdgePlan,
    NondetPassContext,
    Part,
    PlanCache,
    check_eligible,
    commit_on,
    count_on,
    dense_pass,
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


def edge_specs(field_dtypes: dict, kernel, m: int) -> dict:
    """The edge arrays of a :class:`_Worker` pool, in slot order:
    ``committed`` and the read counts of every field; per written field
    the pass outputs and the seen buffers of each detected side (the
    destination-write half only for a kernel that ``writes_dst``);
    ``selfloop`` and the visibility masks."""
    sides = "sd" if kernel.writes_dst else "s"
    specs = {}
    for f, dt in field_dtypes.items():
        specs["committed:" + f] = ((m,), dt)
        specs["rs:" + f] = specs["rd:" + f] = ((m,), READ_COUNT)
    for f in kernel.written_fields:
        for side in sides:
            specs[f"w{side}:{f}"] = ((m,), np.bool_)
            specs[f"wv{side}:{f}"] = ((m,), field_dtypes[f])
            specs[f"seen_{'d' if side == 's' else 's'}:{f}"] = (
                (m,), field_dtypes[f])
    for name in ("selfloop", "vis_s2d", "vis_d2s")[:len(sides) + 1]:
        specs[name] = ((m,), np.bool_)
    return specs


def index_specs(n: int, m: int) -> dict:
    """The slot-order CSR / CSC of slice passes: vertex ``v``'s out-edge
    slots are ``out_slots[out_ptr[v]:out_ptr[v + 1]]``, its in-edge
    slots, ascending, ``in_slots[in_ptr[v]:in_ptr[v + 1]]``."""
    return {"out_ptr": ((n + 1,), np.int64), "in_ptr": ((n + 1,), np.int64),
            "out_slots": ((m,), np.int64), "in_slots": ((m,), np.int64)}


def slot_index(index, chunks, dst, offsets, out_degrees, in_degrees):
    """Write the :func:`index_specs` arrays of a PSW slot order into
    ``index(name)`` a chunk or a shard at a time: ``chunks`` yields slot
    ranges with their canonical ids, which are in CSR order; shards
    (``offsets``) hold ascending destination blocks, so the CSC is shard
    by shard a stable sort of the slot-order destinations ``dst``."""
    for r, eid in chunks:
        index("out_slots")[eid] = np.arange(r.start, r.stop)
    for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        np.add(np.argsort(dst[a:b], kind="stable"), a,
               out=index("in_slots")[a:b])
    for x, d in (("out", out_degrees), ("in", in_degrees)):
        index(x + "_ptr")[0] = 0
        np.cumsum(d, out=index(x + "_ptr")[1:])


def worker_specs(n: int, state, workers: int, threads: int) -> dict:
    """A :class:`_Worker` pool's segment beside its edge arrays: the
    vertex plan and ``v0``/``vout`` (:meth:`WorkerPool.publish` fills
    them), the ``dirty`` set and change ``flags``, and per worker its
    rows of phase seconds (``phase_w``), counter deltas (``wcount``:
    kernel passes, repaired vertices, slice passes), conflict totals and
    per-model-thread work.  Each worker writes only its own rows before
    barrier C, the master reads them after — no locks, no races."""
    specs = {"active": ((n,), np.bool_), "dirty": ((n,), np.bool_),
             "thr_v": ((n,), np.int64), "pi_v": ((n,), np.int64),
             "time_v": ((n,), np.float64), "flags": ((workers,), np.uint8),
             "phase_w": ((workers, len(_WPHASES)), np.float64),
             "wcount": ((workers, 3), np.int64),
             "reads_t": ((workers, threads), np.int64),
             "writes_t": ((workers, threads), np.int64),
             "conf": ((workers, 4), np.int64)}
    for f in state.vertex_field_names:
        specs["v0:" + f] = specs["vout:" + f] = ((n,), state.vertex(f).dtype)
    return specs


def zero_outputs(arrays) -> None:
    """Zero the pass outputs a commit reads unmasked (``ws``/``wd``,
    ``rs``/``rd``) in place."""
    for group in ("ws:", "wd:", "rs:", "rd:"):
        for arr in arrays.arrays(group).values():
            arr.fill(0)


def _build_layout(graph: DiGraph, state: State, kernel,
                  p: int) -> ArrayLayout:
    """One segment holding topology, plan, state, and per-worker slots;
    every ``(m,)`` array in slot order."""
    n, m = graph.num_vertices, graph.num_edges
    specs = worker_specs(n, state, p, p)
    specs.update({
        "src": ((m,), np.int64), "dst": ((m,), np.int64),
        "bounds": ((p + 1,), np.int64),
        "shard_offsets": ((p + 1,), np.int64),
        "window_index": ((p, p + 1), np.int64),
        **index_specs(n, m),
        **edge_specs({f: state.edge(f).dtype for f in state.edge_field_names},
                     kernel, m)})
    return ArrayLayout.build(specs)


def _slot_order(graph: DiGraph, p: int) -> dict[str, np.ndarray]:
    """The segment's topology and slot index, and ``perm`` (slot ->
    canonical id)."""
    n, m = graph.num_vertices, graph.num_edges
    bounds = edge_balanced_bounds(graph.in_degrees(), p)
    perm, offsets, windows = psw_layout(graph.edge_src, graph.edge_dst,
                                        bounds)
    src, dst = graph.edge_src[perm], graph.edge_dst[perm]
    index = {x: np.empty(*spec) for x, spec in index_specs(n, m).items()}
    slot_index(index.get, [(slice(0, m), perm)], dst, offsets,
               graph.out_degrees(), graph.in_degrees())
    return {"perm": perm, "src": src, "dst": dst, "bounds": bounds,
            "shard_offsets": offsets, "window_index": windows,
            "selfloop": src == dst, **index}


class Parts:
    """A kernel's passes over the vertex blocks ``blocks`` of a PSW slot
    order, one :class:`Part` each, on the arrays of ``arrays`` — a pool's
    segment, the mapped out-of-core scratch — under the names of
    :func:`edge_specs` and :func:`index_specs`: pass 1 and :func:`repair`
    over the parts holding an active vertex, slice passes through the
    slot index, the seen buffers and visibility masks in ``seen_*`` and
    ``vis_*``.  ``ctx_arrays`` are the context's vertex arrays."""

    def __init__(self, kernel, arrays, blocks: range, **ctx_arrays):
        a = arrays.array
        self.kernel, self.written = kernel, tuple(kernel.written_fields)
        bounds, off, win = a("bounds"), a("shard_offsets"), a("window_index")
        self.all = [
            Part(slice(int(bounds[j]), int(bounds[j + 1])),
                 slice(int(off[j]), int(off[j + 1])),
                 tuple(slice(int(x), int(y))
                       for x, y in zip(win[:, j], win[:, j + 1])))
            for j in range(bounds.size - 1)]
        self.blocks, self.parts = blocks, self.all[blocks.start:blocks.stop]
        self.vertices = slice(int(bounds[blocks.start]),
                              int(bounds[blocks.stop]))
        # CSR / CSC as slots: the ``graph`` of repair()'s slice passes.
        self.graph = SimpleNamespace(**{
            x + "_edge_ids": partial(ragged_ids, indptr=a(x + "_ptr"),
                                     eid=a(x + "_slots"))
            for x in ("out", "in")})
        self.in_degrees = np.diff(a("in_ptr"))
        self.vis = (a("vis_s2d"), a("vis_d2s") if kernel.writes_dst else None)
        self.buffers = (arrays.arrays("seen_s:"), arrays.arrays("seen_d:"))
        self.ctx = NondetPassContext(
            None, None, None, self.written, src=a("src"), dst=a("dst"),
            n=self.in_degrees.size, out_degrees=np.diff(a("out_ptr")),
            selfloop=a("selfloop"), **ctx_arrays,
            **{name: arrays.arrays(name + ":")
               for name in ("committed", *OUTPUTS)})

    def live(self, active: np.ndarray) -> list[Part]:
        """The parts holding a vertex of ``active``."""
        return [p for p in self.parts if active[p.vertices].any()]

    def output_ranges(self, active: np.ndarray):
        """The nonempty slot ranges of my shards that can hold a pass
        output, each slot once: a live part's shard in full, another
        shard only through the live parts' windows into it (a src-side
        output implies an active source, hence a live part's window; a
        dst-side one an active destination, hence a live shard)."""
        live = [i for i, p in enumerate(self.all) if active[p.vertices].any()]
        for j in self.blocks:
            for r in ([self.all[j].in_range] if j in live
                      else [self.all[i].out_ranges[j] for i in live]):
                if r.stop > r.start:
                    yield r

    def _masks(self, vp, dm, part: Part):
        """``part``'s Defs. 1–3 masks, parked in the ``vis_*`` arrays
        (out of core: interval-sized temporaries only) and returned as
        views of them, aligned as :func:`repair` takes them."""
        src, dst = self.ctx.src, self.ctx.dst
        vis_s2d, vis_d2s = self.vis
        r = part.in_range
        vis_s2d[r] = visibility(vp, dm, src[r], dst[r], writer_is_src=True)
        if vis_d2s is None:
            return vis_s2d[r], None
        for q in part.out_ranges:
            vis_d2s[q] = visibility(vp, dm, src[q], dst[q], writer_is_src=False)
        return vis_s2d[r], tuple(vis_d2s[q] for q in part.out_ranges)

    def iterate(self, vp, dm, alpha: float, clock, *, push: bool = False,
                sync=None):
        """Pass 1 (push: a slice pass over my active vertices) and
        :func:`repair` for the vertex plan ``vp``; returns ``(live parts,
        repair passes, slice passes, vertices recomputed)``."""
        ctx, kernel = self.ctx, self.kernel
        live = self.live(vp.active)
        vis = [self._masks(vp, dm, p) for p in live]
        ctx.active = vp.active
        ctx.seen_s = dict(ctx.committed)
        ctx.seen_d = dict(ctx.committed)
        clock.lap("plan_build")
        if push:
            ids = np.flatnonzero(vp.active[self.vertices]) + self.vertices.start
            kernel.run_slice_pass(ctx, ids, self.graph.out_edge_ids(ids),
                                  self.graph.in_edge_ids(ids))
        else:
            dense_pass(kernel, ctx, live, vp.active, True)
        clock.lap("push_scatter" if push else "gather")
        return (live, *repair(
            kernel, self.graph, ctx, self.written, live, vis,
            in_degrees=self.in_degrees, alpha=alpha,
            bound=int(np.count_nonzero(vp.active)), sparse=push, sync=sync,
            buffers=self.buffers))


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Worker:
    """Worker ``w`` of a pool: the vertices of its :class:`Parts`, over
    their in-edges and out-edges in PSW slot order.

    The edge arrays, topology and slot index come from ``edges()`` —
    the mapped scratch and the store out of core — or, ``edges``
    ``None``, from the pool's segment.  Of the ``K`` vertex blocks of
    ``bounds``, worker ``w`` of ``W`` owns BLOCK ``w``, one part each:
    one block in memory (``K = W``), a run of intervals out of core.
    """

    def __init__(self, link: WorkerLink, program: VertexProgram,
                 edges=None):
        self.link = link
        shm = link.shm
        self.arrays = arr = shm if edges is None else edges()
        w = link.wid
        # The published vertex plan (``vp`` of the core's predicates).
        for name in ("active", "thr_v", "pi_v", "time_v", "flags", "dirty",
                     "wcount"):
            setattr(self, name, shm.array(name))
        self.sliced, self.alpha = 0, 0.0
        # My rows of the blocks the master sums after barrier C.
        self.rows = SimpleNamespace(
            conflicts=shm.array("conf")[w], reads_t=shm.array("reads_t")[w],
            writes_t=shm.array("writes_t")[w])
        k, workers = arr.array("bounds").size - 1, self.flags.size
        self.work = Parts(resolve_nondet_kernel(program)(program), arr,
                          range(w * k // workers, (w + 1) * k // workers),
                          v0=shm.arrays("v0:"), vout=shm.arrays("vout:"))
        self._clock = NO_CLOCK

    # -- repair()'s sync hook: the A/B barriers of one fix-point round --
    def writes_visible(self) -> None:
        self._clock.lap("repair_pass")
        self.link.wait()  # A: every worker's pass-k writes are visible
        self._clock.lap("barrier_wait")

    def any_changed(self, mine: bool, dirty: np.ndarray) -> bool:
        wid, work = self.link.wid, self.work
        block = work.vertices
        self.flags[wid] = mine
        self.dirty[block] = dirty[block]
        self._clock.lap("repair_pass")
        self.link.wait()  # B: all change flags and dirty sets posted
        self._clock.lap("barrier_wait")
        changed = bool(self.flags.any())
        # ``repair_slice_passes`` by ``thr_v``, like every per-thread
        # stat, so the block cut does not change it: does model thread
        # ``t``'s share of the round's dirty set pass the Beamer test
        # repair() applies (this worker's own choice is on its block's)?
        # Worker ``w`` answers for the threads ``t ≡ w`` mod ``W``.
        for t in range(wid, self.rows.reads_t.size, self.flags.size):
            ids = np.flatnonzero(self.dirty & (self.thr_v == t)) if changed else ()
            if len(ids):
                self.sliced += incident_mass(
                    ids, work.ctx.out_degrees, work.in_degrees
                ) * self.alpha < work.ctx.m
        return changed

    def iterate(self, dm, iteration: int, push: bool, alpha: float) -> None:
        link, work = self.link, self.work
        ctx, written = work.ctx, work.written
        clock = self._clock = PhaseClock() if link.profile else NO_CLOCK
        self.sliced, self.alpha = 0, alpha
        _, passes, _, repaired = work.iterate(self, dm, alpha, clock,
                                              push=push, sync=self)
        # Every slot lies in one worker's shards, so the master's sum
        # counts each once; nobody writes after the last B.
        for row in vars(self.rows).values():
            row.fill(0)
        for r in work.output_ranges(self.active):
            count_on(self.rows, EdgePlan(self, dm, ctx.src[r], ctx.dst[r]),
                     written,
                     {name: {f: a[r] for f, a in getattr(ctx, name).items()}
                      for name in OUTPUTS})
        self.wcount[link.wid] = (1 + passes, repaired, self.sliced)
        if clock:
            clock.lap("lemma2_commit")
            phases = clock.drain()
            link.publish_phases(_WPHASES, phases)
        link.wait()  # C: counters + writes final
        if clock:
            link.span(iteration, phases, passes=1 + passes, repaired=repaired,
                      owned=int(np.count_nonzero(self.active[work.vertices])))


def drive(pool: WorkerPool, bar, iteration: int, plan, state, dm, prof,
          clock, sink, metrics, *fields) -> None:
    """The master's side of one iteration on a pool of :class:`_Worker`:
    publish the plan, pace the repair rounds (barrier A: the last pass's
    writes visible; B: change flags posted) and barrier C, and fold what
    the workers counted into ``bar``."""
    pool.publish(plan, state)
    pool.broadcast(iteration, dm, prof, *fields)
    clock.lap("shm_sync")
    sh = pool.arrays
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
    counts = sh["wcount"]
    if clock:
        clock.lap("barrier_wait")
        pool.fold(bar, _WPHASES, sink, metrics, {
            "kernel_passes": counts[:, 0], "repaired_vertices": counts[:, 1]})
    bar.conflicts += sh["conf"].sum(axis=0)
    bar.reads_t += sh["reads_t"].sum(axis=0)
    bar.writes_t += sh["writes_t"].sum(axis=0)
    bar.slice_passes = int(counts[:, 2].sum())


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

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal preload
            pool = self._pool
            if pool is None:
                # Lazy setup: a run that converges immediately never
                # creates a segment or forks a worker.
                pool = self._pool = WorkerPool(
                    layout, p, timeout, key=key, name="repro-nondet-worker",
                    body=_Worker, body_args=lambda w: (program,),
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
            # Publish the pre-iteration state snapshot (in slot order).
            # The shared write masks are zero-filled per iteration, so
            # the master's commit is dense in either direction; only the
            # workers execute sparsely.
            for f in edge_fields:
                sh["committed:" + f][:] = state.edge(f)[perm]
            zero_outputs(pool.shm)
            drive(pool, bar, iteration, plan, state, dm, prof, clock,
                  telemetry, metrics, push, config.direction_alpha)
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
