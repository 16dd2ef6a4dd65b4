"""The slot-order runner: the racy iteration over edge arrays in PSW
slot order, in this process or on ``P`` OS processes.

:class:`SlotRunner` is one master body for both residencies of
:mod:`~repro.engine.nondet_core` whose edge arrays are laid out in PSW
slot order over vertex blocks (:func:`~repro.storage.shards.psw_layout`):
a persistent :class:`~repro.engine.workerpool.WorkerPool` of
:class:`_Worker` paced by :func:`drive`, or :meth:`Parts.iterate` in
this process, then one Lemma-2 commit over :meth:`Parts.output_ranges`.
A *residency* says only where the arrays live, how slots map to
canonical edge ids and how the canonical state is kept in step:

* **RAM** (:class:`ParallelEngine`, ``backend="process"``): one
  :class:`~repro.storage.shm.SharedArrayPool` segment built from a
  ``DiGraph`` over ``config.threads`` edge-balanced blocks, one per
  worker; the slot map ``perm``; the caller's plain ``State``, copied
  into the slots whenever someone else may have written it and given
  the Lemma-2 winners over the output ranges after barrier C;
* **store** (:class:`~repro.engine.nondet_outofcore.OutOfCoreNondetRunner`):
  a :class:`~repro.storage.shards.ShardStore`'s mapped scratch, one
  interval per block; the map ``psw_eid``; a lazy state facade.

The result depends on the plan, not on which process runs a vertex, so
a run is **bit-for-bit identical** to the single-process fast path (and
hence to the object engine) at any ``P``, in either direction:

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
  shards that can hold an output (each edge lies in one shard) by the
  plan's ``thr_v``, into rows the master sums, and so is
  ``repair_slice_passes`` (see :meth:`_Worker.any_changed`); the master
  commits Lemma 2 on the slot-order arrays, with canonical ids for the
  recorder.

Telemetry spans, flight-recorder provenance and supervisor hooks
(fault injection, watchdog, checkpoint/resume) all run master-side in
:func:`~repro.engine.loop.run_loop` and therefore behave exactly
as in the single-process engines.
"""

from __future__ import annotations

import time
from functools import partial
from types import SimpleNamespace

import numpy as np

from ..graph import DiGraph
from ..graph.digraph import ragged_ids
from ..obs.metrics import NO_CLOCK, PhaseClock
from ..storage.shards import IOStats, edge_balanced_bounds, psw_layout
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    READ_COUNT,
    EdgePlan,
    NondetPassContext,
    Part,
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

__all__ = ["ParallelEngine", "SlotRunner"]

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

    The edge arrays, topology and slot index come from ``edges()``, the
    residency attached in this process (:class:`SlotRunner`): the shm
    segment in memory, the mapped scratch and the store out of core.
    Of the ``K`` vertex blocks of ``bounds``, worker ``w`` of ``W`` owns
    BLOCK ``w``, one part each: one block in memory (``K = W``), a run
    of intervals out of core.
    """

    def __init__(self, link: WorkerLink, program: VertexProgram, edges):
        self.link = link
        shm = link.shm
        self.arrays = arr = edges()
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
# master side: the one slot-order runner
# ----------------------------------------------------------------------
class SlotRunner:
    """The racy iteration over edge arrays in PSW slot order, in this
    process (:meth:`Parts.iterate`) or on a persistent pool of
    :class:`_Worker` paced by :func:`drive`, then one commit over
    :meth:`Parts.output_ranges`.

    A subclass is a *residency*: ``_res`` holds the slot-order arrays
    under the names of :func:`edge_specs` and :func:`index_specs` plus
    the topology (``src``, ``dst``, ``bounds``, ``shard_offsets``,
    ``window_index``), and ``type(_res).attach(_res.name, _res.layout)``
    maps them in a worker; ``_eid`` maps slots to canonical edge ids;
    ``_load(state)`` copies a state's canonical edges into the slots
    (whenever someone else may have written them) and ``_keep(state,
    ranges, written)`` keeps the state in step after a commit of
    ``ranges``.  ``WORKER`` names the pool's processes, ``IO_PHASE`` the
    phase that zeroing the outputs is charged to.
    """

    mode = "nondeterministic"

    def __init__(self):
        self._pool: WorkerPool | None = None
        self._res = None
        self._eid = None
        self.io = IOStats()
        # Monotone per-run id shipped to pool workers with the profiling
        # tuple: a warm pool resets its barrier epoch and reopens its
        # trace segment when the id changes.
        self._run_counter = 0

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Tear down the worker pool and release the residency; the same
        instance can run again on fresh ones."""
        self._teardown_pool()
        if self._res is not None:
            self._res.close()
        self._res = self._eid = None

    def _abort(self) -> None:
        """An exceptional exit leaves no pool behind."""
        self._teardown_pool()

    def _ensure_pool(self, program, state, config, workers: int) -> bool:
        """Make ``_pool`` a pool of ``workers`` fitting this run: the
        warm one (returns True) if its key — program parameters, worker
        count, timeout, segment layout — is this run's, else a fresh
        one.  The segment holds only the ``O(n)`` master state (plan,
        ``v0``/``vout``) and the workers' rows; each worker attaches the
        residency itself.  Seed, jitter and delay model travel per
        iteration."""
        layout = ArrayLayout.build(worker_specs(
            state.graph.num_vertices, state, workers, config.threads))
        key = WorkerPool.key_of(program, workers, config.worker_timeout_s,
                                layout)
        if (self._pool is not None and self._pool.alive
                and self._pool.key == key):
            return True
        self._teardown_pool()
        edges = partial(type(self._res).attach, self._res.name,
                        self._res.layout)
        self._pool = WorkerPool(
            layout, workers, config.worker_timeout_s, key=key,
            name=self.WORKER, body=_Worker,
            body_args=lambda w: (program, edges))
        return False

    def _commit(self, bar, plan, dm, written, work: Parts, ranges,
                count: bool) -> None:
        """The commit barrier, master side, over ``ranges`` (the slots
        that can hold an output, the ranges a pool's workers count):
        Lemma 2 into the ``committed`` slots in place, with canonical
        ids for the recorder; ``count`` (no pool) folds conflicts and
        per-thread work too."""
        ctx = work.ctx
        for r in ranges:
            ep = EdgePlan(plan, dm, ctx.src[r], ctx.dst[r])
            out = {name: {f: a[r] for f, a in getattr(ctx, name).items()}
                   for name in OUTPUTS}
            commit_on(bar, ep, self._eid[r], written, out,
                      {f: ctx.committed[f][r] for f in written})
            if count:
                count_on(bar, ep, written, out)

    def _zero_outputs(self) -> None:
        # In place, never by truncating: a worker touching a mapped page
        # between two ``ftruncate`` calls would take SIGBUS.
        t0 = time.perf_counter()
        zero_outputs(self._res)
        self.io.seconds += time.perf_counter() - t0

    def _run(self, program, graph, kernel, config, state, *, workers: int,
             direction: str, push_ok: bool, label: str, extra: dict,
             telemetry=None, metrics=None, **sinks) -> RunResult:
        """``run_array`` of one body for every residency: ``workers``
        pool processes, or none (this process runs every part)."""
        written = tuple(kernel.written_fields)
        vfields = tuple(state.vertex_field_names)
        io = self.io = IOStats()
        self._zero_outputs()  # what an aborted run left behind
        k = self._res.array("bounds").size - 1
        work = Parts(kernel, self._res, range(k), v0={}, vout={})
        size = {f: a.itemsize for f, a in work.ctx.committed.items()}
        row = (16 + sum(size.values()), sum(size[f] for f in written))
        alpha = config.direction_alpha
        self._run_counter += 1
        prof = profile_directive(telemetry, metrics, self._run_counter)
        if workers:
            extra.update(backend="process", workers=workers,
                         pool_reused=False)
        pool = None

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal pool
            if workers and pool is None:
                # Lazy: a run that converges at once forks no worker.
                extra["pool_reused"] = self._ensure_pool(
                    program, state, config, workers)
                pool = self._pool
            if pool is not None:
                clock.lap("plan_build")
                drive(pool, bar, iteration, plan, state, dm, prof, clock,
                      telemetry, metrics, push, alpha)
                bar.vout = {f: pool.arrays["vout:" + f] for f in vfields}
                live = work.live(plan.active)
            else:
                work.ctx.v0 = {f: state.vertex(f) for f in vfields}
                bar.vout = work.ctx.vout = {
                    f: a.copy() for f, a in work.ctx.v0.items()}
                live, passes, bar.slice_passes, _ = work.iterate(
                    plan, dm, alpha, clock, push=push)
                bar.passes += passes
                clock.lap("repair_pass")
            ranges = list(work.output_ranges(plan.active))
            self._commit(bar, plan, dm, written, work, ranges, pool is None)
            self._keep(state, ranges, written)
            # ``IOStats``: each round loads every live part's ranges; the
            # commit reads the output ranges, and a pool's workers read
            # them again to count.
            io.interval_loads += bar.passes * len(live)
            slots = bar.passes * sum(r.stop - r.start for p in live
                                     for r in (p.in_range, *p.out_ranges))
            out = sum(r.stop - r.start for r in ranges)
            io.bytes_read += (slots + out * (1 if pool is None else 2)) * row[0]
            io.bytes_written += (slots + out) * row[1]
            clock.lap("lemma2_commit")
            self._zero_outputs()
            clock.lap(self.IO_PHASE)

        try:
            return run_array(
                program, graph, config, state, body, label=label,
                extra=extra, direction=direction, push_ok=push_ok,
                telemetry=telemetry, metrics=metrics,
                state_written=partial(self._load, state), **sinks)
        except BaseException:
            self._abort()
            raise


class ParallelEngine(SlotRunner):
    """Shared-memory process backend for the nondeterministic model: the
    RAM residency of :class:`SlotRunner`, one shm segment in PSW slot
    order over ``config.threads`` edge-balanced vertex blocks, one per
    worker.

    The result is bit-identical to ``vectorized=True`` (see the module
    docstring) at *any* ``P``.  The caller's state stays plain
    process-local memory, written only by the master's commit after
    barrier C.
    """

    WORKER, IO_PHASE = "repro-nondet-worker", "shm_sync"

    def __init__(self):
        super().__init__()
        self._graph = None  # pinned for the segment's lifetime

    def close(self) -> None:
        super().close()
        self._graph = None

    def _abort(self) -> None:
        # No segment outlives an exceptional exit either.
        self.close()

    def _ensure_segment(self, graph: DiGraph, state: State, kernel,
                        p: int) -> None:
        """The segment of ``graph`` over ``p`` blocks, kept while the
        graph and the layout stay; written in place, no ``m``-sized
        temporary but the slot map ``perm`` (slot -> canonical id)."""
        n, m = graph.num_vertices, graph.num_edges
        layout = ArrayLayout.build({
            "src": ((m,), np.int64), "dst": ((m,), np.int64),
            "bounds": ((p + 1,), np.int64),
            "shard_offsets": ((p + 1,), np.int64),
            "window_index": ((p, p + 1), np.int64),
            **index_specs(n, m),
            **edge_specs({f: state.edge(f).dtype
                          for f in state.edge_field_names}, kernel, m)})
        if self._graph is graph and self._res.layout == layout:
            return
        self.close()
        bounds = edge_balanced_bounds(graph.in_degrees(), p)
        perm, offsets, windows = psw_layout(graph.edge_src, graph.edge_dst,
                                            bounds)
        self._res, self._eid, self._graph = (
            SharedArrayPool.create(layout), perm, graph)
        a = self._res.array
        np.take(graph.edge_src, perm, out=a("src"))
        np.take(graph.edge_dst, perm, out=a("dst"))
        np.equal(a("src"), a("dst"), out=a("selfloop"))
        a("bounds")[:], a("shard_offsets")[:] = bounds, offsets
        a("window_index")[:] = windows
        slot_index(a, [(slice(0, m), perm)], a("dst"), offsets,
                   graph.out_degrees(), graph.in_degrees())

    def _load(self, state: State) -> None:
        for f in state.edge_field_names:
            np.take(state.edge(f), self._eid,
                    out=self._res.array("committed:" + f))

    def _keep(self, state: State, ranges, written) -> None:
        """The Lemma-2 winners back into the canonical arrays."""
        for f in written:
            canonical, slots = state.edge(f), self._res.array("committed:" + f)
            for r in ranges:
                canonical[self._eid[r]] = slots[r]

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
        state = state if state is not None else program.make_state(graph)
        self._ensure_segment(graph, state, kernel, config.threads)
        # A clean return keeps the pool and the segment warm for the
        # next run() on this instance; GC finalizes them otherwise.
        return self._run(
            program, graph, kernel, config, state, workers=config.threads,
            direction=direction, push_ok=push_ok, label="process", extra={},
            observer=observer, telemetry=telemetry, record=record,
            supervisor=supervisor, metrics=metrics)
