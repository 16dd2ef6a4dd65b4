"""Out-of-core nondeterministic execution over PSW shard stores.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` holds
every edge-indexed array (``committed``, ``seen``, ``ws/wd/wvs/wvd``,
``rs/rd``) fully in memory — ~10 arrays of ``m`` entries, which is what
actually caps the graph scale, not the topology.  This module is the
file residency of :mod:`~repro.engine.nondet_core`: the *same* racy
iteration interval-by-interval over a
:class:`~repro.storage.shards.ShardStore`.  Edge-indexed data lives in
one scratch file addressed by shard-major slot, laid out by
:class:`~repro.storage.shm.ArrayLayout` under the shm segment's array
names and mapped ``MAP_SHARED`` by the master and every pool worker.
A kernel pass runs on full-length views of those arrays and of the
store's ``psw_src`` / ``psw_dst``; per interval ``k`` it is told its
``in_range`` (shard ``k``) and ``out_ranges`` (windows ``(·, k)``), as
a shm worker is told its own, and touches nothing else.  Nothing is
gathered and nothing is written back.  What bounds RAM: the anonymous
memory of a sweep stays interval-sized plus the ``O(n)`` vertex arrays,
and the scratch pages are file-backed page cache the kernel can reclaim.

**Why the interval decomposition is exact** is argued in DESIGN §6.1:
the §II scope rule and the source-sorted sliding windows make every
slot range single-writer on each side across intervals (and workers),
and the core's predicates and barrier functions are elementwise in the
edge over a vertex-indexed in-memory plan, so calling them on a slot
range is the same arithmetic as on the full edge list.
``tests/test_outofcore.py`` asserts bit-identity (state, trajectory,
per-thread stats, conflict totals, fix-point pass counts, recorder
provenance) against both in-memory engines per (kernel, seed).

**Fix-point barrier discipline.**  Within one iteration the runner
alternates *compute* sweeps (pass 1, repairs) and *detect* sweeps.  The
detect sweep materializes each side's seen value into the ``seen_s`` /
``seen_d`` arrays for every covered slot; the following repair sweep
reads seen values from those arrays rather than recomputing them from
the live writes — recomputing would let interval ``i``'s round-``r+1``
writes leak into interval ``j > i``'s gather within the same sweep,
breaking the round-synchronous semantics the in-memory engine has by
construction.

**Process backend.**  ``backend="process"`` dispatches intervals to a
persistent :class:`~repro.engine.workerpool.WorkerPool`: worker ``w``
owns a contiguous BLOCK of intervals, so every scratch range keeps a
single writer across workers too.  The ``O(n)`` master state (plan,
``v0``/``vout``, active and dirty masks) is shared through the pool's
segment, edge data through the mapped scratch file.  The pool survives
across ``run()`` calls on the same (store, program) —
``extra["pool_reused"]`` reports reuse — and is torn down by
:meth:`OutOfCoreNondetRunner.close`, on worker failure, or when the
store is dropped.
"""

from __future__ import annotations

import os
import time
import weakref
from types import SimpleNamespace

import numpy as np

from ..obs.metrics import NO_CLOCK, PhaseClock
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    READ_COUNT,
    EdgePlan,
    NondetPassContext,
    check_eligible,
    commit_on,
    count_on,
    resolve_nondet_kernel,
    run_array,
    visibility,
)
from .program import VertexProgram
from .result import RunResult
from .state import State
from .workerpool import WorkerLink, WorkerPool, profile_directive

__all__ = ["OutOfCoreNondetRunner"]


# ----------------------------------------------------------------------
# the mapped scratch
# ----------------------------------------------------------------------
class _Scratch:
    """The mapped scratch arrays of one (store, program) pairing.

    ``committed:<f>`` is the durable edge state (slot-ordered);
    ``seen_d:<f>`` carries the detect sweep's materialized views;
    ``ws/wvs/rs/rd:<f>`` are the per-iteration output slots, zeroed at
    every barrier; ``vis_s2d`` holds the iteration's Defs. 1–3
    visibility mask, rewritten by the first detect round of every
    iteration on the slots later rounds read; ``selfloop`` marks the
    self-loop slots once.  The destination-write half — ``seen_s``,
    ``wd/wvd``, ``vis_d2s`` — exists only for a kernel that declares
    ``writes_dst``.  One file,
    ``<store path>.scratch/arrays``, mapped ``MAP_SHARED``: the page
    cache holds it, so it costs address space, not anonymous memory,
    and the master drops its resident pages after every run.
    """

    def __init__(self, path: str, layout: ArrayLayout):
        self.path, self.layout = path, layout
        self.maps = SharedArrayPool.map_file(path, layout)
        for name in ("committed", "seen_s", "seen_d", *OUTPUTS):
            setattr(self, name, self.maps.arrays(name + ":"))
        self.vis_s2d = self.maps.array("vis_s2d")
        self.selfloop = self.maps.array("selfloop")
        self.vis_d2s = (self.maps.array("vis_d2s")
                        if "vis_d2s" in layout.entries else None)

    @staticmethod
    def layout_of(field_dtypes: dict, kernel, m: int) -> ArrayLayout:
        """What the file holds: a runner remaps when the next (program,
        kernel) pairing's layout differs."""
        sides = "sd" if kernel.writes_dst else "s"
        specs = {}
        for f, dt in field_dtypes.items():
            specs["committed:" + f] = ((m,), dt)
            specs["rs:" + f] = specs["rd:" + f] = ((m,), READ_COUNT)
        for f in kernel.written_fields:
            for side in sides:
                specs[f"seen_{'d' if side == 's' else 's'}:{f}"] = (
                    (m,), field_dtypes[f])
                specs[f"w{side}:{f}"] = ((m,), np.bool_)
                specs[f"wv{side}:{f}"] = ((m,), field_dtypes[f])
        for name in ("selfloop", "vis_s2d", "vis_d2s")[:len(sides) + 1]:
            specs[name] = ((m,), np.bool_)
        return ArrayLayout.build(specs)

    def zero_outputs(self) -> None:
        """Zero the per-iteration output slots (ws/wd/rs/rd) in place —
        never by truncating the file: a worker touching a mapped page
        between the two ``ftruncate`` calls would take ``SIGBUS``."""
        for group in (self.ws, self.wd, self.rs, self.rd):
            for arr in group.values():
                arr.fill(0)

    def close(self) -> None:
        """Views before maps: drop every view, then unmap."""
        for name in ("committed", "seen_s", "seen_d", *OUTPUTS):
            setattr(self, name, {})
        self.vis_s2d = self.vis_d2s = self.selfloop = None
        self.maps.close()


# ----------------------------------------------------------------------
# lazy state facade
# ----------------------------------------------------------------------
class _OocState(State):
    """A :class:`State` whose edge arrays live in the mapped scratch.

    Vertex arrays are materialized normally (they are ``O(n)`` and the
    engine updates them in place).  ``edge(f)`` gathers the canonical
    ``m``-array from the committed slots on demand and caches it; the
    runner flushes the cache back at ``run()`` start (the
    checkpoint-restore path mutates these arrays in place) and clears
    it after every commit barrier so readers always see fresh values.
    """

    def __init__(self, runner: "OutOfCoreNondetRunner", view,
                 vertex_fields, edge_fields):
        self._graph = view
        self._runner = runner
        self._vertex = {name: spec.materialize(view, view.num_vertices)
                        for name, spec in vertex_fields.items()}
        self._edge: dict[str, np.ndarray] = {}
        self._edge_specs = dict(edge_fields)

    @property
    def edge_field_names(self) -> tuple[str, ...]:
        return tuple(self._edge_specs)

    def edge(self, field: str) -> np.ndarray:
        if field not in self._edge_specs:
            raise KeyError(
                f"unknown edge field {field!r}; have {list(self._edge_specs)}"
            )
        if field not in self._edge:
            self._edge[field] = self._runner._gather_canonical(field)
        return self._edge[field]

    def snapshot_edges(self) -> dict[str, np.ndarray]:
        return {f: self.edge(f).copy() for f in self._edge_specs}


class _IoClock(PhaseClock):
    """A phase clock whose every lap carves the ``IOStats.seconds``
    accumulated during it out into the dedicated ``shard_io`` phase."""

    __slots__ = ("_io", "_io_seen")

    def __init__(self, io):
        super().__init__()
        self._io = io
        self._io_seen = io.seconds

    def start(self) -> None:
        super().start()
        self._io_seen = self._io.seconds

    def lap(self, phase: str) -> None:
        super().lap(phase)
        self.split(phase, "shard_io", self._io.seconds - self._io_seen)
        self._io_seen = self._io.seconds


# ----------------------------------------------------------------------
# sweep executor (shared by the single-process master and the workers)
# ----------------------------------------------------------------------
class _Exec:
    """Everything one sweep needs over one set of owned intervals.

    One :class:`NondetPassContext` over full-length views serves every
    sweep; an interval pass only points its ``in_range`` /
    ``out_ranges`` at the interval's shard and windows.
    """

    __slots__ = ("scratch", "kernel", "written", "n", "io",
                 "intervals", "parts", "seen", "ctx", "vp", "dirty", "dm",
                 "row", "psw_src", "psw_dst", "psw_eid")

    def __init__(self, store, scratch, kernel, intervals, io):
        # Plain views of the store's memmaps: no per-slice subclass cost.
        self.psw_src, self.psw_dst, self.psw_eid = (
            np.asarray(a) for a in (store.psw_src, store.psw_dst, store.psw_eid))
        self.scratch = scratch
        self.kernel = kernel
        self.written = tuple(kernel.written_fields)
        self.n = store.num_vertices
        self.io = io
        self.intervals = list(intervals)
        off, win = store.shard_offsets, store.window_index
        #: interval -> (its vertex range, shard, windows ``(·, k)``)
        self.parts = {
            k: (store.interval(k), slice(int(off[k]), int(off[k + 1])),
                tuple(slice(int(a), int(b))
                      for a, b in zip(win[:, k], win[:, k + 1])))
            for k in range(store.num_intervals)}
        com = scratch.committed
        # What a sweep sees: pass 1 the committed snapshot, a repair
        # sweep the detect sweep's seen arrays.
        self.seen = {False: (com, com),
                     True: ({**com, **scratch.seen_s},
                            {**com, **scratch.seen_d})}
        self.ctx = NondetPassContext(
            None, None, None, self.written, src=self.psw_src,
            dst=self.psw_dst, n=self.n, out_degrees=np.asarray(
                store.out_degrees), committed=com, v0={}, vout={},
            selfloop=scratch.selfloop,
            **{name: getattr(scratch, name) for name in OUTPUTS})
        # ``IOStats`` per slot a step views (topology and one value per
        # edge field) and per slot it stores (one per written field).
        size = {f: a.itemsize for f, a in com.items()}
        self.row = (16 + sum(size.values()),
                    sum(size[f] for f in self.written))

    def begin(self, vp, dirty, v0, vout) -> None:
        """Point the sweeps at one iteration's plan and vertex arrays."""
        self.vp, self.dirty = vp, dirty
        ctx = self.ctx
        ctx.active, ctx.v0, ctx.vout = vp.active, v0, vout

    def _count(self, slots: int, stored: bool = True) -> None:
        self.io.bytes_read += slots * self.row[0]
        if stored:
            self.io.bytes_written += slots * self.row[1]

    def active_intervals(self, sub: np.ndarray) -> list[int]:
        out = []
        for k in self.intervals:
            lo, hi = self.parts[k][0]
            if sub[lo:hi].any():
                out.append(k)
        return out

    # -- compute sweep ---------------------------------------------------
    def pass_sweep(self, sub: np.ndarray, use_seen: bool) -> None:
        """Run the kernel for ``sub``'s vertices, one interval at a time.

        ``use_seen`` selects the seen source: committed (pass 1) or the
        detect sweep's seen arrays (repairs).  Shard ``k``'s slots are
        sorted by (src, canonical id) — per destination, the global CSC
        order, which is the float kernels' accumulation order.
        """
        ctx = self.ctx
        ctx.seen_s, ctx.seen_d = self.seen[use_seen]
        for k in self.active_intervals(sub):
            (lo, hi), ctx.in_range, ctx.out_ranges = self.parts[k]
            # Restrict the recompute set to the interval's own vertices:
            # only they have their full incidence in these ranges.  A
            # foreign source on a shard-k edge is recomputed by *its*
            # interval (whose windows hold all its out-edges), which
            # also keeps ``vout`` single-writer across intervals and
            # across pool workers.
            sub_k = np.zeros(self.n, dtype=bool)
            sub_k[lo:hi] = sub[lo:hi]
            self.kernel.run_pass(ctx, sub_k, first=not use_seen)
            self.io.interval_loads += 1
            self._count(sum(r.stop - r.start
                            for r in (ctx.in_range, *ctx.out_ranges)))

    # -- detect sweep ----------------------------------------------------
    def detect_sweep(self, first: bool) -> bool:
        """Materialize seen values, mark dirty vertices; True if changed.

        Covers the dst side of every active shard and (if destinations
        write) the src side of every active interval's windows — exactly
        the slots whose seen value can change (a change needs a visible
        fresh write, which needs both endpoints active).  ``first``
        compares against the committed snapshot (round 1 of an
        iteration); later rounds against the previous round's seen.
        """
        changed = False
        for k in self.active_intervals(self.vp.active):
            _, shard, windows = self.parts[k]
            changed |= self._detect_range(shard, first, dst_side=True)
            if self.scratch.vis_d2s is not None:
                for r in windows:
                    changed |= self._detect_range(r, first, dst_side=False)
        return changed

    def _detect_range(self, r: slice, first: bool, dst_side: bool) -> bool:
        """One side's seen values on the slots ``r``.

        The dst side sees the sources' writes (``vis_s2d``), the src
        side the destinations' (``vis_d2s``).  Visibility depends only
        on the iteration's plan, so the ``first`` round computes it and
        parks it in the mapped mask; later rounds read it back — they
        cover the same slots, the active set being fixed within an
        iteration.
        """
        if r.stop <= r.start:
            return False
        scr = self.scratch
        if dst_side:
            vis, w, wv, seen = scr.vis_s2d[r], scr.ws, scr.wvs, scr.seen_d
            owner = self.psw_dst[r]
        else:
            vis, w, wv, seen = scr.vis_d2s[r], scr.wd, scr.wvd, scr.seen_s
            owner = self.psw_src[r]
        if first:
            vis[:] = visibility(self.vp, self.dm, self.psw_src[r],
                                self.psw_dst[r], writer_is_src=dst_side)
        changed = False
        for f in self.written:
            com = scr.committed[f][r]
            cur = np.where(vis & w[f][r], wv[f][r], com)
            ch = cur != (com if first else seen[f][r])
            moved = bool(ch.any())
            if moved:
                self.dirty[owner[ch]] = True
                changed = True
            if first or moved:  # else the slots already hold ``cur``
                seen[f][r] = cur
        self._count(r.stop - r.start, stored=first or changed)
        return changed


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
#: Worker-side phase slots in the shared ``phase_w`` rows, in slot
#: order.  Sweep time lands in ``gather`` (pass 1) / ``repair_pass``
#: (detect + repairs); ``shard_io`` is carved out of them by the
#: worker's :class:`_IoClock`.
_OOC_WPHASES = ("gather", "repair_pass", "barrier_wait", "shard_io")


class _IntervalWorker:
    """Pool worker body: the sweeps over one BLOCK of intervals.

    Barrier-paced *within* an iteration: PASS1 on receipt of the
    message, then rounds whose command word lives in the shared ``ctrl``
    block.  When the run is profiled the worker runs an
    :class:`_IoClock` over the sweeps and publishes its per-iteration
    phase row into the single-writer ``phase_w`` block before every
    barrier C (so the master folds it with the flags).  Profiling is
    pure timing: no branch of the sweep code depends on it, so profiled
    runs stay bit-identical.
    """

    def __init__(self, link: WorkerLink, store_path, scratch_path, layout,
                 program, intervals):
        from ..storage.shards import IOStats, ShardStore

        self.link = link
        link.start_fields = {"intervals": len(intervals)}
        kernel = resolve_nondet_kernel(program)(program)
        self.io = IOStats()
        shm = link.shm
        self.ctrl = shm.array("ctrl")
        self.flags = shm.array("flags")
        self.iostat = shm.array("iostat")
        self.wcount = shm.array("wcount")
        ex = self.ex = _Exec(ShardStore(store_path),
                             _Scratch(scratch_path, layout), kernel,
                             intervals, self.io)
        vp = SimpleNamespace(**{name: shm.array(name) for name in (
            "active", "thr_v", "pi_v", "time_v")})
        ex.begin(vp, shm.array("dirty"), shm.arrays("v0:"),
                 shm.arrays("vout:"))

    def iterate(self, dm, iteration: int) -> None:
        link, ex = self.link, self.ex
        wid = link.wid
        ex.dm = dm
        active = ex.vp.active
        clock = _IoClock(self.io) if link.profile else NO_CLOCK
        ex.pass_sweep(active, use_seen=False)
        sweeps = 1
        clock.lap("gather")
        link.wait()       # A: pass-1 writes durable
        clock.lap("barrier_wait")
        while True:
            link.wait()   # B: dirty/flags cleared
            clock.lap("barrier_wait")
            self.flags[wid] = ex.detect_sweep(first=bool(self.ctrl[1]))
            # Publish cumulative I/O counters (single-writer row);
            # barrier C orders the write before the master's fold.
            self.iostat[wid] = (ex.io.bytes_read, ex.io.bytes_written,
                                ex.io.interval_loads)
            if clock:
                # Phase row published before every C: the last write
                # before the final C is what the master folds (the C
                # wait itself ends the measured window, as in the
                # in-memory process backend).
                clock.lap("repair_pass")
                link.publish_phases(_OOC_WPHASES, clock.acc)
                self.wcount[wid] = sweeps
            link.wait()   # C: flags posted
            if not self.flags.any():
                break
            clock.lap("barrier_wait")  # the C wait, non-final round
            ex.pass_sweep(ex.dirty & active, use_seen=True)
            sweeps += 1
            clock.lap("repair_pass")
            link.wait()   # D: repair writes durable
            clock.lap("barrier_wait")
        if clock:
            link.span(iteration, clock.drain(), sweeps=sweeps,
                      owned=len(ex.intervals))


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
class OutOfCoreNondetRunner:
    """Interval-sliced racy execution over a :class:`ShardStore`.

    Bit-for-bit identical to
    :class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` per
    (mode, seed) — final state, iteration/frontier trajectory,
    per-thread stats, conflict totals, fix-point pass counts, recorder
    provenance — while holding only ``O(n)`` vertex-indexed arrays plus
    one interval's temporaries in anonymous memory.  Obtain one via
    :meth:`ShardStore.nondet_runner` (cached there so supervised
    restarts resume against the same live scratch), or pass the store
    straight to :func:`repro.engine.run`.
    """

    mode = "nondeterministic"

    #: Slots per streaming chunk for canonical gathers/scatters.
    CHUNK = 1 << 20

    def __init__(self, store):
        from ..storage.shards import IOStats

        # A proxy: the store caches its runner, and a strong reference
        # back would make a cycle that holds the pool, its segment and
        # the scratch mapping until the cyclic GC runs.  A state keeps
        # the store itself alive (its graph view holds it).
        self.store = weakref.proxy(store)
        self.io = IOStats()
        self._scratch: _Scratch | None = None
        self._pool: WorkerPool | None = None
        #: Worker I/O counters already folded into ``io`` (the workers
        #: publish cumulative totals, the pool outlives a run).
        self._io_seen = None
        # Monotone per-run id shipped to pool workers with the profiling
        # tuple: a warm pool resets its barrier epoch and reopens its
        # trace segment when the id changes.
        self._run_counter = 0

    # -- scratch management ---------------------------------------------
    def _ensure_scratch(self, program: VertexProgram, kernel) -> None:
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        layout = _Scratch.layout_of(field_dtypes, kernel,
                                    self.store.num_edges)
        if self._scratch is not None:
            if self._scratch.layout == layout:
                return
            self.close()
        directory = self.store.path + ".scratch"
        os.makedirs(directory, exist_ok=True)
        self._scratch = _Scratch(os.path.join(directory, "arrays"), layout)
        store = self.store
        for r, _ in self._chunks():
            self._scratch.selfloop[r] = store.psw_src[r] == store.psw_dst[r]

    def _chunks(self):
        """Slot ranges of ``CHUNK`` slots with their canonical ids."""
        m = self.store.num_edges
        for a in range(0, m, self.CHUNK):
            r = slice(a, min(a + self.CHUNK, m))
            yield r, np.asarray(self.store.psw_eid[r], dtype=np.int64)

    def _scatter_canonical(self, field: str, arr: np.ndarray) -> None:
        """Write a canonical-order ``m``-array into the committed slots."""
        t0 = time.perf_counter()
        dest = self._scratch.committed[field]
        for r, eid in self._chunks():
            dest[r] = arr[eid]
        self.io.seconds += time.perf_counter() - t0

    def _gather_canonical(self, field: str) -> np.ndarray:
        """The committed edge array for ``field`` in canonical order."""
        scr = self._scratch
        if scr is None or field not in scr.committed:
            raise KeyError(f"no scratch state for edge field {field!r}")
        t0 = time.perf_counter()
        src = scr.committed[field]
        out = np.empty(src.size, dtype=src.dtype)
        for r, eid in self._chunks():
            out[eid] = src[r]
        self.io.seconds += time.perf_counter() - t0
        return out

    def _sync_state(self, state: "_OocState") -> None:
        """Flush cached (possibly caller-mutated) edge arrays."""
        for f, arr in state._edge.items():
            self._scatter_canonical(f, arr)
        state._edge.clear()

    def _zero_outputs(self) -> None:
        t0 = time.perf_counter()
        self._scratch.zero_outputs()
        self.io.seconds += time.perf_counter() - t0

    # -- state construction ----------------------------------------------
    def make_state(self, program: VertexProgram) -> _OocState:
        """Initial :class:`State` with edge fields in the mapped scratch.

        Scalar initializers fill the slots in place (never
        materializing an ``m``-array); callable initializers are
        materialized once in canonical order and scattered to slot
        order in chunks.
        """
        factory = resolve_nondet_kernel(program)
        if factory is None:
            raise ValueError(
                "out-of-core execution needs a registered vectorized "
                f"kernel; none for {type(program).__name__}"
            )
        kernel = factory(program)
        self._ensure_scratch(program, kernel)
        view = self.store.graph_view()
        state = _OocState(self, view, program.vertex_fields(),
                          program.edge_fields())
        for f, spec in program.edge_fields().items():
            if callable(spec.init):
                self._scatter_canonical(
                    f, spec.materialize(view, self.store.num_edges))
            else:
                self._scratch.committed[f].fill(spec.init)
        self._zero_outputs()
        return state

    # -- pool management --------------------------------------------------
    def _ensure_pool(self, program, state, config, workers):
        """The warm pool if it fits this run, else a fresh one; returns
        ``(pool, reused)``.

        Shares only the ``O(n)`` master state (plan, masks, ``v0``/
        ``vout``) — edge data stays in the mapped scratch.  Interval
        ownership is a static BLOCK partition, so every scratch slot
        range keeps exactly one writer across workers.
        """
        store, scr = self.store, self._scratch
        n, K = store.num_vertices, store.num_intervals
        # One counter delta: sweeps.
        specs = WorkerPool.shared_specs(n, state, workers, _OOC_WPHASES, 1)
        specs["ctrl"] = ((4,), np.int64)
        specs["iostat"] = ((workers, 3), np.int64)
        layout = ArrayLayout.build(specs)
        key = WorkerPool.key_of(program, workers, config.worker_timeout_s,
                                layout)
        if (self._pool is not None and self._pool.alive
                and self._pool.key == key):
            return self._pool, True
        self._teardown_pool()
        self._pool = WorkerPool(
            layout, workers, config.worker_timeout_s, key=key,
            name="repro-ooc-worker", body=_IntervalWorker,
            body_args=lambda w: (
                store.path, scr.path, scr.layout, program,
                [k for k in range(K)
                 if w * K // workers <= k < (w + 1) * K // workers]))
        self._io_seen = np.zeros((workers, 3), dtype=np.int64)
        return self._pool, False

    def _fold_io(self, pool: WorkerPool) -> None:
        """Fold worker-side I/O into ``io`` (delta vs the last fold, so
        reuse of a warm pool across ``run()`` calls stays correct)."""
        cur = pool.arrays["iostat"].copy()
        delta = cur - self._io_seen
        self._io_seen = cur
        self.io.bytes_read += int(delta[:, 0].sum())
        self.io.bytes_written += int(delta[:, 1].sum())
        self.io.interval_loads += int(delta[:, 2].sum())

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Tear down the worker pool and unmap the scratch."""
        self._teardown_pool()
        if self._scratch is not None:
            self._scratch.close()
            self._scratch = None

    # -- commit barrier ---------------------------------------------------
    def _finalize(self, bar, plan, dm, ex, written) -> None:
        """The commit barrier, master side, one slot range at a time.

        Sweeps each shard once: active shards (``acts``) in full,
        inactive shards only through the sliding windows of active
        intervals — together exactly the slots that can hold a nonzero
        output (a src-side output implies an active source, hence an
        active window; a dst-side output implies an active destination,
        hence an active shard), each exactly once.  Lemma 2 commits
        into the mapped ``committed`` slots in place.
        """
        store, scr = self.store, self._scratch
        acts = ex.active_intervals(plan.active)
        act_set = set(acts)
        for j in range(store.num_intervals):
            a = int(store.shard_offsets[j])
            b = int(store.shard_offsets[j + 1])
            if b <= a:
                continue
            if j in act_set:
                subranges = [(a, b)]
            else:
                subranges = []
                for k in acts:
                    wa = int(store.window_index[j, k])
                    wb = int(store.window_index[j, k + 1])
                    if wb > wa:
                        if subranges and subranges[-1][1] == wa:
                            subranges[-1] = (subranges[-1][0], wb)
                        else:
                            subranges.append((wa, wb))
            for ga, gb in subranges:
                r = slice(ga, gb)
                ep = EdgePlan(plan, dm, ex.psw_src[r], ex.psw_dst[r])
                out = {name: {f: arr[r]
                              for f, arr in getattr(scr, name).items()}
                       for name in OUTPUTS}
                # ``psw_eid`` stays a lazy view of the map: read only
                # where the recorder wants rows.
                commit_on(bar, ep, ex.psw_eid[r], written, out,
                          {f: scr.committed[f][r] for f in written})
                count_on(bar, ep, written, out)
                ex._count(gb - ga)

    # -- the run loop ------------------------------------------------------
    def run(self, program: VertexProgram, config: EngineConfig | None = None,
            *, state: _OocState | None = None, observer=None, telemetry=None,
            record=None, supervisor=None, backend: str | None = None,
            metrics=None) -> RunResult:
        """Execute ``program`` out of core; mirrors the vectorized engine.

        ``backend="process"`` dispatches shard intervals to a persistent
        worker pool (BLOCK interval ownership); anything else runs the
        interval sweeps in this process.  Either way the result is
        bit-identical to the in-memory vectorized engine.
        """
        config = config or EngineConfig()
        check_eligible(program, config, "pull", "a ShardStore graph")
        use_pool = backend == "process"
        kernel = resolve_nondet_kernel(program)(program)
        if state is None:
            state = self.make_state(program)
        else:
            if not isinstance(state, _OocState) or state._runner is not self:
                raise ValueError(
                    "state must come from this runner's make_state()")
            self._ensure_scratch(program, kernel)

        store = self.store
        n, K = store.num_vertices, store.num_intervals
        written = tuple(kernel.written_fields)
        vfields = tuple(state.vertex_field_names)
        io = self.io
        io.bytes_read = 0
        io.bytes_written = 0
        io.interval_loads = 0
        io.seconds = 0.0
        # Clear any outputs left behind by an aborted run.
        self._zero_outputs()

        workers = max(1, min(config.threads, K))
        pool = None
        ex = _Exec(store, self._scratch, kernel, list(range(K)), io)
        self._run_counter += 1
        prof = profile_directive(telemetry, metrics, self._run_counter)
        extra = {"out_of_core": True, "num_intervals": K}
        if use_pool:
            extra.update(backend="process", workers=workers,
                         pool_reused=False)
        epoch = 0

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal pool, epoch
            if use_pool and pool is None:
                pool, extra["pool_reused"] = self._ensure_pool(
                    program, state, config, workers)
            ex.dm = dm
            clock.lap("plan_build")
            if pool is not None:
                sh = pool.arrays
                pool.publish(plan, state)
                bar.vout = {f: sh["vout:" + f] for f in vfields}
                # Workers run PASS1 on receipt.
                pool.broadcast(iteration, dm, prof)
                clock.lap("shm_sync")
                pool.sync(iteration)             # A: PASS1 writes visible
                epoch += 1
                clock.lap("barrier_wait")
                for r in range(int(plan.ids.size) + 2):
                    sh["dirty"].fill(False)
                    sh["flags"].fill(0)
                    sh["ctrl"][1] = r == 0
                    pool.sync(iteration)         # B: workers may detect
                    pool.sync(iteration)         # C: flags published
                    epoch += 2
                    clock.lap("barrier_wait")
                    if not sh["flags"].any():
                        break
                    bar.passes += 1
                    pool.sync(iteration)         # D: repair writes visible
                    epoch += 1
                    clock.lap("barrier_wait")
                else:
                    raise RuntimeError("nondet fix-point failed to converge")
                self._fold_io(pool)
                if clock:
                    pool.fold(bar, epoch, _OOC_WPHASES, telemetry, metrics,
                              {"sweeps": sh["wcount"][:, 0]})
            else:
                v0 = {f: state.vertex(f) for f in vfields}
                bar.vout = {f: a.copy() for f, a in v0.items()}
                ex.begin(plan, np.zeros(n, dtype=bool), v0, bar.vout)
                ex.pass_sweep(plan.active, use_seen=False)
                clock.lap("gather")
                for r in range(int(plan.ids.size) + 2):
                    ex.dirty[:] = False
                    if not ex.detect_sweep(first=(r == 0)):
                        break
                    ex.pass_sweep(ex.dirty & plan.active, use_seen=True)
                    bar.passes += 1
                else:
                    raise RuntimeError("nondet fix-point failed to converge")
                clock.lap("repair_pass")
            self._finalize(bar, plan, dm, ex, written)
            self._zero_outputs()
            state._edge.clear()

        try:
            # A restored checkpoint, a barrier's value faults or caller
            # edits land in the state's cache: ``state_written`` pushes
            # them to the committed slots before the next sweep.
            result = run_array(
                program, state._graph, config, state, body,
                label="outofcore", extra=extra, observer=observer,
                telemetry=telemetry, record=record, supervisor=supervisor,
                metrics=metrics, state_written=lambda: self._sync_state(state),
                make_clock=lambda: _IoClock(io),
            )
        except BaseException:
            # Leave no pool behind an exceptional exit; a clean return
            # keeps it warm for the next run() on this runner.
            self._teardown_pool()
            raise
        result.extra["io"] = io.as_dict()
        # A warm runner between runs holds no resident scratch pages.
        self._scratch.maps.release_pages()
        return result
