"""Out-of-core nondeterministic execution over PSW shard stores.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` holds
every edge-indexed array (``committed``, ``seen``, ``ws/wd/wvs/wvd``,
``rs/rd``) fully in memory — ~10 arrays of ``m`` entries, which is what
actually caps the graph scale, not the topology.  This module is the
file residency of :mod:`~repro.engine.nondet_core`: the *same* racy
iteration interval-by-interval over a
:class:`~repro.storage.shards.ShardStore`.  Edge-indexed data lives in
flat scratch files addressed by shard-major slot, and one fix-point pass
touches only the slot ranges incident to the interval it is running —
resident set stays bounded by the largest interval's incident set plus
the ``O(n)`` vertex-indexed arrays.

**Why the interval decomposition is exact** is argued in DESIGN §6.1:
the §II scope rule and the source-sorted sliding windows make every
slot range single-writer on each side across intervals (and workers),
and the core's predicates and barrier functions are elementwise in the
edge over a vertex-indexed in-memory plan, so calling them on a
gathered slot range is the same arithmetic as on the full edge list.
``tests/test_outofcore.py`` asserts bit-identity (state, trajectory,
per-thread stats, conflict totals, fix-point pass counts, recorder
provenance) against both in-memory engines per (kernel, seed).

**Fix-point barrier discipline.**  Within one iteration the runner
alternates *compute* sweeps (pass 1, repairs) and *detect* sweeps.  The
detect sweep materializes each side's seen value into ``seen_s``/
``seen_d`` scratch files for every covered slot; the following repair
sweep gathers seen values from those files rather than recomputing them
from the live write files — recomputing would let interval ``i``'s
round-``r+1`` writes leak into interval ``j > i``'s gather within the
same sweep, breaking the round-synchronous semantics the in-memory
engine has by construction.

**Process backend.**  ``backend="process"`` dispatches intervals to a
persistent :class:`~repro.engine.workerpool.WorkerPool`: worker ``w``
owns a contiguous BLOCK of intervals, so every scratch range keeps a
single writer across workers too.  Only the ``O(n)`` master state (plan,
``v0``/``vout``, active and dirty masks) is shared through the pool's
segment; edge data flows through the page cache.  The pool survives
across ``run()`` calls on the same (store, program) —
``extra["pool_reused"]`` reports reuse — and is torn down by
:meth:`OutOfCoreNondetRunner.close`, on worker failure, or at GC.
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..obs.metrics import NO_CLOCK, PhaseClock
from ..storage.shm import ArrayLayout
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

__all__ = ["FileArray", "OutOfCoreNondetRunner"]


# ----------------------------------------------------------------------
# flat scratch files
# ----------------------------------------------------------------------
class FileArray:
    """A flat on-disk array addressed by slot range, via pread/pwrite.

    Not memory-mapped on purpose: reads land in caller-owned arrays
    and writes go straight to the page cache, so the process RSS never
    grows with the file and concurrent writers to *disjoint* ranges are
    safe across processes (single-writer slot ownership is established
    by the PSW layout).  Created sparse; :meth:`zero` re-punches the
    whole file back to zeros in O(1) syscalls.
    """

    __slots__ = ("path", "dtype", "size", "_itemsize", "_fd", "_io")

    def __init__(self, path: str, dtype, size: int, io=None):
        self.path = path
        self.dtype = np.dtype(dtype)
        self.size = int(size)
        self._itemsize = self.dtype.itemsize
        self._fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        nbytes = self.size * self._itemsize
        if os.fstat(self._fd).st_size != nbytes:
            os.ftruncate(self._fd, nbytes)
        self._io = io

    def read_into(self, a: int, out: np.ndarray) -> None:
        """Fill ``out`` (contiguous, my dtype) from slots ``[a, a + out.size)``."""
        nbytes = out.nbytes
        io = self._io
        t0 = time.perf_counter() if io is not None else 0.0
        got = os.preadv(self._fd, [out], int(a) * self._itemsize)
        if got != nbytes:  # pragma: no cover - scratch truncated
            raise OSError(f"{self.path}: short read ({got}/{nbytes} bytes)")
        if io is not None:
            io.bytes_read += nbytes
            io.seconds += time.perf_counter() - t0

    def read(self, a: int, b: int) -> np.ndarray:
        """Slots ``[a, b)`` as a fresh writable array."""
        out = np.empty(int(b) - int(a), dtype=self.dtype)
        self.read_into(a, out)
        return out

    def write(self, a: int, arr: np.ndarray) -> None:
        """Overwrite slots ``[a, a + arr.size)``."""
        data = np.ascontiguousarray(arr, dtype=self.dtype)
        io = self._io
        t0 = time.perf_counter() if io is not None else 0.0
        os.pwrite(self._fd, data, int(a) * self._itemsize)
        if io is not None:
            io.bytes_written += data.nbytes
            io.seconds += time.perf_counter() - t0

    def zero(self) -> None:
        """Reset every slot to zero (sparse, O(1))."""
        os.ftruncate(self._fd, 0)
        os.ftruncate(self._fd, self.size * self._itemsize)

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class _Scratch:
    """The per-field scratch files of one (store, program) pairing.

    ``<f>.committed`` is the durable edge state (slot-ordered);
    ``<f>.seen_d`` carries the detect sweep's materialized views;
    ``<f>.ws/wvs/rs/rd`` are the per-iteration output slots, zeroed at
    every barrier; ``plan.vis_s2d`` holds the iteration's Defs. 1–3
    visibility mask, rewritten by the first detect round of every
    iteration on the slots later rounds read.  The destination-write
    half — ``<f>.seen_s``, ``<f>.wd/wvd``, ``plan.vis_d2s`` — exists
    only for a kernel that declares ``writes_dst``.  All files live in
    ``<store path>.scratch/``.
    """

    def __init__(self, directory: str, field_dtypes: dict, kernel,
                 m: int, io=None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.field_dtypes = {f: np.dtype(dt) for f, dt in field_dtypes.items()}
        self.writes_dst = bool(kernel.writes_dst)
        self.signature = self.signature_of(field_dtypes, kernel, m)
        self._files: list[FileArray] = []

        def fa(name, dtype):
            self._files.append(
                FileArray(os.path.join(directory, name), dtype, m, io=io))
            return self._files[-1]

        def per_field(suffix, fields, dtype=None):
            return {f: fa(f + suffix, dtype or self.field_dtypes[f])
                    for f in fields}

        written = tuple(kernel.written_fields)
        dst_written = written if self.writes_dst else ()
        self.committed = per_field(".committed", field_dtypes)
        self.rs = per_field(".rs", field_dtypes, READ_COUNT)
        self.rd = per_field(".rd", field_dtypes, READ_COUNT)
        self.seen_s = per_field(".seen_s", dst_written)
        self.seen_d = per_field(".seen_d", written)
        self.ws = per_field(".ws", written, np.bool_)
        self.wd = per_field(".wd", dst_written, np.bool_)
        self.wvs = per_field(".wvs", written)
        self.wvd = per_field(".wvd", dst_written)
        self.vis_s2d = fa("plan.vis_s2d", np.bool_)
        if self.writes_dst:
            self.vis_d2s = fa("plan.vis_d2s", np.bool_)

    @staticmethod
    def signature_of(field_dtypes: dict, kernel, m: int) -> tuple:
        """What the set of files depends on: a runner rebuilds its
        scratch when the next (program, kernel) pairing's differs."""
        return (tuple(sorted((f, np.dtype(dt).str)
                             for f, dt in field_dtypes.items())),
                tuple(kernel.written_fields), bool(kernel.writes_dst),
                int(m))

    def zero_outputs(self) -> None:
        """Zero the per-iteration output slots (ws/wd/rs/rd)."""
        for group in (self.ws, self.wd, self.rs, self.rd):
            for f in group.values():
                f.zero()

    def close(self) -> None:
        for f in self._files:
            f.close()


# ----------------------------------------------------------------------
# lazy state facade
# ----------------------------------------------------------------------
class _OocState(State):
    """A :class:`State` whose edge arrays live in the scratch files.

    Vertex arrays are materialized normally (they are ``O(n)`` and the
    engine updates them in place).  ``edge(f)`` gathers the canonical
    ``m``-array from the committed file on demand and caches it; the
    runner flushes the cache back to the files at ``run()`` start (the
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
    """A phase clock whose every lap carves the pread/pwrite seconds
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
    """Everything one sweep needs over one set of owned intervals."""

    __slots__ = ("store", "scratch", "kernel", "written", "efields",
                 "n", "p", "dm", "active", "dirty", "thr_v", "pi_v",
                 "time_v", "v0", "vout", "out_degrees", "io", "intervals",
                 "_layouts", "psw_src", "psw_dst", "psw_eid")

    def __init__(self, store, scratch, kernel, intervals, io):
        self.store = store
        # Plain views of the store's memmaps: no per-slice subclass cost.
        self.psw_src, self.psw_dst, self.psw_eid = (
            np.asarray(a) for a in (store.psw_src, store.psw_dst, store.psw_eid))
        self.scratch = scratch
        self.kernel = kernel
        self.written = tuple(kernel.written_fields)
        self.efields = tuple(scratch.field_dtypes)
        self.n = store.num_vertices
        self.out_degrees = np.asarray(store.out_degrees)
        self.io = io
        self.intervals = list(intervals)
        self._layouts: dict[int, tuple] = {}

    def layout(self, k: int):
        """Slot-range layout of interval ``k``'s incident set.

        Returns ``(parts, total, dst_block, src_parts)`` where each part
        is ``(ga, gb, la)`` — global slot range and its local offset in
        the concatenated gather; ``dst_block`` is the full shard ``k``
        (dst-owned slots) and ``src_parts`` the ``(j, k)`` sliding
        windows (src-owned slots), the ``(k, k)`` window addressed
        inside the dst block.
        """
        got = self._layouts.get(k)
        if got is not None:
            return got
        store = self.store
        K = store.num_intervals
        parts: list[tuple[int, int, int]] = []
        src_parts: list[tuple[int, int, int]] = []
        dst_block = None
        off = 0
        for j in range(K):
            if j == k:
                ga = int(store.shard_offsets[j])
                gb = int(store.shard_offsets[j + 1])
                if gb > ga:
                    parts.append((ga, gb, off))
                    dst_block = (ga, gb, off)
                    wa = int(store.window_index[k, k])
                    wb = int(store.window_index[k, k + 1])
                    if wb > wa:
                        src_parts.append((wa, wb, off + wa - ga))
                    off += gb - ga
            else:
                ga = int(store.window_index[j, k])
                gb = int(store.window_index[j, k + 1])
                if gb > ga:
                    parts.append((ga, gb, off))
                    src_parts.append((ga, gb, off))
                    off += gb - ga
        got = (parts, off, dst_block, src_parts)
        self._layouts[k] = got
        return got

    def _topo(self, arr, parts, total) -> np.ndarray:
        out = np.empty(total, dtype=np.int64)
        for ga, gb, la in parts:
            out[la:la + gb - ga] = arr[ga:gb]
        self.io.bytes_read += total * 8
        return out

    def _gather(self, fa: FileArray, parts, total,
                partial: bool = False) -> np.ndarray:
        """``parts`` of ``fa`` at their local offsets; with ``partial``
        they do not cover ``[0, total)`` and the rest reads zero."""
        out = (np.zeros if partial else np.empty)(total, dtype=fa.dtype)
        for ga, gb, la in parts:
            fa.read_into(ga, out[la:la + gb - ga])
        return out

    def _gather_owned(self, group: dict, ranges, total) -> dict:
        """Every field of an output ``group`` on the owned ``ranges``."""
        return {f: self._gather(fa, ranges, total, partial=True)
                for f, fa in group.items()}

    def active_intervals(self, sub: np.ndarray) -> list[int]:
        out = []
        for k in self.intervals:
            lo, hi = self.store.interval(k)
            if sub[lo:hi].any():
                out.append(k)
        return out

    # -- compute sweep ---------------------------------------------------
    def pass_sweep(self, sub: np.ndarray, use_seen: bool) -> None:
        """Run the kernel for ``sub``'s vertices, one interval at a time.

        Every interval's incident ranges are gathered into ONE
        concatenated context — a kernel pass must see the interval's
        full incidence at once (splitting per range would recompute
        ``vout`` from partial in-edge sets).  ``use_seen`` selects the
        seen source: committed (pass 1) or the detect sweep's seen
        files (repairs).
        """
        scr = self.scratch
        for k in self.active_intervals(sub):
            parts, total, dst_block, src_parts = self.layout(k)
            ls = self._topo(self.psw_src, parts, total)
            ld = self._topo(self.psw_dst, parts, total)
            # Local slot order is the float kernels' accumulation order:
            # this interval's in-edges all live in shard k, whose slots
            # are sorted by (src, canonical id) — per destination, the
            # global CSC order.
            committed = {f: self._gather(scr.committed[f], parts, total)
                         for f in self.efields}
            seen_s, seen_d = dict(committed), dict(committed)
            if use_seen:
                for f in self.written:
                    seen_d[f] = self._gather(scr.seen_d[f], parts, total)
                for f, fa in scr.seen_s.items():
                    seen_s[f] = self._gather(fa, parts, total)
            # Outputs are gathered only on the ranges written back below
            # (src side on the windows, dst side on the shard): the kernel
            # writes nowhere else, and never reads them.
            dst_parts = [dst_block] if dst_block is not None else []
            owned = ((dst_parts, ("wd", "wvd", "rd")),
                     (src_parts, ("ws", "wvs", "rs")))
            in_range, *out_ranges = (slice(la, la + gb - ga) for ga, gb, la
                                     in [dst_block or (0, 0, 0), *src_parts])
            ctx = NondetPassContext(
                None, None, self.active, self.written,
                src=ls, dst=ld, n=self.n, out_degrees=self.out_degrees,
                committed=committed, v0=self.v0, vout=self.vout,
                seen_s=seen_s, seen_d=seen_d,
                in_range=in_range, out_ranges=tuple(out_ranges),
                **{name: self._gather_owned(getattr(scr, name), ranges, total)
                   for ranges, names in owned for name in names})
            # Restrict the recompute set to the interval's own vertices:
            # only they see their full incidence in this slice.  A
            # foreign source on a shard-k edge is recomputed by *its*
            # interval (whose windows hold all its out-edges), which
            # also keeps ``vout`` single-writer across intervals and
            # across pool workers.
            lo, hi = self.store.interval(k)
            sub_k = np.zeros(self.n, dtype=bool)
            sub_k[lo:hi] = sub[lo:hi]
            self.kernel.run_pass(ctx, sub_k, first=not use_seen)
            self.io.interval_loads += 1
            # Scatter back only the slot ranges this interval owns: the
            # dst side of its shard, the src side of its windows.  The
            # unwritten positions inside those ranges carry the gathered
            # file values, so full-range writes are value-preserving.
            for ranges, names in owned:
                for ga, gb, la in ranges:
                    for name in names:
                        for f, fa in getattr(scr, name).items():
                            fa.write(ga, getattr(ctx, name)[f][la:la + gb - ga])

    # -- detect sweep ----------------------------------------------------
    def detect_sweep(self, first: bool) -> bool:
        """Materialize seen values, mark dirty vertices; True if changed.

        Covers the dst side of every active shard and (if destinations
        write) the src side of every active interval's windows — exactly
        the slots whose seen value can change (a change needs a visible
        fresh write, which needs both endpoints active).  ``first``
        compares against the committed snapshot (round 1 of an
        iteration); later rounds against the previous round's seen files.
        """
        changed = False
        for k in self.active_intervals(self.active):
            _, _, dst_block, src_parts = self.layout(k)
            if dst_block is not None:
                changed |= self._detect_range(
                    dst_block[0], dst_block[1], first, dst_side=True)
            if self.scratch.writes_dst:
                for ga, gb, _ in src_parts:
                    changed |= self._detect_range(ga, gb, first,
                                                  dst_side=False)
        return changed

    def _detect_range(self, ga: int, gb: int, first: bool,
                      dst_side: bool) -> bool:
        """One side's seen values on slots ``[ga, gb)``.

        The dst side sees the sources' writes (``vis_s2d``), the src
        side the destinations' (``vis_d2s``).  Visibility depends only
        on the iteration's plan, so the ``first`` round computes it and
        parks it in the scratch mask file; later rounds read it back —
        they cover the same slots, the active set being fixed within an
        iteration — and touch the topology only to mark dirty owners.
        """
        scr = self.scratch
        if dst_side:
            vis_file, w, wv, seen = scr.vis_s2d, scr.ws, scr.wvs, scr.seen_d
            psw_owner = self.psw_dst
        else:
            vis_file, w, wv, seen = scr.vis_d2s, scr.wd, scr.wvd, scr.seen_s
            psw_owner = self.psw_src
        owner = None
        if first:
            ls = self.psw_src[ga:gb]
            ld = self.psw_dst[ga:gb]
            self.io.bytes_read += (gb - ga) * 16
            vis = visibility(self, self.dm, ls, ld, writer_is_src=dst_side)
            vis_file.write(ga, vis)
            owner = ld if dst_side else ls
        else:
            vis = vis_file.read(ga, gb)
        changed = False
        for f in self.written:
            com = scr.committed[f].read(ga, gb)
            cur = np.where(vis & w[f].read(ga, gb), wv[f].read(ga, gb), com)
            prev = com if first else seen[f].read(ga, gb)
            ch = cur != prev
            moved = bool(ch.any())
            if moved:
                if owner is None:
                    owner = psw_owner[ga:gb]
                    self.io.bytes_read += (gb - ga) * 8
                self.dirty[owner[ch]] = True
                changed = True
            if first or moved:  # else the file already holds ``cur``
                seen[f].write(ga, cur)
        return changed



# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
#: Worker-side phase slots in the shared ``phase_w`` rows, in slot
#: order.  Sweep time lands in ``gather`` (pass 1) / ``repair_pass``
#: (detect + repairs) with the pread/pwrite portion carved out into
#: ``shard_io`` from the worker's own ``IOStats.seconds``.
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

    def __init__(self, link: WorkerLink, store_path, scratch_dir, program,
                 intervals):
        from ..storage.shards import IOStats, ShardStore

        self.link = link
        link.start_fields = {"intervals": len(intervals)}
        store = ShardStore(store_path)
        kernel = resolve_nondet_kernel(program)(program)
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        self.io = IOStats()
        scratch = _Scratch(scratch_dir, field_dtypes, kernel,
                           store.num_edges, io=self.io)
        shm = link.shm
        self.ctrl = shm.array("ctrl")
        self.flags = shm.array("flags")
        self.iostat = shm.array("iostat")
        self.wcount = shm.array("wcount")
        ex = self.ex = _Exec(store, scratch, kernel, intervals, self.io)
        ex.active = shm.array("active")
        ex.dirty = shm.array("dirty")
        ex.thr_v = shm.array("thr_v")
        ex.pi_v = shm.array("pi_v")
        ex.time_v = shm.array("time_v")
        ex.v0 = shm.arrays("v0:")
        ex.vout = shm.arrays("vout:")

    def iterate(self, dm, iteration: int) -> None:
        link, ex = self.link, self.ex
        wid = link.wid
        ex.dm = dm
        clock = _IoClock(self.io) if link.profile else NO_CLOCK
        ex.pass_sweep(ex.active, use_seen=False)
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
            ex.pass_sweep(ex.dirty & ex.active, use_seen=True)
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
    one interval's incident slot ranges in memory.  Obtain one via
    :meth:`ShardStore.nondet_runner` (cached there so supervised
    restarts resume against the same live scratch), or pass the store
    straight to :func:`repro.engine.run`.
    """

    mode = "nondeterministic"

    #: Slots per streaming chunk for canonical gathers/scatters.
    CHUNK = 1 << 20

    def __init__(self, store):
        from ..storage.shards import IOStats

        self.store = store
        self._view = store.graph_view()
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
        sig = _Scratch.signature_of(field_dtypes, kernel,
                                    self.store.num_edges)
        if self._scratch is not None:
            if self._scratch.signature == sig:
                return
            self._teardown_pool()
            self._scratch.close()
            self._scratch = None
        self._scratch = _Scratch(self.store.path + ".scratch", field_dtypes,
                                 kernel, self.store.num_edges, io=self.io)

    def _scatter_canonical(self, fa: FileArray, arr: np.ndarray) -> None:
        """Write a canonical-order ``m``-array into slot order."""
        m = self.store.num_edges
        for a in range(0, m, self.CHUNK):
            b = min(a + self.CHUNK, m)
            eid = np.asarray(self.store.psw_eid[a:b], dtype=np.int64)
            fa.write(a, arr[eid])

    def _gather_canonical(self, field: str) -> np.ndarray:
        """The committed edge array for ``field`` in canonical order."""
        scr = self._scratch
        if scr is None or field not in scr.committed:
            raise KeyError(f"no scratch state for edge field {field!r}")
        m = self.store.num_edges
        out = np.empty(m, dtype=scr.field_dtypes[field])
        fa = scr.committed[field]
        for a in range(0, m, self.CHUNK):
            b = min(a + self.CHUNK, m)
            eid = np.asarray(self.store.psw_eid[a:b], dtype=np.int64)
            out[eid] = fa.read(a, b)
        return out

    def _sync_state(self, state: "_OocState") -> None:
        """Flush cached (possibly caller-mutated) edge arrays to disk."""
        for f, arr in state._edge.items():
            self._scatter_canonical(self._scratch.committed[f], arr)
        state._edge.clear()

    # -- state construction ----------------------------------------------
    def make_state(self, program: VertexProgram) -> _OocState:
        """Initial :class:`State` with edge fields in the scratch files.

        Scalar initializers are streamed (never materializing an
        ``m``-array); callable initializers are materialized once in
        canonical order and scattered to slot order in chunks.
        """
        factory = resolve_nondet_kernel(program)
        if factory is None:
            raise ValueError(
                "out-of-core execution needs a registered vectorized "
                f"kernel; none for {type(program).__name__}"
            )
        kernel = factory(program)
        self._ensure_scratch(program, kernel)
        state = _OocState(self, self._view, program.vertex_fields(),
                          program.edge_fields())
        m = self.store.num_edges
        for f, spec in program.edge_fields().items():
            fa = self._scratch.committed[f]
            if callable(spec.init):
                self._scatter_canonical(fa, spec.materialize(self._view, m))
            elif spec.init == 0:
                fa.zero()
            else:
                chunk = np.full(min(self.CHUNK, max(m, 1)), spec.init,
                                dtype=fa.dtype)
                for a in range(0, m, self.CHUNK):
                    b = min(a + self.CHUNK, m)
                    fa.write(a, chunk[:b - a])
        for group in (self._scratch.seen_s, self._scratch.seen_d,
                      self._scratch.wvs, self._scratch.wvd):
            for fa in group.values():
                fa.zero()
        self._scratch.zero_outputs()
        return state

    # -- pool management --------------------------------------------------
    def _ensure_pool(self, program, state, config, workers):
        """The warm pool if it fits this run, else a fresh one; returns
        ``(pool, reused)``.

        Shares only the ``O(n)`` master state (plan, masks, ``v0``/
        ``vout``) — edge data stays in the scratch files.  Interval
        ownership is a static BLOCK partition, so every scratch slot
        range keeps exactly one writer across workers.
        """
        store = self.store
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
                store.path, self._scratch.directory, program,
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
        """Tear down the worker pool and close the scratch files."""
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
        hence an active shard), each exactly once.
        """
        store, scr, io = self.store, self._scratch, self.io
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
                ls, ld = ex.psw_src[ga:gb], ex.psw_dst[ga:gb]
                io.bytes_read += (gb - ga) * 16
                ep = EdgePlan(plan, dm, ls, ld)
                out = {name: {f: fa.read(ga, gb)
                              for f, fa in getattr(scr, name).items()}
                       for name in OUTPUTS}
                new = {f: scr.committed[f].read(ga, gb) for f in written}
                # ``psw_eid`` stays a lazy view of the map: read only
                # where the recorder wants rows.
                commit_on(bar, ep, ex.psw_eid[ga:gb], written, out, new)
                for f in written:
                    scr.committed[f].write(ga, new[f])
                count_on(bar, ep, written, out)

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
        self._scratch.zero_outputs()

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
                ex.vout = {f: sh["vout:" + f] for f in vfields}
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
                ex.active = plan.active
                ex.dirty = np.zeros(n, dtype=bool)
                ex.thr_v = plan.thr_v
                ex.pi_v = plan.pi_v
                ex.time_v = plan.time_v
                ex.v0 = {f: state.vertex(f) for f in vfields}
                ex.vout = {f: state.vertex(f).copy() for f in vfields}
                ex.pass_sweep(ex.active, use_seen=False)
                clock.lap("gather")
                for r in range(int(plan.ids.size) + 2):
                    ex.dirty[:] = False
                    if not ex.detect_sweep(first=(r == 0)):
                        break
                    ex.pass_sweep(ex.dirty & ex.active, use_seen=True)
                    bar.passes += 1
                else:
                    raise RuntimeError("nondet fix-point failed to converge")
                clock.lap("repair_pass")
            self._finalize(bar, plan, dm, ex, written)
            bar.vout = ex.vout
            self._scratch.zero_outputs()
            state._edge.clear()

        try:
            # A restored checkpoint, a barrier's value faults or caller
            # edits land in the state's cache: ``state_written`` pushes
            # them to the committed files before the next sweep.
            result = run_array(
                program, self._view, config, state, body, label="outofcore",
                extra=extra, observer=observer, telemetry=telemetry,
                record=record, supervisor=supervisor, metrics=metrics,
                state_written=lambda: self._sync_state(state),
                make_clock=lambda: _IoClock(io),
            )
        except BaseException:
            # Leave no pool behind an exceptional exit; a clean return
            # keeps it warm for the next run() on this runner.
            self._teardown_pool()
            raise
        result.extra["io"] = io.as_dict()
        return result
