"""Out-of-core nondeterministic execution over PSW shard stores.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` holds
every edge-indexed array (``committed``, ``seen``, ``ws/wd/wvs/wvd``,
``rs/rd``) fully in memory — ~10 arrays of ``m`` entries, which is what
actually caps the graph scale, not the topology.  This module executes
the *same* racy Defs. 1–3 + Lemma-1/2 model interval-by-interval over a
:class:`~repro.storage.shards.ShardStore`: edge-indexed data lives in
flat scratch files addressed by shard-major slot, and one fix-point pass
touches only the slot ranges incident to the interval it is running —
resident set stays bounded by the largest interval's incident set plus
the ``O(n)`` vertex-indexed arrays.

**Why the interval decomposition is exact.**  The §II scope rule means a
slot's src-side outputs (``ws/wvs/rs``) are written only by the interval
owning ``src[e]`` and its dst-side outputs (``wd/wvd/rd``) only by the
interval owning ``dst[e]`` — the source-sorted sliding windows make
every slot range single-writer across intervals, so a sweep over the
intervals computes exactly the arrays one whole-graph pass would.
Visibility (Defs. 1–3), the Lemma-2 commit rule, and the conflict
accounting are all per-edge predicates of the global dispatch plan,
which is vertex-indexed and in memory; evaluating them on a gathered
slot range is the same arithmetic as evaluating them on the full edge
list.  The chaotic fix-point composes because a *seen* value can only
change on a slot with an active endpoint, and every such slot belongs
to an active interval's shard (dst side) or sliding window (src side) —
the detect sweep covers precisely those.  ``tests/test_outofcore.py``
asserts bit-identity (state, trajectory, per-thread stats, conflict
totals, fix-point pass counts, recorder provenance) against both
in-memory engines per (kernel, seed).

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
persistent pool of OS workers: worker ``w`` owns a contiguous BLOCK of
intervals, so every scratch range keeps a single writer across workers
too.  Only the ``O(n)`` master state (plan, ``v0``/``vout``, active and
dirty masks) is shared through one
:class:`~repro.storage.shm.SharedArrayPool` segment; edge data flows
through the page cache.  The pool survives across ``run()`` calls on
the same (store, program) — ``extra["pool_reused"]`` reports reuse —
and is torn down by :meth:`OutOfCoreNondetRunner.close`, on worker
failure, or at GC.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import threading
import time
import traceback
import weakref
from multiprocessing import connection as mp_connection

import numpy as np

from ..obs.metrics import PhaseClock, peak_rss_bytes, record_iteration_metrics
from ..robust.errors import WorkerDied, WorkerTimeout
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .conflicts import ConflictLog
from .dispatch import plan_arrays
from .frontier import initial_frontier
from .nondet_vectorized import (
    NondetPassContext,
    emit_edge_provenance,
    fallback_reasons,
    resolve_nondet_kernel,
)
from .program import VertexProgram
from .result import IterationStats, RunResult
from .state import State

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

    ``committed.<f>`` is the durable edge state (slot-ordered);
    ``seen_s/seen_d`` carry the detect sweep's materialized views;
    ``ws/wd/wvs/wvd/rs/rd`` are the per-iteration output slots, zeroed
    at every barrier; ``plan.vis_s2d`` / ``plan.vis_d2s`` hold the
    iteration's Defs. 1–3 visibility masks, rewritten by the first
    detect round of every iteration on the slots later rounds read.
    All files live in ``<store path>.scratch/``.
    """

    def __init__(self, directory: str, field_dtypes: dict, written: tuple,
                 m: int, io=None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.field_dtypes = {f: np.dtype(dt) for f, dt in field_dtypes.items()}
        self.written = tuple(written)
        self.m = int(m)

        def fa(name, dtype):
            return FileArray(os.path.join(directory, name), dtype, m, io=io)

        self.committed = {f: fa(f + ".committed", dt)
                          for f, dt in self.field_dtypes.items()}
        self.rs = {f: fa(f + ".rs", np.int8) for f in self.field_dtypes}
        self.rd = {f: fa(f + ".rd", np.int8) for f in self.field_dtypes}
        self.seen_s = {f: fa(f + ".seen_s", self.field_dtypes[f])
                       for f in self.written}
        self.seen_d = {f: fa(f + ".seen_d", self.field_dtypes[f])
                       for f in self.written}
        self.ws = {f: fa(f + ".ws", np.bool_) for f in self.written}
        self.wd = {f: fa(f + ".wd", np.bool_) for f in self.written}
        self.wvs = {f: fa(f + ".wvs", self.field_dtypes[f])
                    for f in self.written}
        self.wvd = {f: fa(f + ".wvd", self.field_dtypes[f])
                    for f in self.written}
        self.vis_s2d = fa("plan.vis_s2d", np.bool_)
        self.vis_d2s = fa("plan.vis_d2s", np.bool_)

    def signature(self) -> tuple:
        return (tuple(sorted((f, dt.str) for f, dt in self.field_dtypes.items())),
                tuple(self.written), self.m)

    def _all_files(self):
        for group in (self.committed, self.rs, self.rd, self.seen_s,
                      self.seen_d, self.ws, self.wd, self.wvs, self.wvd):
            yield from group.values()
        yield self.vis_s2d
        yield self.vis_d2s

    def zero_outputs(self) -> None:
        """Zero the per-iteration output slots (ws/wd/rs/rd)."""
        for group in (self.ws, self.wd, self.rs, self.rd):
            for f in group.values():
                f.zero()

    def close(self) -> None:
        for f in self._all_files():
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


# ----------------------------------------------------------------------
# vertex-indexed dispatch plan (PlanCache minus the edge gathers)
# ----------------------------------------------------------------------
class _VertexPlanCache:
    """Frontier-cached dispatch plan holding only ``O(n)`` arrays.

    Consumes the jitter stream at exactly the positions
    :class:`~repro.engine.nondet_vectorized.PlanCache` would — cache
    hits redraw only the per-task times, misses call
    :func:`~repro.engine.dispatch.plan_arrays` — so the out-of-core
    execution shares the in-memory engines' plan bit for bit.
    """

    def __init__(self, n: int, p: int, *, policy, jitter: float, rng):
        self.n, self.p = int(n), int(p)
        self.policy = policy
        self.jitter = jitter
        self.rng = rng
        self.hits = 0
        self._ids: np.ndarray | None = None
        self.thr_v = np.full(self.n, -1, dtype=np.int64)
        self.pi_v = np.zeros(self.n, dtype=np.int64)
        self.time_v = np.zeros(self.n, dtype=np.float64)
        self.active = np.zeros(self.n, dtype=bool)

    def plan(self, active_ids: np.ndarray, dm) -> "_VertexPlanCache":
        ids = np.asarray(active_ids, dtype=np.int64)
        hit = (
            self._ids is not None
            and ids.size == self._ids.size
            and bool(np.array_equal(ids, self._ids))
        )
        if hit:
            self.hits += 1
            if self.jitter > 0:
                self.time_a = self.pi_a + self.rng.uniform(
                    0.0, self.jitter, size=int(ids.size))
                self.time_v[self._ids] = self.time_a
        else:
            if self._ids is not None:
                old = self._ids
                self.thr_v[old] = -1
                self.pi_v[old] = 0
                self.time_v[old] = 0.0
                self.active[old] = False
            self._ids = ids.copy()
            self.thr_a, self.pi_a, self.time_a = plan_arrays(
                ids, self.p, policy=self.policy, jitter=self.jitter,
                rng=self.rng,
            )
            self.thr_v[ids] = self.thr_a
            self.pi_v[ids] = self.pi_a
            self.time_v[ids] = self.time_a
            self.active[ids] = True
        self.dm = dm
        return self


class _Pred:
    """Defs. 1–3 visibility + execution order on one gathered slot range."""

    __slots__ = ("vis_s2d", "vis_d2s", "lex_sd", "lex_ds", "dt",
                 "dst_wins", "thr_s", "thr_d", "t_s", "t_d")


def _pair(thr_v, active, dm, ls, ld):
    """Per-slot terms both visibility directions share."""
    thr_s, thr_d = thr_v[ls], thr_v[ld]
    both = active[ls] & active[ld] & (ls != ld)
    same = thr_s == thr_d
    d_pair = dm.intra if dm.is_uniform else dm.delays(thr_s, thr_d)
    return thr_s, thr_d, both, same, d_pair


def _visible(both, same, d_pair, pi_w, pi_r, t_w, t_r) -> np.ndarray:
    """Defs. 1–3: the writer's same-iteration write reaches the reader."""
    return both & np.where(same, pi_w < pi_r, (t_r - t_w) >= d_pair)


def _visibility(thr_v, pi_v, time_v, active, dm, ls, ld,
                writer_is_src: bool) -> np.ndarray:
    """:func:`_edge_predicates`' ``vis_s2d`` (or ``vis_d2s``) alone —
    the one mask a detect sweep needs on a slot range."""
    _, _, both, same, d_pair = _pair(thr_v, active, dm, ls, ld)
    w, r = (ls, ld) if writer_is_src else (ld, ls)
    return _visible(both, same, d_pair, pi_v[w], pi_v[r],
                    time_v[w], time_v[r])


def _edge_predicates(thr_v, pi_v, time_v, active, dm, ls, ld) -> _Pred:
    pr = _Pred()
    thr_s, thr_d, both, same, d_pair = _pair(thr_v, active, dm, ls, ld)
    pi_s, pi_d = pi_v[ls], pi_v[ld]
    t_s, t_d = time_v[ls], time_v[ld]
    pi_sd = pi_s < pi_d
    pr.vis_s2d = _visible(both, same, d_pair, pi_s, pi_d, t_s, t_d)
    pr.vis_d2s = _visible(both, same, d_pair, pi_d, pi_s, t_d, t_s)
    pr.lex_sd = both & (
        (t_s < t_d)
        | ((t_s == t_d) & (pi_sd | ((pi_s == pi_d) & (thr_s < thr_d))))
    )
    pr.lex_ds = both & ~pr.lex_sd
    pr.dt = both & ~same
    pr.dst_wins = (t_d > t_s) | ((t_d == t_s) & (ld > ls))
    pr.thr_s, pr.thr_d = thr_s, thr_d
    pr.t_s, pr.t_d = t_s, t_d
    return pr


# ----------------------------------------------------------------------
# sweep executor (shared by the single-process master and the workers)
# ----------------------------------------------------------------------
class _Exec:
    """Everything one sweep needs over one set of owned intervals."""

    __slots__ = ("store", "scratch", "kernel", "written", "efields",
                 "n", "p", "dm", "active", "dirty", "thr_v", "pi_v",
                 "time_v", "v0", "vout", "out_degrees", "io", "intervals",
                 "_layouts")

    def __init__(self, store, scratch, kernel, intervals, io):
        self.store = store
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

    def _topo(self, memmap_arr, parts, total) -> np.ndarray:
        out = np.empty(total, dtype=np.int64)
        for ga, gb, la in parts:
            out[la:la + gb - ga] = memmap_arr[ga:gb]
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
            ls = self._topo(self.store.psw_src, parts, total)
            ld = self._topo(self.store.psw_dst, parts, total)
            ctx = NondetPassContext.__new__(NondetPassContext)
            ctx.graph = None
            ctx.src, ctx.dst = ls, ld
            ctx.n, ctx.m = self.n, total
            ctx.selfloop = ls == ld
            # Local slot order is the float kernels' accumulation order:
            # this interval's in-edges all live in shard k, whose slots
            # are sorted by (src, canonical id) — per destination, the
            # global CSC order.
            ctx.out_degrees = self.out_degrees
            ctx.active = self.active
            ctx.committed = {f: self._gather(scr.committed[f], parts, total)
                             for f in self.efields}
            ctx.v0 = self.v0
            ctx.vout = self.vout
            ctx.seen_s = dict(ctx.committed)
            ctx.seen_d = dict(ctx.committed)
            if use_seen:
                for f in self.written:
                    ctx.seen_s[f] = self._gather(scr.seen_s[f], parts, total)
                    ctx.seen_d[f] = self._gather(scr.seen_d[f], parts, total)
            # Outputs are gathered only on the ranges written back below
            # (src side on the windows, dst side on the shard): the kernel
            # writes nowhere else, and never reads them.
            dst_parts = [dst_block] if dst_block is not None else []
            ctx.ws = self._gather_owned(scr.ws, src_parts, total)
            ctx.wvs = self._gather_owned(scr.wvs, src_parts, total)
            ctx.rs = self._gather_owned(scr.rs, src_parts, total)
            ctx.wd = self._gather_owned(scr.wd, dst_parts, total)
            ctx.wvd = self._gather_owned(scr.wvd, dst_parts, total)
            ctx.rd = self._gather_owned(scr.rd, dst_parts, total)
            # Restrict the recompute set to the interval's own vertices:
            # only they see their full incidence in this slice.  A
            # foreign source on a shard-k edge is recomputed by *its*
            # interval (whose windows hold all its out-edges), which
            # also keeps ``vout`` single-writer across intervals and
            # across pool workers.
            lo, hi = self.store.interval(k)
            sub_k = np.zeros(self.n, dtype=bool)
            sub_k[lo:hi] = sub[lo:hi]
            self.kernel.run_pass(ctx, sub_k)
            self.io.interval_loads += 1
            # Scatter back only the slot ranges this interval owns: the
            # dst side of its shard, the src side of its windows.  The
            # unwritten positions inside those ranges carry the gathered
            # file values, so full-range writes are value-preserving.
            for ga, gb, la in dst_parts:
                lb = la + gb - ga
                for f in self.written:
                    scr.wd[f].write(ga, ctx.wd[f][la:lb])
                    scr.wvd[f].write(ga, ctx.wvd[f][la:lb])
                for f in self.efields:
                    scr.rd[f].write(ga, ctx.rd[f][la:lb])
            for ga, gb, la in src_parts:
                lb = la + gb - ga
                for f in self.written:
                    scr.ws[f].write(ga, ctx.ws[f][la:lb])
                    scr.wvs[f].write(ga, ctx.wvs[f][la:lb])
                for f in self.efields:
                    scr.rs[f].write(ga, ctx.rs[f][la:lb])

    # -- detect sweep ----------------------------------------------------
    def detect_sweep(self, first: bool) -> bool:
        """Materialize seen values, mark dirty vertices; True if changed.

        Covers the dst side of every active shard and the src side of
        every active interval's windows — exactly the slots whose seen
        value can change (a change needs a visible fresh write, which
        needs both endpoints active).  ``first`` compares against the
        committed snapshot (round 1 of an iteration); later rounds
        compare against the previous round's seen files.
        """
        changed = False
        for k in self.active_intervals(self.active):
            _, _, dst_block, src_parts = self.layout(k)
            if dst_block is not None:
                changed |= self._detect_range(
                    dst_block[0], dst_block[1], first, dst_side=True)
            for ga, gb, _ in src_parts:
                changed |= self._detect_range(ga, gb, first, dst_side=False)
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
        scr, store = self.scratch, self.store
        if dst_side:
            vis_file, w, wv, seen = scr.vis_s2d, scr.ws, scr.wvs, scr.seen_d
            psw_owner = store.psw_dst
        else:
            vis_file, w, wv, seen = scr.vis_d2s, scr.wd, scr.wvd, scr.seen_s
            psw_owner = store.psw_src
        owner = None
        if first:
            ls = np.asarray(store.psw_src[ga:gb], dtype=np.int64)
            ld = np.asarray(store.psw_dst[ga:gb], dtype=np.int64)
            self.io.bytes_read += (gb - ga) * 16
            vis = _visibility(self.thr_v, self.pi_v, self.time_v,
                              self.active, self.dm, ls, ld,
                              writer_is_src=dst_side)
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
                    owner = np.asarray(psw_owner[ga:gb], dtype=np.int64)
                    self.io.bytes_read += (gb - ga) * 8
                self.dirty[owner[ch]] = True
                changed = True
            if first or moved:  # else the file already holds ``cur``
                seen[f].write(ga, cur)
        return changed


# ----------------------------------------------------------------------
# process backend
# ----------------------------------------------------------------------
_CMD_PASS1 = 1
_CMD_DETECT = 2
_CMD_REPAIR = 3


def _pool_watch(stop_event, barrier, sentinels) -> None:
    """Abort the barrier the moment any worker dies unexpectedly.

    Module-level on purpose: the watcher thread must hold no reference
    to the runner, or refcount GC (and with it the pool finalizer)
    never fires for runner-created temporaries.
    """
    while not stop_event.is_set():
        ready = mp_connection.wait(sentinels, timeout=0.2)
        if stop_event.is_set():
            return
        if ready:
            try:
                barrier.abort()
            except Exception:  # pragma: no cover
                pass
            return


#: Worker-side phase slots in the shared ``phase_w`` rows, in slot
#: order.  Sweep time lands in ``gather`` (pass 1) / ``repair_pass``
#: (detect + repairs) with the pread/pwrite portion carved out into
#: ``shard_io`` from the worker's own ``IOStats.seconds``.
_OOC_WPHASES = ("gather", "repair_pass", "barrier_wait", "shard_io")


def _ooc_worker_main(wid, seg_name, layout, store_path, scratch_dir,
                     program, intervals, conn, barrier, barrier_timeout):
    """OS-process entry point: sweeps over this worker's intervals.

    The worker idles in a pipe poll between iterations (so a persistent
    pool costs nothing while the master is between ``run()`` calls and
    an orphan notices the reparent), and is barrier-paced *within* an
    iteration: command words live in the shared ``ctrl`` block.

    When the master ships a profiling tuple ``(enabled, trace_dir,
    run_id)`` with the iteration message, the worker runs a
    :class:`PhaseClock` over the sweeps, publishes its per-iteration
    phase row into the single-writer ``phase_w`` block before barrier C
    (so the master folds it with the flags), and — when ``trace_dir``
    is set — appends a ``worker_span`` record to its own JSONL segment.
    Profiling is pure timing: no branch of the sweep code depends on
    it, so profiled runs stay bit-identical.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # master owns ^C
    except (ValueError, OSError):  # pragma: no cover
        pass
    ppid = os.getppid()
    pool = None
    seg_fh = None
    try:
        from ..storage.shards import IOStats, ShardStore

        store = ShardStore(store_path)
        kernel = resolve_nondet_kernel(program)(program)
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        wio = IOStats()
        scratch = _Scratch(scratch_dir, field_dtypes,
                           tuple(kernel.written_fields), store.num_edges,
                           io=wio)
        pool = SharedArrayPool.attach(seg_name, layout)
        ctrl = pool.array("ctrl")
        flags = pool.array("flags")
        iostat = pool.array("iostat")
        phase_w = pool.array("phase_w")
        wcount = pool.array("wcount")
        ex = _Exec(store, scratch, kernel, intervals, wio)
        ex.active = pool.array("active")
        ex.dirty = pool.array("dirty")
        ex.thr_v = pool.array("thr_v")
        ex.pi_v = pool.array("pi_v")
        ex.time_v = pool.array("time_v")
        ex.v0 = pool.arrays("v0:")
        ex.vout = pool.arrays("vout:")
        ex.dm = None
        epoch = 0
        prof_key = None
        trace_dir = None
        while True:
            while not conn.poll(1.0):
                if os.getppid() != ppid:
                    return
            msg = conn.recv()
            if msg[0] == "stop":
                return
            if msg[1] is not None:  # delay model shipped only on change
                ex.dm = msg[1]
            iteration = int(msg[2]) if len(msg) > 2 else 0
            prof = msg[3] if len(msg) > 3 else None
            clock = None
            if prof is not None and prof[0]:
                if prof_key != (prof[1], prof[2]):
                    # New run (or a redirected trace dir): fresh barrier
                    # epoch and a fresh segment file on a warm pool.
                    if seg_fh is not None:
                        seg_fh.close()
                        seg_fh = None
                    prof_key = (prof[1], prof[2])
                    trace_dir = prof[1]
                    epoch = 0
                clock = PhaseClock()
            sweeps = 0
            io_seen = wio.seconds

            def lap_io(phase):
                # Lap, then carve the pread/pwrite seconds accumulated
                # during it out into the dedicated shard_io phase.
                nonlocal io_seen
                clock.lap(phase)
                clock.split(phase, "shard_io", wio.seconds - io_seen)
                io_seen = wio.seconds

            # One iteration: PASS1 now, then barrier-paced rounds.
            if clock is not None:
                clock.start()
            ex.pass_sweep(ex.active, use_seen=False)
            sweeps += 1
            if clock is not None:
                lap_io("gather")
            barrier.wait(barrier_timeout)       # A: pass-1 writes durable
            epoch += 1
            if clock is not None:
                clock.lap("barrier_wait")
            while True:
                barrier.wait(barrier_timeout)   # B: dirty/flags cleared
                epoch += 1
                if clock is not None:
                    clock.lap("barrier_wait")
                first = bool(ctrl[1])
                changed = ex.detect_sweep(first)
                flags[wid] = 1 if changed else 0
                # Publish cumulative I/O counters (single-writer row);
                # barrier C orders the write before the master's fold.
                iostat[wid, 0] = ex.io.bytes_read
                iostat[wid, 1] = ex.io.bytes_written
                iostat[wid, 2] = ex.io.interval_loads
                if clock is not None:
                    # Phase row published before every C: the last write
                    # before the final C is what the master folds (the C
                    # wait itself ends the measured window, as in the
                    # in-memory process backend).
                    lap_io("repair_pass")
                    for k, name in enumerate(_OOC_WPHASES):
                        phase_w[wid, k] = clock.acc.get(name, 0.0)
                    wcount[wid] = sweeps
                barrier.wait(barrier_timeout)   # C: flags posted
                epoch += 1
                if not flags.any():
                    break
                if clock is not None:
                    clock.lap("barrier_wait")  # the C wait, non-final round
                ex.pass_sweep(ex.dirty & ex.active, use_seen=True)
                sweeps += 1
                if clock is not None:
                    lap_io("repair_pass")
                barrier.wait(barrier_timeout)   # D: repair writes durable
                epoch += 1
                if clock is not None:
                    clock.lap("barrier_wait")
            if clock is not None and trace_dir:
                phases = {k: v for k, v in clock.drain().items() if v > 0}
                if seg_fh is None:
                    seg_fh = open(
                        os.path.join(trace_dir, f"worker-{wid}.jsonl"),
                        "w", encoding="utf-8")
                    json.dump({"type": "event", "name": "worker_start",
                               "worker": wid, "pid": os.getpid(),
                               "intervals": len(intervals)},
                              seg_fh, separators=(",", ":"))
                    seg_fh.write("\n")
                json.dump({"type": "worker_span", "worker": wid,
                           "iteration": iteration, "epoch": epoch,
                           "phases": phases, "sweeps": sweeps,
                           "owned": len(intervals)},
                          seg_fh, separators=(",", ":"))
                seg_fh.write("\n")
                seg_fh.flush()
    except threading.BrokenBarrierError:
        return  # master aborted (timeout, shutdown, or a sibling died)
    except (EOFError, OSError):
        return  # master side of the pipe went away
    except Exception:  # pragma: no cover - exercised via chaos tests
        try:
            conn.send(("error", wid, traceback.format_exc()))
        except Exception:
            pass
        try:
            barrier.abort()
        except Exception:
            pass
    finally:
        if seg_fh is not None:
            try:
                seg_fh.close()
            except Exception:  # pragma: no cover
                pass
        if pool is not None:
            pool.release_views()
            pool.close()


def _destroy_pool(procs, conns, barrier, shm_pool, arrays, stop_event):
    """Last-resort teardown (weakref.finalize target: no pool ref)."""
    stop_event.set()
    for conn in conns:
        try:
            conn.send(("stop", None))
        except Exception:
            pass
    try:
        barrier.abort()
    except Exception:
        pass
    for proc in procs:
        proc.join(timeout=5.0)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - last resort
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    arrays.clear()  # drop numpy views pinning the segment
    shm_pool.close()


class _OocPool:
    """A persistent set of interval workers over one shm segment.

    Shares only the ``O(n)`` master state (plan, masks, ``v0``/``vout``)
    — edge data stays in the scratch files.  Interval ownership is a
    static BLOCK partition, so every scratch slot range keeps exactly
    one writer across workers.
    """

    def __init__(self, store, scratch, program, state, workers: int,
                 timeout: float | None):
        n = store.num_vertices
        K = store.num_intervals
        self.workers = workers
        self.timeout = None if timeout is None else float(timeout)
        specs: dict[str, tuple[tuple[int, ...], object]] = {
            "active": ((n,), np.bool_),
            "dirty": ((n,), np.bool_),
            "thr_v": ((n,), np.int64),
            "pi_v": ((n,), np.int64),
            "time_v": ((n,), np.float64),
            "flags": ((workers,), np.uint8),
            "ctrl": ((4,), np.int64),
            "iostat": ((workers, 3), np.int64),
            # Single-writer per-worker profiling rows, folded by the
            # master after barrier C exactly like ``iostat`` (zeroed by
            # the master at publish time, so they are per-iteration).
            "phase_w": ((workers, len(_OOC_WPHASES)), np.float64),
            "wcount": ((workers,), np.int64),
        }
        for f in state.vertex_field_names:
            dt = state.vertex(f).dtype
            specs["v0:" + f] = ((n,), dt)
            specs["vout:" + f] = ((n,), dt)
        self.layout = ArrayLayout.build(specs)
        self.shm = SharedArrayPool.create(self.layout)
        self.arrays = {name: self.shm.array(name)
                       for name in self.layout.names()}
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        self.barrier = ctx.Barrier(workers + 1)
        worker_timeout = (
            None if self.timeout is None else self.timeout * 4 + 30.0
        )
        self.procs: list = []
        self.conns: list = []
        self._stop_event = threading.Event()
        try:
            for w in range(workers):
                my = [k for k in range(K)
                      if w * K // workers <= k < (w + 1) * K // workers]
                parent, child = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_ooc_worker_main,
                    name=f"repro-ooc-worker-{w}",
                    args=(w, self.shm.name, self.layout, store.path,
                          scratch.directory, program, my, child,
                          self.barrier, worker_timeout),
                    daemon=True,
                )
                proc.start()
                child.close()
                self.procs.append(proc)
                self.conns.append(parent)
        except BaseException:
            _destroy_pool(self.procs, self.conns, self.barrier, self.shm,
                          self.arrays, self._stop_event)
            raise
        self._watcher = threading.Thread(
            target=_pool_watch, name="repro-ooc-watcher", daemon=True,
            args=(self._stop_event, self.barrier,
                  [p.sentinel for p in self.procs]))
        self._watcher.start()
        self._finalizer = weakref.finalize(
            self, _destroy_pool, self.procs, self.conns, self.barrier,
            self.shm, self.arrays, self._stop_event)
        self.last_dm = None
        self._io_seen = np.zeros((workers, 3), dtype=np.int64)

    def sync(self) -> None:
        """One master barrier step (raises BrokenBarrierError on loss)."""
        self.barrier.wait(self.timeout)

    def fold_io(self, io) -> None:
        """Fold worker-side I/O into ``io`` (delta vs the last fold, so
        reuse of a warm pool across ``run()`` calls stays correct)."""
        cur = self.arrays["iostat"].copy()
        delta = cur - self._io_seen
        self._io_seen = cur
        io.bytes_read += int(delta[:, 0].sum())
        io.bytes_written += int(delta[:, 1].sum())
        io.interval_loads += int(delta[:, 2].sum())

    def begin_iteration(self, dm, iteration: int = 0, prof=None) -> None:
        payload = dm if dm != self.last_dm else None
        if payload is not None:
            self.last_dm = dm
        for conn in self.conns:
            conn.send(("iter", payload, iteration, prof))

    def worker_phases(self) -> list[dict[str, float]]:
        """Per-worker phase dicts for the iteration just folded."""
        rows = self.arrays["phase_w"]
        return [
            {name: float(rows[w, k])
             for k, name in enumerate(_OOC_WPHASES) if rows[w, k] > 0}
            for w in range(self.workers)
        ]

    def failure(self, iteration: int):
        """Classify a broken barrier into WorkerDied/WorkerTimeout."""
        errors: list[tuple[int, str]] = []
        for w, conn in enumerate(self.conns):
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg and msg[0] == "error":
                        errors.append((w, msg[2]))
            except (EOFError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=0.2)
        dead = [w for w, proc in enumerate(self.procs)
                if not proc.is_alive()]
        if errors:
            wid, tb = errors[0]
            return WorkerDied(
                f"out-of-core worker {wid} raised at iteration "
                f"{iteration}:\n{tb}",
                iteration=iteration, workers=tuple(w for w, _ in errors))
        if dead:
            abnormal = [w for w in dead if self.procs[w].exitcode != 0]
            culprits = abnormal or dead
            codes = {w: self.procs[w].exitcode for w in culprits}
            return WorkerDied(
                f"out-of-core worker(s) {culprits} died at iteration "
                f"{iteration} (exit codes {codes})",
                iteration=iteration, workers=tuple(culprits))
        return WorkerTimeout(
            f"out-of-core workers failed to reach the barrier within "
            f"{self.timeout}s at iteration {iteration}",
            iteration=iteration, stuck=tuple(range(len(self.procs))))

    @property
    def alive(self) -> bool:
        return (self._finalizer.alive
                and all(proc.is_alive() for proc in self.procs))

    def close(self) -> None:
        if not self._finalizer.alive:
            return
        self._stop_event.set()
        for conn in self.conns:
            try:
                conn.send(("stop", None))
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=5.0)
        self._watcher.join(timeout=2.0)
        self._finalizer()


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
        self._pool: _OocPool | None = None
        self._pool_key = None
        # Monotone per-run id shipped to pool workers with the profiling
        # tuple: a warm pool resets its barrier epoch and reopens its
        # trace segment when the id changes.
        self._run_counter = 0

    # -- scratch management ---------------------------------------------
    def _ensure_scratch(self, program: VertexProgram, kernel) -> None:
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        written = tuple(kernel.written_fields)
        sig = (tuple(sorted((f, dt.str) for f, dt in field_dtypes.items())),
               written, self.store.num_edges)
        if self._scratch is not None:
            if self._scratch.signature() == sig:
                return
            self._teardown_pool()
            self._scratch.close()
            self._scratch = None
        self._scratch = _Scratch(self.store.path + ".scratch", field_dtypes,
                                 written, self.store.num_edges, io=self.io)

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
    @staticmethod
    def _program_sig(program: VertexProgram) -> tuple:
        items = []
        for k in sorted(vars(program)):
            v = vars(program)[k]
            if isinstance(v, np.ndarray):
                items.append((k, v.dtype.str, v.shape, hash(v.tobytes())))
            else:
                items.append((k, repr(v)))
        return (type(program), tuple(items))

    def _ensure_pool(self, program, state, config, workers):
        key = (self._program_sig(program), workers, config.worker_timeout_s,
               tuple(state.vertex_field_names),
               tuple(state.vertex(f).dtype.str
                     for f in state.vertex_field_names))
        if (self._pool is not None and self._pool.alive
                and self._pool_key == key):
            return self._pool, True
        self._teardown_pool()
        self._pool = _OocPool(self.store, self._scratch, program, state,
                              workers, config.worker_timeout_s)
        self._pool_key = key
        return self._pool, False

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
            self._pool_key = None

    def close(self) -> None:
        """Tear down the worker pool and close the scratch files."""
        self._teardown_pool()
        if self._scratch is not None:
            self._scratch.close()
            self._scratch = None

    # -- commit barrier ---------------------------------------------------
    def _finalize(self, plan, dm, log, record, iteration, p, written,
                  efields):
        """Lemma-2 commits + conflict/stat accounting, master side.

        Sweeps each shard once: active shards in full, inactive shards
        only through the sliding windows of active intervals — together
        exactly the slots that can hold a nonzero output (a src-side
        output implies an active source, hence an active window; a
        dst-side output implies an active destination, hence an active
        shard), each exactly once.
        """
        store, scr, io = self.store, self._scratch, self.io
        K = store.num_intervals
        n = store.num_vertices
        acts = []
        for k in range(K):
            lo, hi = store.interval(k)
            if plan.active[lo:hi].any():
                acts.append(k)
        act_set = set(acts)
        next_mask = np.zeros(n, dtype=bool)
        conf = {f: [0, 0, 0, 0] for f in written}
        reads_acc = {(f, side): np.zeros(p, dtype=np.float64)
                     for f in efields for side in (0, 1)}
        writes_t = np.zeros(p, dtype=np.int64)
        prov: dict[str, list] | None = (
            {f: [] for f in written} if record is not None else None)
        for j in range(K):
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
                ls = np.asarray(store.psw_src[ga:gb], dtype=np.int64)
                ld = np.asarray(store.psw_dst[ga:gb], dtype=np.int64)
                io.bytes_read += (gb - ga) * 16
                pr = _edge_predicates(plan.thr_v, plan.pi_v, plan.time_v,
                                      plan.active, dm, ls, ld)
                rs_all = {f: scr.rs[f].read(ga, gb) for f in efields}
                rd_all = {f: scr.rd[f].read(ga, gb) for f in efields}
                for f in written:
                    ws = scr.ws[f].read(ga, gb)
                    wd = scr.wd[f].read(ga, gb)
                    wvs = scr.wvs[f].read(ga, gb)
                    wvd = scr.wvd[f].read(ga, gb)
                    rs, rd = rs_all[f], rd_all[f]
                    com = scr.committed[f].read(ga, gb)
                    if prov is not None:
                        sel = ws | wd
                        if sel.any():
                            eid = np.asarray(store.psw_eid[ga:gb],
                                             dtype=np.int64)
                            prov[f].append({
                                "eid": eid[sel], "u": ls[sel], "v": ld[sel],
                                "selfloop": (ls == ld)[sel],
                                "ws": ws[sel], "wd": wd[sel],
                                "wvs": wvs[sel], "wvd": wvd[sel],
                                "rs": rs[sel], "rd": rd[sel],
                                "pre": com[sel],
                                "vis_s2d": pr.vis_s2d[sel],
                                "vis_d2s": pr.vis_d2s[sel],
                                "dst_wins": pr.dst_wins[sel],
                                "t_s": pr.t_s[sel], "t_d": pr.t_d[sel],
                                "thr_s": pr.thr_s[sel],
                                "thr_d": pr.thr_d[sel],
                            })
                    new = com  # fresh read; safe to commit in place
                    only = ws & ~wd
                    new[only] = wvs[only]
                    only = wd & ~ws
                    new[only] = wvd[only]
                    both_w = ws & wd
                    sel2 = both_w & pr.dst_wins
                    new[sel2] = wvd[sel2]
                    sel2 = both_w & ~pr.dst_wins
                    new[sel2] = wvs[sel2]
                    scr.committed[f].write(ga, new)
                    # Task-generation rule: a written edge schedules the
                    # far endpoint.
                    next_mask[ld[ws]] = True
                    next_mask[ls[wd]] = True
                    dt = pr.dt
                    c = conf[f]
                    c[0] += int(rs[wd & dt].sum()) + int(rd[ws & dt].sum())
                    ww_mask = both_w & dt
                    c[1] += int(np.count_nonzero(ww_mask))
                    c[2] += int(np.count_nonzero(
                        ((rs > 0) & wd & dt) | ((rd > 0) & ws & dt) | ww_mask
                    ))
                    c[3] += int(rs[wd & pr.lex_ds & ~pr.vis_d2s].sum())
                    c[3] += int(rd[ws & pr.lex_sd & ~pr.vis_s2d].sum())
                    writes_t += np.bincount(pr.thr_s[ws], minlength=p)
                    writes_t += np.bincount(pr.thr_d[wd], minlength=p)
                for f in efields:
                    for counts, thr_e, side in ((rs_all[f], pr.thr_s, 0),
                                                (rd_all[f], pr.thr_d, 1)):
                        mask = counts > 0
                        if mask.any():
                            reads_acc[(f, side)] += np.bincount(
                                thr_e[mask],
                                weights=counts[mask].astype(np.float64),
                                minlength=p)
        for f in written:
            rw, ww, cont, stale = conf[f]
            log.read_write += rw
            log.write_write += ww
            log.contended_edges += cont
            log.lost_writes += ww
            log.stale_reads += stale
            if rw + ww:
                log.per_iteration[iteration] += rw + ww
        reads_t = np.zeros(p, dtype=np.int64)
        for f in efields:
            for side in (0, 1):
                reads_t += reads_acc[(f, side)].astype(np.int64)
        if record is not None:
            self._emit(record, prov, iteration, written)
        return next_mask, reads_t, writes_t

    @staticmethod
    def _emit(record, prov, iteration, written) -> None:
        """Replay the canonical provenance stream from slot-order tuples."""
        wants_reads = record.wants_reads
        for f in sorted(written):
            chunks = prov[f]
            if not chunks:
                continue
            cat = {k: np.concatenate([c[k] for c in chunks])
                   for k in chunks[0]}
            for i in np.argsort(cat["eid"], kind="stable"):
                emit_edge_provenance(
                    record, iteration, f, int(cat["eid"][i]),
                    u=int(cat["u"][i]), v=int(cat["v"][i]),
                    selfloop=bool(cat["selfloop"][i]),
                    ws=bool(cat["ws"][i]), wd=bool(cat["wd"][i]),
                    wvs=float(cat["wvs"][i]), wvd=float(cat["wvd"][i]),
                    rs=int(cat["rs"][i]), rd=int(cat["rd"][i]),
                    pre=float(cat["pre"][i]),
                    vis_s2d=bool(cat["vis_s2d"][i]),
                    vis_d2s=bool(cat["vis_d2s"][i]),
                    dst_wins=bool(cat["dst_wins"][i]),
                    t_s=float(cat["t_s"][i]), t_d=float(cat["t_d"][i]),
                    thr_s=int(cat["thr_s"][i]), thr_d=int(cat["thr_d"][i]),
                    wants_reads=wants_reads,
                )

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
        reasons = fallback_reasons(program, config)
        if reasons:
            raise ValueError(
                "program/config not eligible for the out-of-core "
                "nondeterministic runner (it executes the vectorized "
                "kernels): " + "; ".join(reasons)
            )
        if backend not in (None, "", "process"):
            raise ValueError(
                f"unknown backend {backend!r} for the out-of-core runner; "
                "use 'process' or None"
            )
        use_pool = backend == "process"
        sink = telemetry
        if sink is not None:
            sink.begin_engine_run(self.mode, program, config)
        if record is not None:
            record.begin_engine_run(self.mode, program, config)
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
        efields = tuple(state.edge_field_names)
        vfields = tuple(state.vertex_field_names)
        p = config.threads
        delay_model = config.effective_delay_model()
        jitter_rng = (
            np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
            if config.jitter > 0 else None
        )
        io = self.io
        io.bytes_read = 0
        io.bytes_written = 0
        io.interval_loads = 0
        io.seconds = 0.0

        log = ConflictLog(keep_events=config.keep_conflict_events)
        stats: list[IterationStats] = []
        frontier_ids = initial_frontier(program, self._view).sorted_vertices()
        iteration = 0
        if supervisor is not None:
            rngs = {"jitter": jitter_rng} if jitter_rng is not None else {}
            iteration, frontier_ids = supervisor.engine_start(
                self.mode, program, config, state=state,
                frontier=frontier_ids, rngs=rngs, conflicts=log)
        # A restored checkpoint (or caller edits) lands in the state's
        # cache; push it to the committed files before sweeping, and
        # clear any outputs left behind by an aborted run.
        self._sync_state(state)
        self._scratch.zero_outputs()

        converged = False
        total_passes = 0
        plan_cache = _VertexPlanCache(n, p, policy=config.dispatch,
                                      jitter=config.jitter, rng=jitter_rng)
        workers = max(1, min(p, K))
        pool = None
        pool_reused = False
        ex = _Exec(store, self._scratch, kernel, list(range(K)), io)
        # Phase attribution is pure timing — no branch of the sweep or
        # commit code depends on it — so profiled runs stay bit-identical
        # to bare ones.
        self._run_counter += 1
        profile_on = sink is not None or metrics is not None
        worker_dir = getattr(sink, "worker_dir", None)
        if worker_dir is not None:
            os.makedirs(worker_dir, exist_ok=True)
        prof = ((True, worker_dir, self._run_counter)
                if profile_on and use_pool else None)
        clock = PhaseClock() if profile_on else None
        epoch = 0
        io_seen = io.seconds

        def lap_io(phase):
            # Lap, then carve the pread/pwrite seconds accumulated
            # during it out into the dedicated shard_io phase.
            nonlocal io_seen
            clock.lap(phase)
            clock.split(phase, "shard_io", io.seconds - io_seen)
            io_seen = io.seconds

        try:
            while iteration < config.max_iterations:
                if frontier_ids.size == 0:
                    converged = True
                    break
                if use_pool and pool is None:
                    pool, pool_reused = self._ensure_pool(
                        program, state, config, workers)
                if supervisor is not None:
                    supervisor.pre_iteration(iteration)
                    dm_i = supervisor.iteration_delay_model(
                        iteration, delay_model) or delay_model
                else:
                    dm_i = delay_model
                t0 = time.perf_counter() if clock is not None else 0.0
                if clock is not None:
                    clock.start()
                    io_seen = io.seconds
                rw0, ww0 = log.read_write, log.write_write
                passes0 = total_passes
                active_ids = frontier_ids
                plan = plan_cache.plan(active_ids, dm_i)
                ex.dm = dm_i
                if clock is not None:
                    clock.lap("plan_build")
                worker_phases = None
                if pool is not None:
                    sh = pool.arrays
                    np.copyto(sh["thr_v"], plan.thr_v)
                    np.copyto(sh["pi_v"], plan.pi_v)
                    np.copyto(sh["time_v"], plan.time_v)
                    np.copyto(sh["active"], plan.active)
                    sh["dirty"].fill(False)
                    sh["flags"].fill(0)
                    sh["phase_w"].fill(0.0)
                    sh["wcount"].fill(0)
                    for f in vfields:
                        arr = state.vertex(f)
                        np.copyto(sh["v0:" + f], arr)
                        np.copyto(sh["vout:" + f], arr)
                    ex.vout = {f: sh["vout:" + f] for f in vfields}
                    ctrl = sh["ctrl"]
                    try:
                        # Workers run PASS1 on receipt.
                        pool.begin_iteration(dm_i, iteration, prof)
                        total_passes += 1
                        if clock is not None:
                            clock.lap("shm_sync")
                        pool.sync()                 # A: PASS1 writes visible
                        epoch += 1
                        if clock is not None:
                            clock.lap("barrier_wait")
                        for r in range(int(active_ids.size) + 2):
                            sh["dirty"].fill(False)
                            sh["flags"].fill(0)
                            ctrl[1] = 1 if r == 0 else 0
                            pool.sync()             # B: workers may detect
                            epoch += 1
                            pool.sync()             # C: flags published
                            epoch += 1
                            if clock is not None:
                                clock.lap("barrier_wait")
                            if not sh["flags"].any():
                                break
                            total_passes += 1
                            pool.sync()             # D: repair writes visible
                            epoch += 1
                            if clock is not None:
                                clock.lap("barrier_wait")
                        else:
                            raise RuntimeError(
                                "nondet fix-point failed to converge")
                    except (threading.BrokenBarrierError, BrokenPipeError,
                            OSError) as exc:
                        raise pool.failure(iteration) from exc
                    pool.fold_io(io)
                    if clock is not None:
                        worker_phases = pool.worker_phases()
                        sweeps = int(sh["wcount"].sum())
                        # Worker-side counters would otherwise vanish
                        # with the pool: fold them through the barrier
                        # into the master's sink/registry (summed, like
                        # every counter merge).
                        if sink is not None:
                            sink.counter("worker.sweeps").inc(sweeps)
                        if metrics is not None:
                            for w in range(workers):
                                metrics.counter(
                                    "repro_worker_sweeps_total",
                                    worker=str(w),
                                ).inc(int(sh["wcount"][w]))
                                metrics.counter(
                                    "repro_worker_barrier_wait_seconds_total",
                                    worker=str(w),
                                ).inc(worker_phases[w].get(
                                    "barrier_wait", 0.0))
                else:
                    ex.active = plan.active
                    ex.dirty = np.zeros(n, dtype=bool)
                    ex.thr_v = plan.thr_v
                    ex.pi_v = plan.pi_v
                    ex.time_v = plan.time_v
                    ex.v0 = {f: state.vertex(f) for f in vfields}
                    ex.vout = {f: state.vertex(f).copy() for f in vfields}
                    ex.pass_sweep(ex.active, use_seen=False)
                    total_passes += 1
                    if clock is not None:
                        lap_io("gather")
                    for r in range(int(active_ids.size) + 2):
                        ex.dirty[:] = False
                        if not ex.detect_sweep(first=(r == 0)):
                            break
                        ex.pass_sweep(ex.dirty & ex.active, use_seen=True)
                        total_passes += 1
                    else:
                        raise RuntimeError(
                            "nondet fix-point failed to converge")
                    if clock is not None:
                        lap_io("repair_pass")

                # Commit barrier (master side, both backends).
                next_mask, reads_t, writes_t = self._finalize(
                    plan, dm_i, log, record, iteration, p, written, efields)
                upd_t = np.bincount(plan.thr_a, minlength=p)
                stats.append(IterationStats(
                    iteration=iteration,
                    num_active=int(active_ids.size),
                    updates_per_thread=[int(x) for x in upd_t],
                    reads_per_thread=[int(x) for x in reads_t],
                    writes_per_thread=[int(x) for x in writes_t],
                ))
                for f in vfields:
                    state.vertex(f)[active_ids] = ex.vout[f][active_ids]
                self._scratch.zero_outputs()
                state._edge.clear()
                next_ids = np.flatnonzero(next_mask).astype(np.int64)
                if supervisor is not None:
                    next_ids = supervisor.post_iteration(
                        iteration, state=state, schedule=next_ids)
                    # Fault injection may have torn edge values through the
                    # state cache; make the files agree before the next pass.
                    self._sync_state(state)
                phases = None
                if clock is not None:
                    lap_io("lemma2_commit")
                    wall = time.perf_counter() - t0
                    phases = clock.drain()
                    if metrics is not None:
                        record_iteration_metrics(
                            metrics, "outofcore",
                            phases=phases,
                            num_active=int(active_ids.size),
                            frontier_size=int(next_ids.size),
                            read_write=log.read_write - rw0,
                            write_write=log.write_write - ww0,
                            wall_time_s=wall,
                        )
                if sink is not None:
                    it = stats[-1]
                    extra_kw = {}
                    if worker_phases is not None:
                        extra_kw["barrier_epoch"] = epoch
                        extra_kw["worker_phases"] = worker_phases
                    sink.iteration(
                        iteration=iteration,
                        num_active=it.num_active,
                        updates_per_thread=it.updates_per_thread,
                        reads_per_thread=it.reads_per_thread,
                        writes_per_thread=it.writes_per_thread,
                        frontier_size=int(next_ids.size),
                        wall_time_s=wall,
                        read_write=log.read_write - rw0,
                        write_write=log.write_write - ww0,
                        fixpoint_passes=total_passes - passes0,
                        phases=phases,
                        peak_rss_bytes=peak_rss_bytes(),
                        **extra_kw,
                    )
                if observer is not None:
                    observer(iteration, state, {int(v) for v in next_ids})
                frontier_ids = next_ids
                iteration += 1
            # At-cap accounting: converged stays False unless the confirming
            # empty-frontier check at the top of an iteration ran (see
            # tests/test_convergence_conformance.py).
        except BaseException:
            # Leave no pool behind an exceptional exit; a clean return
            # keeps it warm for the next run() on this runner.
            self._teardown_pool()
            raise

        extra = {
            "vectorized": True,
            "out_of_core": True,
            "num_intervals": K,
            "fixpoint_passes": total_passes,
            "plan_cache_hits": plan_cache.hits,
            "io": io.as_dict(),
        }
        if use_pool:
            extra["backend"] = "process"
            extra["workers"] = workers
            extra["pool_reused"] = pool_reused
        result = RunResult(
            program=program, state=state, mode=self.mode,
            converged=converged, num_iterations=iteration,
            iterations=stats, conflicts=log, config=config, extra=extra,
        )
        if record is not None:
            record.end_run(result)
        if sink is not None:
            if metrics is not None:
                # Must precede end_run: lint_trace rejects records after
                # the terminal run_end.
                sink.metrics_snapshot(metrics)
            sink.end_run(result)
        return result
