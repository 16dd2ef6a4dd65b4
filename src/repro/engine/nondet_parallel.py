"""True multi-core nondeterministic execution: the process backend.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` made one
racy iteration a handful of whole-graph NumPy passes — but still on one
core, under one GIL.  This module runs the *same* batched Defs. 1–3 +
Lemma-1/2 model across ``P`` OS processes over
``multiprocessing.shared_memory``: CSR topology and vertex/edge state
arrays live in a single :class:`~repro.storage.shm.SharedArrayPool`
segment mapped zero-copy into every worker, so the workers literally
share memory the way the paper's racy threads share the cache-coherent
heap.

**Work division is the paper's own dispatch.**  The master runs
:func:`~repro.engine.dispatch.plan_arrays` (BLOCK policy: contiguous
small-label-first intervals, exactly GraphChi-style PSW intervals) and
worker ``w`` *is* model thread ``w``: it executes the kernel for the
vertices the plan assigned to thread ``w``.  That identification is what
makes the parallel run **bit-for-bit identical** to the single-process
fast path (and hence to the object engine), not merely equivalent:

* Per edge and field the §II scope rule allows at most two writers —
  the endpoints.  The src-side slots (``ws/wvs/rs``) are written only by
  the owner of ``src[e]``, the dst-side slots (``wd/wvd/rd``) only by
  the owner of ``dst[e]``, and ``vout[v]`` only by the owner of ``v`` —
  all cross-worker writes go to disjoint array slots, so the shared
  output arrays are data-race-free without locks.
* The chaotic fix-point decomposes by ownership: a *seen* value can only
  change on an edge whose reading endpoint is active, so each worker
  detects exactly the dirty vertices it owns; the union over workers
  equals the single-process dirty set, and the repair rounds (two
  barriers each: writes-visible, then change-flags) count identically.
* Cross-interval write–write races are resolved at the barrier by the
  master with the same vectorized Lemma-2 rule (later timestamp wins,
  tie → larger vid), so the committed state is one the object engine
  could also have produced — and in fact the very one it *would* have.

Conflict totals are counted per worker on its own edge interval into a
shared ``(P, 4)`` counter block and reduced by the master at the
barrier; the partition (src-side terms by src owner, dst-side terms by
dst owner, whole-edge terms by dst owner) provably counts every edge
once.  Telemetry spans, flight-recorder provenance, supervisor hooks
(fault injection, watchdog, checkpoint/resume) all run master-side on
the reduced arrays and therefore behave exactly as in the single-process
engines.

**Robustness.**  A worker that dies (SIGKILL, segfault, unhandled
exception) breaks the iteration barrier — a sentinel watcher aborts it
within a fraction of a second — and the master raises
:class:`~repro.robust.errors.WorkerDied` (a :class:`WorkerTimeout`
subclass, so the supervised degradation ladder restarts it with
backoff).  The master's canonical state is plain process-local memory,
committed only *after* a successful barrier, so it is always
barrier-consistent and memory-token restarts are valid.  Shared-memory
cleanup is guaranteed: the segment is unlinked in a ``finally`` on every
exit path (clean, raise, ``KeyboardInterrupt``), and the stdlib
``resource_tracker`` backstops a SIGKILLed master.
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

from ..graph import DiGraph
from ..obs.metrics import PhaseClock, peak_rss_bytes, record_iteration_metrics
from ..robust.errors import WorkerDied, WorkerTimeout
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .conflicts import ConflictLog
from .frontier import initial_frontier
from .nondet_vectorized import (
    DIRECTIONS,
    NondetPassContext,
    PlanCache,
    VectorizedNondetEngine,
    choose_direction,
    fallback_reasons,
    incident_mass,
    push_fallback_reasons,
    resolve_nondet_kernel,
)
from .program import VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["ParallelEngine", "parallel_fallback_reasons"]

#: Phase slots of the shared ``phase_w`` stat block, in row order.
#: ``plan_build`` is the worker-side Defs. 1–3 predicate construction;
#: ``barrier_wait`` covers the A/B fix-point barriers (C is excluded —
#: it ends the measured window); ``lemma2_commit`` is the worker's
#: conflict-counting tail before C.
_WPHASES = ("plan_build", "gather", "push_scatter", "repair_pass",
            "barrier_wait", "lemma2_commit")


def parallel_fallback_reasons(program: VertexProgram,
                              config: EngineConfig) -> list[str]:
    """Why ``(program, config)`` cannot run on the process backend.

    The backend executes the vectorized kernels, so the vectorized
    eligibility rules apply verbatim; there are no additional ones.
    """
    return fallback_reasons(program, config)


def _build_layout(graph: DiGraph, state: State,
                  written: tuple[str, ...], p: int) -> ArrayLayout:
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
        specs["rs:" + f] = ((m,), np.int64)
        specs["rd:" + f] = ((m,), np.int64)
    for f in written:
        dt = state.edge(f).dtype
        specs["ws:" + f] = ((m,), np.bool_)
        specs["wd:" + f] = ((m,), np.bool_)
        specs["wvs:" + f] = ((m,), dt)
        specs["wvd:" + f] = ((m,), dt)
    specs["flags"] = ((p,), np.uint8)
    specs["upd_t"] = ((p,), np.int64)
    specs["reads_t"] = ((p,), np.int64)
    specs["writes_t"] = ((p,), np.int64)
    specs["conf"] = ((p, 4), np.int64)
    # Per-worker phase seconds (_WPHASES slots) and counter deltas
    # ([kernel passes, repaired vertices]), folded by the master at
    # barrier C exactly like ``conf``: each worker writes only its own
    # row before C, the master reads after — no locks, no races.
    specs["phase_w"] = ((p, len(_WPHASES)), np.float64)
    specs["wcount"] = ((p, 2), np.int64)
    return ArrayLayout.build(specs)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Worker:
    """Worker ``w`` = model thread ``w`` of the paper's executor."""

    def __init__(self, wid: int, pool: SharedArrayPool, graph: DiGraph,
                 program: VertexProgram, barrier, barrier_timeout):
        self.wid = wid
        self.pool = pool
        self.graph = graph  # CSR/CSC edge-id slices for push iterations
        self.barrier = barrier
        self.timeout = barrier_timeout
        self.kernel = resolve_nondet_kernel(program)(program)
        self.written = tuple(self.kernel.written_fields)
        self.src = pool.array("src")
        self.dst = pool.array("dst")
        self.active = pool.array("active")
        self.thr_v = pool.array("thr_v")
        self.pi_v = pool.array("pi_v")
        self.time_v = pool.array("time_v")
        self.flags = pool.array("flags")
        self.upd_t = pool.array("upd_t")
        self.reads_t = pool.array("reads_t")
        self.writes_t = pool.array("writes_t")
        self.conf = pool.array("conf")
        self.phase_w = pool.array("phase_w")
        self.wcount = pool.array("wcount")
        # Profiling directives arrive with each iteration message; the
        # barrier epoch is this worker's cumulative wait count, reset
        # per run so it matches the master's count (the merge key).
        self._profile = False
        self._trace_dir: str | None = None
        self._run_id = None
        self._epoch = 0
        self._seg_fh = None
        committed = pool.arrays("committed:")
        self.committed = committed
        self.edge_fields = tuple(committed)
        self.n = graph.num_vertices
        self.m = graph.num_edges
        self.in_degrees = graph.in_degrees()

        ctx = NondetPassContext.__new__(NondetPassContext)
        ctx.graph = graph
        ctx.src = self.src
        ctx.dst = self.dst
        ctx.n = self.n
        ctx.m = self.m
        ctx.selfloop = np.asarray(self.src == self.dst)
        ctx.out_degrees = pool.array("out_degrees")
        ctx.active = self.active
        ctx.committed = committed
        ctx.v0 = pool.arrays("v0:")
        ctx.vout = pool.arrays("vout:")
        ctx.ws = pool.arrays("ws:")
        ctx.wd = pool.arrays("wd:")
        ctx.wvs = pool.arrays("wvs:")
        ctx.wvd = pool.arrays("wvd:")
        ctx.rs = pool.arrays("rs:")
        ctx.rd = pool.arrays("rd:")
        # Seen arrays are worker-local (each endpoint's view of an edge
        # is private to the task that owns the endpoint); read-only
        # fields alias committed, written fields get local buffers.
        ctx.seen_s = dict(committed)
        ctx.seen_d = dict(committed)
        self._seen_s = {f: np.empty(self.m, committed[f].dtype)
                        for f in self.written}
        self._seen_d = {f: np.empty(self.m, committed[f].dtype)
                        for f in self.written}
        self.ctx = ctx

    def configure_profile(self, prof) -> None:
        """Apply an ``(enabled, trace_dir, run_id)`` profiling directive.

        A new ``run_id`` starts a fresh run on a reused pool: the barrier
        epoch restarts at 0 (so it stays comparable to the master's
        count) and any open trace segment is replaced.
        """
        enabled, trace_dir, run_id = prof
        self._profile = bool(enabled)
        if run_id != self._run_id or trace_dir != self._trace_dir:
            if self._seg_fh is not None:
                self._seg_fh.close()
                self._seg_fh = None
            self._trace_dir = trace_dir
            self._run_id = run_id
            self._epoch = 0

    def close_segment(self) -> None:
        if self._seg_fh is not None:
            self._seg_fh.close()
            self._seg_fh = None

    def _emit_span(self, iteration: int, phases: dict, passes: int,
                   repaired: int, owned: int) -> None:
        """Append this iteration's span to my private JSONL segment.

        Worker-private file, flushed per record like the master sink: a
        SIGKILLed worker leaves at most one torn final line, which
        ``read_trace`` tolerates when the merge path reads the segment.
        """
        if self._trace_dir is None:
            return
        if self._seg_fh is None:
            path = os.path.join(self._trace_dir,
                                f"worker-{self.wid}.jsonl")
            self._seg_fh = open(path, "w", encoding="utf-8")
            json.dump({"type": "event", "name": "worker_start",
                       "worker": self.wid, "pid": os.getpid()},
                      self._seg_fh, separators=(",", ":"))
            self._seg_fh.write("\n")
        json.dump({"type": "worker_span", "worker": self.wid,
                   "iteration": iteration, "epoch": self._epoch,
                   "phases": phases, "passes": passes,
                   "repaired": repaired, "owned": owned},
                  self._seg_fh, separators=(",", ":"))
        self._seg_fh.write("\n")
        self._seg_fh.flush()

    def _predicates(self, eidx: np.ndarray, dm):
        """Defs. 1–3 visibility + execution order on an edge subset."""
        s, d = self.src[eidx], self.dst[eidx]
        ts, td = self.time_v[s], self.time_v[d]
        th_s, th_d = self.thr_v[s], self.thr_v[d]
        ps, pd = self.pi_v[s], self.pi_v[d]
        both = self.active[s] & self.active[d] & (s != d)
        same = th_s == th_d
        d_pair = dm.intra if dm.is_uniform else dm.delays(th_s, th_d)
        vis_s2d = both & np.where(same, ps < pd, (td - ts) >= d_pair)
        vis_d2s = both & np.where(same, pd < ps, (ts - td) >= d_pair)
        lex_sd = both & (
            (ts < td)
            | ((ts == td) & ((ps < pd) | ((ps == pd) & (th_s < th_d))))
        )
        lex_ds = both & ~lex_sd
        dt = both & (th_s != th_d)
        return vis_s2d, vis_d2s, lex_sd, lex_ds, dt

    def iterate(self, dm, push: bool, iteration: int, alpha: float) -> None:
        wid, ctx = self.wid, self.ctx
        src, dst = self.src, self.dst
        clock = PhaseClock() if self._profile else None
        owned = self.active & (self.thr_v == wid)
        if push:
            # Sparse (push) direction: the same racy iteration over my
            # owned vertices' incident edge-id slices only.  es is the
            # identical edge set flatnonzero(owned[src]) yields; ed is
            # set-equal in CSC order — everything downstream is either
            # positional within (es, ed) or order-independent.
            owned_ids = np.flatnonzero(owned).astype(np.int64)
            es = self.graph.out_edge_ids(owned_ids)
            ed = self.graph.in_edge_ids(owned_ids)
        else:
            es = np.flatnonzero(owned[src])
            ed = np.flatnonzero(owned[dst])
        vis_s2d_es, vis_d2s_es, lex_sd_es, lex_ds_es, dt_es = \
            self._predicates(es, dm)
        vis_s2d_ed, vis_d2s_ed, lex_sd_ed, lex_ds_ed, dt_ed = \
            self._predicates(ed, dm)
        prev_s: dict[str, np.ndarray] = {}
        prev_d: dict[str, np.ndarray] = {}
        for f in self.written:
            com = self.committed[f]
            if push:
                # The kernel only reads seen values on (es, ed).
                self._seen_s[f][es] = com[es]
                self._seen_d[f][ed] = com[ed]
            else:
                np.copyto(self._seen_s[f], com)
                np.copyto(self._seen_d[f], com)
            ctx.seen_s[f] = self._seen_s[f]
            ctx.seen_d[f] = self._seen_d[f]
            prev_s[f] = com[es]
            prev_d[f] = com[ed]
        if clock is not None:
            clock.lap("plan_build")
        if push:
            self.kernel.run_slice_pass(ctx, owned_ids, es, ed)
        else:
            self.kernel.run_pass(ctx, owned)
        if clock is not None:
            clock.lap("push_scatter" if push else "gather")
        passes = 1
        repaired = 0
        while True:
            self.barrier.wait(self.timeout)  # A: pass-k writes visible
            if clock is not None:
                self._epoch += 1
                clock.lap("barrier_wait")
            dirty = None
            changed = False
            for f in self.written:
                com = self.committed[f]
                # What my endpoints now see: committed overridden by the
                # far endpoint's write where Defs. 1–3 make it visible.
                sd = np.where(vis_s2d_ed & ctx.ws[f][ed],
                              ctx.wvs[f][ed], com[ed])
                ss = np.where(vis_d2s_es & ctx.wd[f][es],
                              ctx.wvd[f][es], com[es])
                dch = sd != prev_d[f]
                sch = ss != prev_s[f]
                if dch.any() or sch.any():
                    if dirty is None:
                        dirty = np.zeros(self.n, dtype=bool)
                    dirty[dst[ed[dch]]] = True
                    dirty[src[es[sch]]] = True
                    changed = True
                self._seen_d[f][ed] = sd
                self._seen_s[f][es] = ss
                prev_d[f] = sd
                prev_s[f] = ss
            self.flags[wid] = 1 if changed else 0
            if clock is not None:
                clock.lap("repair_pass")
            self.barrier.wait(self.timeout)  # B: all change flags posted
            if clock is not None:
                self._epoch += 1
                clock.lap("barrier_wait")
            if not self.flags.any():
                break
            passes += 1
            if dirty is not None:
                dirty_ids = np.flatnonzero(dirty)
                repaired += int(dirty_ids.size)
                # Same per-pass choice as VectorizedNondetEngine._repair:
                # a small dirty set costs its edge slices, not m.
                if push or incident_mass(
                        dirty_ids, ctx.out_degrees, self.in_degrees
                ) * alpha < self.m:
                    self.kernel.run_slice_pass(
                        ctx, dirty_ids,
                        self.graph.out_edge_ids(dirty_ids),
                        self.graph.in_edge_ids(dirty_ids),
                    )
                else:
                    self.kernel.run_pass(ctx, dirty)
            if clock is not None:
                clock.lap("repair_pass")
        # Conflict totals on my interval.  Src-side terms are mine via
        # ``es`` (a read/write by the src task implies active src, which
        # I own); whole-edge terms (write–write, contended) via ``ed``
        # (they imply an active dst) — every edge is counted exactly
        # once across workers, matching the single-process reductions.
        self.upd_t[wid] = int(np.count_nonzero(owned))
        reads = 0
        for f in self.edge_fields:
            reads += int(ctx.rs[f][es].sum()) + int(ctx.rd[f][ed].sum())
        writes = rw = ww = contended = stale = 0
        for f in self.written:
            ws_es, wd_es, rs_es = ctx.ws[f][es], ctx.wd[f][es], ctx.rs[f][es]
            ws_ed, wd_ed = ctx.ws[f][ed], ctx.wd[f][ed]
            rs_ed, rd_ed = ctx.rs[f][ed], ctx.rd[f][ed]
            writes += int(ws_es.sum()) + int(wd_ed.sum())
            rw += int(rs_es[wd_es & dt_es].sum())
            rw += int(rd_ed[ws_ed & dt_ed].sum())
            ww_mask = ws_ed & wd_ed & dt_ed
            ww += int(np.count_nonzero(ww_mask))
            contended += int(np.count_nonzero(
                ((rs_ed > 0) & wd_ed & dt_ed)
                | ((rd_ed > 0) & ws_ed & dt_ed)
                | ww_mask
            ))
            stale += int(rs_es[wd_es & lex_ds_es & ~vis_d2s_es].sum())
            stale += int(rd_ed[ws_ed & lex_sd_ed & ~vis_s2d_ed].sum())
        self.reads_t[wid] = reads
        self.writes_t[wid] = writes
        self.conf[wid, 0] = rw
        self.conf[wid, 1] = ww
        self.conf[wid, 2] = contended
        self.conf[wid, 3] = stale
        if clock is not None:
            clock.lap("lemma2_commit")
            ph = clock.drain()
            for k, name in enumerate(_WPHASES):
                self.phase_w[wid, k] = ph.get(name, 0.0)
            self.wcount[wid, 0] = passes
            self.wcount[wid, 1] = repaired
        self.barrier.wait(self.timeout)  # C: counters + writes final
        if clock is not None:
            self._epoch += 1
            self._emit_span(iteration, {k: v for k, v in ph.items() if v},
                            passes, repaired, int(self.upd_t[wid]))


def _worker_main(wid: int, seg_name: str, layout: ArrayLayout,
                 graph: DiGraph, program: VertexProgram,
                 conn, barrier, barrier_timeout) -> None:
    """OS-process entry point (module-level for spawn compatibility)."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # master owns ^C
    except (ValueError, OSError):  # pragma: no cover
        pass
    ppid = os.getppid()
    pool = None
    worker = None
    try:
        pool = SharedArrayPool.attach(seg_name, layout)
        worker = _Worker(wid, pool, graph, program, barrier, barrier_timeout)
        dm = None
        while True:
            # Poll so an orphaned worker (master SIGKILLed between
            # iterations) notices the reparent and exits on its own.
            while not conn.poll(1.0):
                if os.getppid() != ppid:
                    return
            msg = conn.recv()
            if msg[0] == "stop":
                return
            _, payload, push, iteration, prof, alpha = msg
            if payload is not None:  # delay model shipped only on change
                dm = payload
            worker.configure_profile(prof)
            worker.iterate(dm, push, iteration, alpha)
    except threading.BrokenBarrierError:
        # Master aborted (its timeout, its shutdown, or a sibling died):
        # nothing to report, just leave.
        return
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
        if worker is not None:
            worker.close_segment()
        if pool is not None:
            pool.release_views()
            pool.close()


# ----------------------------------------------------------------------
# master side
# ----------------------------------------------------------------------
def _engine_watch(stop_event, barrier, sentinels) -> None:
    """Abort the barrier the moment any worker dies unexpectedly.

    Module-level on purpose: a bound-method watcher would be held by
    ``threading._active`` and keep the engine (and its shm segment)
    alive past its last reference, defeating teardown-at-GC.
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


def _destroy_engine_pool(procs, conns, barrier, shm_pool, stop_event):
    """Teardown shared by explicit shutdown and the GC finalizer."""
    stop_event.set()
    for conn in conns:
        try:
            conn.send(("stop",))
        except Exception:
            pass
    if barrier is not None:
        try:
            barrier.abort()  # unstick anything mid-barrier
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
    if shm_pool is not None:
        shm_pool.close()  # releases views, unlinks, unmaps


class ParallelEngine:
    """Shared-memory process backend for the nondeterministic model.

    ``config.threads`` doubles as the worker count: worker ``w``
    executes exactly the tasks the BLOCK dispatch assigns to model
    thread ``w``, which is what makes the result bit-identical to
    ``vectorized=True`` (see the module docstring) at *any* ``P``.
    """

    mode = "nondeterministic"

    def __init__(self):
        self._pool: SharedArrayPool | None = None
        self._workers: list = []
        self._conns: list = []
        self._barrier = None
        self._watcher: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._timeout: float | None = None
        self._finalizer: weakref.finalize | None = None
        self._sh: dict[str, np.ndarray] = {}
        self._pool_key = None
        self._graph_ref = None
        self._last_dm = None
        self._run_counter = 0

    # -- process management ------------------------------------------------
    def _start_workers(self, graph: DiGraph, program: VertexProgram,
                       layout: ArrayLayout, p: int) -> None:
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        self._barrier = ctx.Barrier(p + 1)
        worker_timeout = (
            None if self._timeout is None else self._timeout * 4 + 30.0
        )
        for w in range(p):
            parent, child = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                name=f"repro-nondet-worker-{w}",
                args=(w, self._pool.name, layout, graph, program,
                      child, self._barrier, worker_timeout),
                daemon=True,
            )
            proc.start()
            child.close()
            self._workers.append(proc)
            self._conns.append(parent)
        self._watcher = threading.Thread(
            target=_engine_watch, name="repro-worker-watcher", daemon=True,
            args=(self._stop_event, self._barrier,
                  [p_.sentinel for p_ in self._workers]))
        self._watcher.start()
        # The finalizer (not __del__) guarantees teardown when the last
        # reference to a pooled engine dies — no cycles through self.
        self._finalizer = weakref.finalize(
            self, _destroy_engine_pool, self._workers, self._conns,
            self._barrier, self._pool, self._stop_event)

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

    def _pool_alive(self) -> bool:
        return (self._pool is not None
                and self._finalizer is not None and self._finalizer.alive
                and all(proc.is_alive() for proc in self._workers))

    def _barrier_sync(self, iteration: int) -> None:
        try:
            self._barrier.wait(self._timeout)
        except threading.BrokenBarrierError:
            self._raise_worker_failure(iteration)

    def _raise_worker_failure(self, iteration: int) -> None:
        errors: list[tuple[int, str]] = []
        for w, conn in enumerate(self._conns):
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg and msg[0] == "error":
                        errors.append((w, msg[2]))
            except (EOFError, OSError):
                pass
        for proc in self._workers:
            proc.join(timeout=0.2)
        dead = [w for w, proc in enumerate(self._workers)
                if not proc.is_alive()]
        if errors:
            wid, tb = errors[0]
            raise WorkerDied(
                f"worker {wid} raised at iteration {iteration}:\n{tb}",
                iteration=iteration, workers=tuple(w for w, _ in errors))
        if dead:
            # A sibling that saw the broken barrier exits 0; report the
            # abnormal exits (signal/nonzero) as the actual casualties.
            abnormal = [w for w in dead if self._workers[w].exitcode != 0]
            culprits = abnormal or dead
            codes = {w: self._workers[w].exitcode for w in culprits}
            raise WorkerDied(
                f"worker(s) {culprits} died at iteration {iteration} "
                f"(exit codes {codes})",
                iteration=iteration, workers=tuple(culprits))
        raise WorkerTimeout(
            f"workers failed to reach the iteration barrier within "
            f"{self._timeout}s at iteration {iteration}",
            iteration=iteration, stuck=tuple(range(len(self._workers))))

    def _shutdown(self) -> None:
        """Tear the pool down: stop workers, unlink the segment."""
        self._sh = {}
        if self._finalizer is not None:
            self._finalizer()  # idempotent: no-op if already dead
        elif self._pool is not None:  # pragma: no cover - startup failure
            _destroy_engine_pool(self._workers, self._conns, self._barrier,
                                 self._pool, self._stop_event)
        if self._watcher is not None:
            self._watcher.join(timeout=2.0)
        # Reset so the same instance can run again (fresh segment/pool).
        self._workers, self._conns = [], []
        self._pool = None
        self._barrier = None
        self._watcher = None
        self._stop_event = threading.Event()
        self._finalizer = None
        self._pool_key = None
        self._graph_ref = None
        self._last_dm = None

    def close(self) -> None:
        """Explicitly tear down a persistent worker pool."""
        self._shutdown()

    # -- the run loop ------------------------------------------------------
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
        reasons = parallel_fallback_reasons(program, config)
        if reasons:
            raise ValueError(
                "program/config not eligible for the process backend "
                "(it executes the vectorized kernels): " + "; ".join(reasons)
            )
        if direction not in DIRECTIONS:
            raise ValueError(
                f"direction must be one of {DIRECTIONS}, got {direction!r}"
            )
        push_ok = False
        if direction != "pull":
            push_reasons = push_fallback_reasons(program)
            if push_reasons and direction == "push":
                raise ValueError(
                    "program not eligible for the push direction: "
                    + "; ".join(push_reasons)
                )
            push_ok = not push_reasons
        sink = telemetry
        if sink is not None:
            sink.begin_engine_run(self.mode, program, config)
        if record is not None:
            record.begin_engine_run(self.mode, program, config)
        kernel_factory = resolve_nondet_kernel(program)
        written = tuple(kernel_factory(program).written_fields)
        state = state if state is not None else program.make_state(graph)

        n, m = graph.num_vertices, graph.num_edges
        src, dst = graph.edge_src, graph.edge_dst
        selfloop = src == dst
        out_degrees = graph.out_degrees()
        in_degrees = graph.in_degrees() if push_ok else None
        delay_model = config.effective_delay_model()
        jitter_rng = (
            np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
            if config.jitter > 0
            else None
        )
        timeout = config.worker_timeout_s
        self._timeout = None if timeout is None else float(timeout)

        log = ConflictLog(keep_events=config.keep_conflict_events)
        stats: list[IterationStats] = []
        frontier_ids = initial_frontier(program, graph).sorted_vertices()
        iteration = 0
        if supervisor is not None:
            rngs = {"jitter": jitter_rng} if jitter_rng is not None else {}
            iteration, frontier_ids = supervisor.engine_start(
                self.mode, program, config, state=state,
                frontier=frontier_ids, rngs=rngs, conflicts=log,
            )
        converged = False
        total_passes = 0
        push_iterations = 0
        dir_trace: list[str] = []
        p = config.threads
        # The master only needs the plan + the Lemma-2 tiebreak; the
        # full-graph visibility masks are recomputed lazily for the
        # flight recorder (workers evaluate visibility on their own
        # intervals).
        plan_cache = PlanCache(graph, p, policy=config.dispatch,
                               jitter=config.jitter, rng=jitter_rng,
                               visibility=record is not None)
        vertex_fields = tuple(state.vertex_field_names)
        edge_fields = tuple(state.edge_field_names)
        layout = _build_layout(graph, state, written, p)
        # Pool reuse: keep the forked workers (and the segment) across
        # run() calls on the same (graph, program, layout, P, timeout) —
        # the per-run cost drops to array copies.  Anything else tears
        # the old pool down first.
        pool_key = (self._program_sig(program), p, self._timeout,
                    tuple(sorted(layout.entries.items())))
        preexisting = (
            self._pool_alive()
            and self._graph_ref is not None and self._graph_ref() is graph
            and self._pool_key == pool_key
        )
        if self._pool is not None and not preexisting:
            self._shutdown()
        pool_reused = False
        sh = self._sh
        # Profiling directive shipped with every iteration message: the
        # run id lets a reused pool's workers reset their barrier-epoch
        # counters (and start fresh trace segments) at each run start.
        # Pure timing plus single-writer shared rows — no RNG use, no
        # effect on the racy iteration itself, so bit-identity holds.
        self._run_counter += 1
        profile_on = sink is not None or metrics is not None
        worker_dir = getattr(sink, "worker_dir", None)
        if worker_dir is not None:
            os.makedirs(worker_dir, exist_ok=True)
        prof = (profile_on, worker_dir, self._run_counter)
        clock = PhaseClock() if profile_on else None
        epoch = 0
        try:
            while iteration < config.max_iterations:
                if frontier_ids.size == 0:
                    converged = True
                    break
                if self._pool is None:
                    # Lazy setup: a run that converges immediately never
                    # creates a segment or forks a worker.
                    self._pool = SharedArrayPool.create(layout)
                    sh = self._sh = {name: self._pool.array(name)
                                     for name in layout.names()}
                    sh["src"][:] = src
                    sh["dst"][:] = dst
                    sh["out_degrees"][:] = graph.out_degrees()
                    self._start_workers(graph, program, layout, p)
                    self._pool_key = pool_key
                    try:
                        self._graph_ref = weakref.ref(graph)
                    except TypeError:
                        # DiGraph has no __weakref__ slot; pin it for the
                        # pool's lifetime (the segment mirrors its arrays).
                        self._graph_ref = lambda _g=graph: _g
                elif preexisting:
                    pool_reused = True
                if supervisor is not None:
                    supervisor.pre_iteration(iteration)
                    dm_i = supervisor.iteration_delay_model(
                        iteration, delay_model)
                else:
                    dm_i = delay_model
                t0 = time.perf_counter() if clock is not None else 0.0
                if clock is not None:
                    clock.start()
                rw0, ww0 = log.read_write, log.write_write
                active_ids = frontier_ids
                # Per-iteration direction decision (pure function of the
                # frontier, graph, and config — identical across reruns
                # and backends).  The master's own bookkeeping stays
                # dense either way: the shared write-mask arrays are
                # zero-filled per iteration, so they are always valid
                # dense masks; only the workers execute sparsely.
                dir_i = choose_direction(
                    direction, active_ids, out_degrees, in_degrees,
                    m, n, config, push_ok,
                )
                if direction != "pull":
                    dir_trace.append(dir_i)
                if dir_i == "push":
                    push_iterations += 1
                plan = plan_cache.plan(active_ids, dm_i)
                if clock is not None:
                    clock.lap("plan_build")
                # Publish the plan and the pre-iteration state snapshot.
                np.copyto(sh["thr_v"], plan.thr_v)
                np.copyto(sh["pi_v"], plan.pi_v)
                np.copyto(sh["time_v"], plan.time_v)
                np.copyto(sh["active"], plan.active)
                for f in vertex_fields:
                    arr = state.vertex(f)
                    np.copyto(sh["v0:" + f], arr)
                    np.copyto(sh["vout:" + f], arr)
                for f in edge_fields:
                    np.copyto(sh["committed:" + f], state.edge(f))
                    sh["rs:" + f].fill(0)
                    sh["rd:" + f].fill(0)
                for f in written:
                    sh["ws:" + f].fill(False)
                    sh["wd:" + f].fill(False)
                sh["flags"].fill(0)
                sh["phase_w"].fill(0.0)
                sh["wcount"].fill(0)
                # Batched barrier message: the delay model rides along
                # only when it changed (it is pickled per send; the rest
                # of the iteration state travels through the segment).
                payload = dm_i if dm_i != self._last_dm else None
                if payload is not None:
                    self._last_dm = dm_i
                for conn in self._conns:
                    try:
                        conn.send(("iter", payload, dir_i == "push",
                                   iteration, prof, config.direction_alpha))
                    except (BrokenPipeError, OSError):
                        self._raise_worker_failure(iteration)
                if clock is not None:
                    clock.lap("shm_sync")
                # Fix-point rounds: barrier A (pass-k writes visible),
                # barrier B (change flags posted); master counts rounds.
                passes = 1
                limit = int(active_ids.size) + 2
                while True:
                    self._barrier_sync(iteration)  # A
                    self._barrier_sync(iteration)  # B
                    if clock is not None:
                        clock.lap("barrier_wait")
                    if not sh["flags"].any():
                        break
                    if passes > limit:  # pragma: no cover - DAG bound
                        try:
                            self._barrier.abort()
                        except Exception:
                            pass
                        raise RuntimeError(
                            "nondet fix-point failed to converge")
                    passes += 1
                self._barrier_sync(iteration)  # C: counters final
                total_passes += passes
                if clock is not None:
                    clock.lap("barrier_wait")
                    epoch += 2 * passes + 1

                # Reduce the per-worker conflict counters (Lemma-1/2
                # classes partitioned by edge ownership, see _Worker).
                conf = sh["conf"]
                rw = int(conf[:, 0].sum())
                ww = int(conf[:, 1].sum())
                log.read_write += rw
                log.write_write += ww
                log.contended_edges += int(conf[:, 2].sum())
                log.lost_writes += ww
                log.stale_reads += int(conf[:, 3].sum())
                if rw + ww:
                    log.per_iteration[iteration] += rw + ww

                if record is not None:
                    # Pre-commit: events carry each edge's old value.
                    shim = NondetPassContext.__new__(NondetPassContext)
                    shim.src, shim.dst, shim.selfloop = src, dst, selfloop
                    shim.ws = {f: sh["ws:" + f] for f in written}
                    shim.wd = {f: sh["wd:" + f] for f in written}
                    shim.wvs = {f: sh["wvs:" + f] for f in written}
                    shim.wvd = {f: sh["wvd:" + f] for f in written}
                    shim.rs = {f: sh["rs:" + f] for f in edge_fields}
                    shim.rd = {f: sh["rd:" + f] for f in edge_fields}
                    VectorizedNondetEngine._emit_provenance(
                        record, shim, state, iteration, written,
                        plan.vis_s2d, plan.vis_d2s, plan.dst_wins,
                        plan.t_s, plan.t_d, plan.thr_s, plan.thr_d,
                    )

                # Barrier merge: Lemma-2 winners into the master state.
                next_mask = np.zeros(n, dtype=bool)
                dst_wins = plan.dst_wins
                for f in written:
                    ws, wd = sh["ws:" + f], sh["wd:" + f]
                    wvs, wvd = sh["wvs:" + f], sh["wvd:" + f]
                    arr = state.edge(f)
                    both_w = ws & wd
                    only = ws & ~wd
                    arr[only] = wvs[only]
                    only = wd & ~ws
                    arr[only] = wvd[only]
                    sel = both_w & dst_wins
                    arr[sel] = wvd[sel]
                    sel = both_w & ~dst_wins
                    arr[sel] = wvs[sel]
                    next_mask[dst[ws]] = True
                    next_mask[src[wd]] = True
                for f in vertex_fields:
                    state.vertex(f)[active_ids] = \
                        sh["vout:" + f][active_ids]

                stats.append(IterationStats(
                    iteration=iteration,
                    num_active=int(active_ids.size),
                    updates_per_thread=[int(x) for x in sh["upd_t"]],
                    reads_per_thread=[int(x) for x in sh["reads_t"]],
                    writes_per_thread=[int(x) for x in sh["writes_t"]],
                ))
                next_ids = np.flatnonzero(next_mask).astype(np.int64)
                if supervisor is not None:
                    next_ids = supervisor.post_iteration(
                        iteration, state=state, schedule=next_ids)
                if clock is not None:
                    # The barrier fold: per-worker phase rows and counter
                    # deltas written before C, read after — the same
                    # single-writer protocol as ``conf``.  Counter deltas
                    # are *summed* across workers (they are per-iteration
                    # deltas); per-worker detail survives via labels and
                    # the ``worker_phases`` rows.
                    clock.lap("lemma2_commit")
                    wall = time.perf_counter() - t0
                    phases = clock.drain()
                    worker_phases = [
                        {name: float(sh["phase_w"][w, k])
                         for k, name in enumerate(_WPHASES)
                         if sh["phase_w"][w, k]}
                        for w in range(p)
                    ]
                    kp = int(sh["wcount"][:, 0].sum())
                    rv = int(sh["wcount"][:, 1].sum())
                    if sink is not None:
                        sink.counter("worker.kernel_passes").inc(kp)
                        sink.counter("worker.repaired_vertices").inc(rv)
                    if metrics is not None:
                        record_iteration_metrics(
                            metrics, "process", phases=phases,
                            num_active=int(active_ids.size),
                            frontier_size=int(next_ids.size),
                            read_write=log.read_write - rw0,
                            write_write=log.write_write - ww0,
                            wall_time_s=wall,
                        )
                        for w in range(p):
                            metrics.counter(
                                "repro_worker_kernel_passes_total",
                                worker=str(w)).inc(int(sh["wcount"][w, 0]))
                            metrics.counter(
                                "repro_worker_barrier_wait_seconds_total",
                                worker=str(w)).inc(
                                float(sh["phase_w"][
                                    w, _WPHASES.index("barrier_wait")]))
                if sink is not None:
                    it = stats[-1]
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
                        fixpoint_passes=passes,
                        phases=phases,
                        barrier_epoch=epoch,
                        worker_phases=worker_phases,
                        peak_rss_bytes=peak_rss_bytes(),
                        **({"direction": dir_i}
                           if direction != "pull" else {}),
                    )
                if observer is not None:
                    observer(iteration, state, {int(v) for v in next_ids})
                frontier_ids = next_ids
                iteration += 1
            # At-cap accounting: converged stays False unless the confirming
            # empty-frontier check at the top of an iteration ran (see
            # tests/test_convergence_conformance.py).
        except BaseException:
            # Exceptional exit: never leave workers (or the segment)
            # behind.  A clean return keeps the pool warm for the next
            # run() on this engine instance; GC finalizes it otherwise.
            self._shutdown()
            raise

        extra = {"vectorized": True, "backend": "process", "workers": p,
                 "fixpoint_passes": total_passes,
                 "plan_cache_hits": plan_cache.hits,
                 "pool_reused": pool_reused}
        if direction != "pull":
            extra["direction"] = direction
            extra["push_iterations"] = push_iterations
            extra["direction_trace"] = dir_trace
        result = RunResult(
            program=program,
            state=state,
            mode=self.mode,
            converged=converged,
            num_iterations=iteration,
            iterations=stats,
            conflicts=log,
            config=config,
            extra=extra,
        )
        if record is not None:
            record.end_run(result)
        if sink is not None:
            if metrics is not None:
                sink.metrics_snapshot(metrics)
            sink.end_run(result)
        return result
