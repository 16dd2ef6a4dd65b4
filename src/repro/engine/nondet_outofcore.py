"""Out-of-core nondeterministic execution over PSW shard stores.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` holds
every edge-indexed array (``committed``, ``seen``, ``ws/wd/wvs/wvd``,
``rs/rd``) fully in memory — ~10 arrays of ``m`` entries, which is what
actually caps the graph scale, not the topology.  This module is the
file residency of :mod:`~repro.engine.nondet_core`: the *same* racy
iteration over a :class:`~repro.storage.shards.ShardStore`, whose
interval ``k`` is one :class:`~repro.engine.nondet_core.Part` — its
vertices, shard ``k`` (their in-edges) and windows ``(·, k)`` (their
out-edges).  Edge-indexed data lives in a scratch file in shard-major
slot order under the shm segment's array names, beside a slot-order
CSR / CSC built once per store, both mapped ``MAP_SHARED`` by the
master and every pool worker; nothing is gathered or written back.
The anonymous memory of a pass stays interval-sized plus the ``O(n)``
vertex arrays; the scratch pages are page cache the kernel can reclaim.

**Why the interval decomposition is exact** is argued in DESIGN §6.1:
the §II scope rule and the source-sorted sliding windows make every
slot range single-writer on each side across intervals (and workers),
and the core's predicates and barrier functions are elementwise in the
edge, so calling them on a slot range is the same arithmetic as on the
full edge list.  ``tests/test_outofcore.py`` asserts bit-identity
(state, trajectory, per-thread stats, conflict totals, fix-point and
slice pass counts, recorder provenance) against both in-memory engines.

**One repair loop.**  Pass 1 and repair are
:func:`~repro.engine.nondet_core.repair`'s over the intervals with an
active vertex (:class:`~repro.engine.nondet_parallel.Parts`): a round
detects on every interval before any pass runs, and passes read only
the seen buffers detection wrote (the mapped ``seen_*`` arrays), so
interval ``i``'s round-``r`` writes never reach interval ``j``'s
round-``r`` pass.  A dirty set that passes the Beamer test takes one
slice pass, exactly where the in-memory engine slices.

**Process backend.**  ``backend="process"`` runs the in-memory process
backend's worker (:class:`~repro.engine.nondet_parallel._Worker`, paced
by the same :func:`~repro.engine.nondet_parallel.drive`) on a
persistent :class:`~repro.engine.workerpool.WorkerPool`: worker ``w``
owns a BLOCK of intervals, so every scratch range keeps one writer.
The ``O(n)`` master state is shared through the pool's segment, edge
data through the mapped scratch.  The pool survives across ``run()``
calls on the same (store, program) — ``extra["pool_reused"]`` — and is
torn down by :meth:`OutOfCoreNondetRunner.close`, on worker failure,
or when the store is dropped.
"""

from __future__ import annotations

import os
import time
import weakref
from functools import partial

import numpy as np

from ..storage.shards import IOStats
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .nondet_core import (
    OUTPUTS,
    EdgePlan,
    check_eligible,
    commit_on,
    count_on,
    resolve_nondet_kernel,
    run_array,
)
from .nondet_parallel import (
    Parts,
    _Worker,
    drive,
    edge_specs,
    index_specs,
    slot_index,
    worker_specs,
    zero_outputs,
)
from .program import VertexProgram
from .result import RunResult
from .state import State
from .workerpool import WorkerPool, profile_directive

__all__ = ["OutOfCoreNondetRunner"]


# ----------------------------------------------------------------------
# the mapped scratch
# ----------------------------------------------------------------------
class _Scratch:
    """What a :class:`_Worker` reads from a pool's segment in memory,
    under the same names: the store's PSW topology, and mapped
    ``MAP_SHARED`` the edge arrays of one (store, program) pairing
    (``<store path>.scratch/arrays``, :func:`edge_specs`) and the store's
    slot index (``…/index``, :func:`index_specs`).  The page cache holds
    the files, so they cost address space, not anonymous memory.  Holds
    the store's arrays, not the store, which must not outlive its users.
    """

    def __init__(self, store, layout: ArrayLayout):
        directory = store.path + ".scratch"
        os.makedirs(directory, exist_ok=True)
        self.layout = layout
        self.maps = SharedArrayPool.map_file(
            os.path.join(directory, "arrays"), layout)
        self.index = SharedArrayPool.map_file(
            os.path.join(directory, "index"),
            ArrayLayout.build(index_specs(store.num_vertices,
                                          store.num_edges)))
        self.named = {"src": np.asarray(store.psw_src),
                      "dst": np.asarray(store.psw_dst),
                      "bounds": store.bounds,
                      "shard_offsets": store.shard_offsets,
                      "window_index": store.window_index,
                      **{x: self.index.array(x)
                         for x in self.index.layout.entries}}

    def array(self, name: str) -> np.ndarray:
        named = self.named.get(name)
        return self.maps.array(name) if named is None else named

    def arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return self.maps.arrays(prefix)

    def release_pages(self) -> None:
        self.maps.release_pages()
        self.index.release_pages()

    def close(self) -> None:
        self.named = {}
        self.maps.close()
        self.index.close()


def _open_scratch(store_path: str, layout: ArrayLayout) -> _Scratch:
    """A pool worker's :class:`_Scratch` (module-level: picklable)."""
    from ..storage.shards import ShardStore

    return _Scratch(ShardStore(store_path), layout)


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
    Before another state or :meth:`~OutOfCoreNondetRunner.close` takes
    the scratch, the runner gathers every edge array into this cache
    (:meth:`~OutOfCoreNondetRunner._evict`): a result keeps its own
    run's edges, as an in-memory result does (a dropped one costs none).
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
        # A proxy: the store caches its runner, and a strong reference
        # back would make a cycle that holds the pool, its segment and
        # the scratch mapping until the cyclic GC runs.  A state keeps
        # the store itself alive (its graph view holds it).
        self.store = weakref.proxy(store)
        self.io = IOStats()
        self._scratch: _Scratch | None = None
        self._pool: WorkerPool | None = None
        self._indexed = False
        #: The state whose edges the scratch holds (a weak reference).
        self._live = None
        # Monotone per-run id shipped to pool workers with the profiling
        # tuple: a warm pool resets its barrier epoch and reopens its
        # trace segment when the id changes.
        self._run_counter = 0

    # -- scratch management ---------------------------------------------
    def _ensure_scratch(self, program: VertexProgram, kernel) -> None:
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        store = self.store
        layout = ArrayLayout.build(edge_specs(field_dtypes, kernel,
                                              store.num_edges))
        if self._scratch is not None:
            if self._scratch.layout == layout:
                return
            self.close()
        self._scratch = scr = _Scratch(store, layout)
        if not self._indexed:  # in place: no m-sized temporaries
            slot_index(scr.array, self._chunks(), store.psw_dst,
                       store.shard_offsets, store.out_degrees,
                       store.graph_view().in_degrees())
            self._indexed = True
        for r, _ in self._chunks():
            scr.array("selfloop")[r] = store.psw_src[r] == store.psw_dst[r]

    def _chunks(self):
        """Slot ranges of ``CHUNK`` slots with their canonical ids."""
        m = self.store.num_edges
        for a in range(0, m, self.CHUNK):
            r = slice(a, min(a + self.CHUNK, m))
            yield r, np.asarray(self.store.psw_eid[r], dtype=np.int64)

    def _scatter_canonical(self, field: str, arr: np.ndarray) -> None:
        """Write a canonical-order ``m``-array into the committed slots."""
        t0 = time.perf_counter()
        dest = self._scratch.array("committed:" + field)
        for r, eid in self._chunks():
            dest[r] = arr[eid]
        self.io.seconds += time.perf_counter() - t0

    def _gather_canonical(self, field: str) -> np.ndarray:
        """The committed edge array for ``field`` in canonical order."""
        t0 = time.perf_counter()
        src = self._scratch.array("committed:" + field)
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

    def _evict(self, state=None) -> None:
        """Make ``state`` the one whose edges the scratch holds: a live
        other state first gathers its own into its cache (a result keeps
        its run's edges), which ``state_written`` flushes back should
        that state run again."""
        live = self._live() if self._live is not None else None
        if live is not None and live is not state:
            for f in live.edge_field_names:
                if f not in live._edge:
                    live._edge[f] = self._gather_canonical(f)
        self._live = None if state is None else weakref.ref(state)

    def _zero_outputs(self) -> None:
        # In place, never by truncating the file: a worker touching a
        # mapped page between two ``ftruncate`` calls would take SIGBUS.
        t0 = time.perf_counter()
        zero_outputs(self._scratch)
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
        self._ensure_scratch(program, factory(program))
        view = self.store.graph_view()
        state = _OocState(self, view, program.vertex_fields(),
                          program.edge_fields())
        self._evict(state)
        for f, spec in program.edge_fields().items():
            if callable(spec.init):
                self._scatter_canonical(
                    f, spec.materialize(view, self.store.num_edges))
            else:
                self._scratch.array("committed:" + f).fill(spec.init)
        self._zero_outputs()
        return state

    # -- pool management --------------------------------------------------
    def _ensure_pool(self, program, state, config, workers):
        """The warm pool if it fits this run, else a fresh one; returns
        ``(pool, reused)``.

        Shares only the ``O(n)`` master state (plan, masks, ``v0``/
        ``vout``) and the workers' counter rows — edge data stays in the
        mapped scratch.
        """
        store, scr = self.store, self._scratch
        layout = ArrayLayout.build(worker_specs(
            store.num_vertices, state, workers, config.threads))
        key = WorkerPool.key_of(program, workers, config.worker_timeout_s,
                                layout)
        if (self._pool is not None and self._pool.alive
                and self._pool.key == key):
            return self._pool, True
        self._teardown_pool()
        edges = partial(_open_scratch, store.path, scr.layout)
        self._pool = WorkerPool(
            layout, workers, config.worker_timeout_s, key=key,
            name="repro-ooc-worker", body=_Worker,
            body_args=lambda w: (program, edges))
        return self._pool, False

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def close(self) -> None:
        """Tear down the worker pool and unmap the scratch."""
        self._teardown_pool()
        if self._scratch is not None:
            self._evict()
            self._scratch.close()
            self._scratch = None

    # -- commit barrier ---------------------------------------------------
    def _commit(self, bar, plan, dm, written, work: Parts,
                count: bool) -> int:
        """The commit barrier, master side, over
        :meth:`Parts.output_ranges` — the slots that can hold an output,
        the same ranges a pool's workers count; returns how many slots
        it covered.  Lemma 2 commits into the mapped ``committed`` slots
        in place; ``count`` (no pool) folds conflicts and per-thread
        work too.
        """
        ctx, slots = work.ctx, 0
        for r in work.output_ranges(plan.active):
            ep = EdgePlan(plan, dm, ctx.src[r], ctx.dst[r])
            out = {name: {f: a[r] for f, a in getattr(ctx, name).items()}
                   for name in OUTPUTS}
            # ``psw_eid`` stays a lazy view of the map: read only where
            # the recorder wants rows.
            commit_on(bar, ep, self.store.psw_eid[r], written, out,
                      {f: ctx.committed[f][r] for f in written})
            if count:
                count_on(bar, ep, written, out)
            slots += r.stop - r.start
        return slots

    # -- the run loop ------------------------------------------------------
    def run(self, program: VertexProgram, config: EngineConfig | None = None,
            *, state: _OocState | None = None, observer=None, telemetry=None,
            record=None, supervisor=None, backend: str | None = None,
            metrics=None) -> RunResult:
        """Execute ``program`` out of core; mirrors the vectorized engine.

        ``backend="process"`` runs the parts on a persistent worker pool
        (BLOCK interval ownership); anything else runs them in this
        process.  Either way the result is bit-identical to the
        in-memory vectorized engine.
        """
        config = config or EngineConfig()
        check_eligible(program, config, "pull", "a ShardStore graph")
        kernel = resolve_nondet_kernel(program)(program)
        if state is None:
            state = self.make_state(program)
        else:
            if not isinstance(state, _OocState) or state._runner is not self:
                raise ValueError(
                    "state must come from this runner's make_state()")
            self._ensure_scratch(program, kernel)
            self._evict(state)

        store, K = self.store, self.store.num_intervals
        written = tuple(kernel.written_fields)
        vfields = tuple(state.vertex_field_names)
        io = self.io = IOStats()
        # Clear any outputs left behind by an aborted run.
        self._zero_outputs()

        workers = max(1, min(config.threads, K)) if backend == "process" else 0
        # Every interval, in this process or (for IOStats) the pool's.
        work = Parts(kernel, self._scratch, range(K), v0={}, vout={})
        size = {f: a.itemsize for f, a in work.ctx.committed.items()}
        row = (16 + sum(size.values()), sum(size[f] for f in written))
        self._run_counter += 1
        prof = profile_directive(telemetry, metrics, self._run_counter)
        extra = {"out_of_core": True, "num_intervals": K}
        if workers:
            extra.update(backend="process", workers=workers,
                         pool_reused=False)
        pool = None

        def body(bar, iteration, plan, dm, push, clock):
            nonlocal pool
            if workers and pool is None:
                pool, extra["pool_reused"] = self._ensure_pool(
                    program, state, config, workers)
            if pool is not None:
                clock.lap("plan_build")
                drive(pool, bar, iteration, plan, state, dm, prof, clock,
                      telemetry, metrics, False, config.direction_alpha)
                bar.vout = {f: pool.arrays["vout:" + f] for f in vfields}
                live = work.live(plan.active)
            else:
                work.ctx.v0 = {f: state.vertex(f) for f in vfields}
                bar.vout = work.ctx.vout = {
                    f: a.copy() for f, a in work.ctx.v0.items()}
                live, passes, bar.slice_passes, _ = work.iterate(
                    plan, dm, config.direction_alpha, clock)
                bar.passes += passes
                clock.lap("repair_pass")
            # ``IOStats``: each round loads every live part's ranges; the
            # commit reads the output ranges, and a pool's workers read
            # them again to count.
            io.interval_loads += bar.passes * len(live)
            slots = bar.passes * sum(r.stop - r.start for p in live
                                     for r in (p.in_range, *p.out_ranges))
            out = self._commit(bar, plan, dm, written, work, pool is None)
            io.bytes_read += (slots + out * (1 if pool is None else 2)) * row[0]
            io.bytes_written += (slots + out) * row[1]
            clock.lap("lemma2_commit")
            self._zero_outputs()
            clock.lap("shard_io")
            state._edge.clear()

        try:
            # A restored checkpoint, a barrier's value faults or caller
            # edits land in the state's cache: ``state_written`` pushes
            # them to the committed slots before the next pass.
            result = run_array(
                program, state._graph, config, state, body,
                label="outofcore", extra=extra, observer=observer,
                telemetry=telemetry, record=record, supervisor=supervisor,
                metrics=metrics, state_written=lambda: self._sync_state(state))
        except BaseException:
            # Leave no pool behind an exceptional exit; a clean return
            # keeps it warm for the next run() on this runner.
            self._teardown_pool()
            raise
        result.extra["io"] = io.as_dict()
        # A warm runner between runs holds no resident scratch pages.
        self._scratch.release_pages()
        return result
