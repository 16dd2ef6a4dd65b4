"""Out-of-core nondeterministic execution over PSW shard stores: the
store residency of :class:`~repro.engine.nondet_parallel.SlotRunner`.

:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` holds
every edge-indexed array (``committed``, ``seen``, ``ws/wd/wvs/wvd``,
``rs/rd``) fully in memory — ~10 arrays of ``m`` entries, which is what
actually caps the graph scale, not the topology.  Here the *same* racy
iteration runs over a :class:`~repro.storage.shards.ShardStore`, whose
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
full edge list.  A round detects on every interval before any pass
runs, and passes read only the seen buffers detection wrote, so
interval ``i``'s round-``r`` writes never reach interval ``j``'s
round-``r`` pass.  ``tests/test_outofcore.py`` asserts bit-identity
(state, trajectory, per-thread stats, conflict totals, fix-point and
slice pass counts, recorder provenance) against both in-memory engines,
in every direction.

``backend="process"`` runs the slot-order runner's pool: worker ``w``
owns a BLOCK of intervals, so every scratch range keeps one writer.  The
pool survives across ``run()`` calls on the same (store, program) —
``extra["pool_reused"]`` — and is torn down by
:meth:`~repro.engine.nondet_parallel.SlotRunner.close`, on worker
failure, or when the store is dropped.
"""

from __future__ import annotations

import os
import time
import weakref

import numpy as np

from ..storage.shards import ShardStore
from ..storage.shm import ArrayLayout, SharedArrayPool
from .config import EngineConfig
from .nondet_core import check_eligible, resolve_nondet_kernel
# Not called here (a store run commits through SlotRunner's), but every
# residency module names its commit: tests patch each module's name.
from .nondet_core import commit_on  # noqa: F401
from .nondet_parallel import SlotRunner, edge_specs, index_specs, slot_index
from .program import VertexProgram
from .result import RunResult
from .state import State

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
        self.name, self.layout = store.path, layout
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

    @classmethod
    def attach(cls, store_path: str, layout: ArrayLayout) -> "_Scratch":
        """A pool worker's scratch of the store at ``store_path``."""
        return cls(ShardStore(store_path), layout)

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
class OutOfCoreNondetRunner(SlotRunner):
    """Interval-sliced racy execution over a :class:`ShardStore`: the
    store residency of :class:`~repro.engine.nondet_parallel.SlotRunner`.

    Bit-for-bit identical to
    :class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine` per
    (mode, seed, direction) — final state, iteration/frontier
    trajectory, per-thread stats, conflict totals, fix-point pass
    counts, recorder provenance — while holding only ``O(n)``
    vertex-indexed arrays plus one interval's temporaries in anonymous
    memory.  Obtain one via :meth:`ShardStore.nondet_runner` (cached
    there so supervised restarts resume against the same live scratch),
    or pass the store straight to :func:`repro.engine.run`.
    """

    WORKER, IO_PHASE = "repro-ooc-worker", "shard_io"

    #: Slots per streaming chunk for canonical gathers/scatters.
    CHUNK = 1 << 20

    def __init__(self, store):
        super().__init__()
        # A proxy: the store caches its runner, and a strong reference
        # back would make a cycle that holds the pool, its segment and
        # the scratch mapping until the cyclic GC runs.  A state keeps
        # the store itself alive (its graph view holds it).
        self.store = weakref.proxy(store)
        self._indexed = False
        #: The state whose edges the scratch holds (a weak reference).
        self._live = None

    # -- scratch management ---------------------------------------------
    def _ensure_scratch(self, program: VertexProgram, kernel) -> None:
        field_dtypes = {f: np.dtype(spec.dtype)
                        for f, spec in program.edge_fields().items()}
        store = self.store
        layout = ArrayLayout.build(edge_specs(field_dtypes, kernel,
                                              store.num_edges))
        if self._res is not None:
            if self._res.layout == layout:
                return
            self.close()
        self._res = scr = _Scratch(store, layout)
        # ``psw_eid`` stays a lazy view of the map: read only where the
        # recorder wants rows.
        self._eid = store.psw_eid
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
        dest = self._res.array("committed:" + field)
        for r, eid in self._chunks():
            dest[r] = arr[eid]
        self.io.seconds += time.perf_counter() - t0

    def _gather_canonical(self, field: str) -> np.ndarray:
        """The committed edge array for ``field`` in canonical order."""
        t0 = time.perf_counter()
        src = self._res.array("committed:" + field)
        out = np.empty(src.size, dtype=src.dtype)
        for r, eid in self._chunks():
            out[eid] = src[r]
        self.io.seconds += time.perf_counter() - t0
        return out

    def _load(self, state: "_OocState") -> None:
        """Flush cached (possibly caller-mutated) edge arrays."""
        for f, arr in state._edge.items():
            self._scatter_canonical(f, arr)
        state._edge.clear()

    def _keep(self, state: "_OocState", ranges, written) -> None:
        # Readers regather fresh values on demand.
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

    def close(self) -> None:
        """Tear down the worker pool and unmap the scratch."""
        if self._res is not None:
            self._evict()
        super().close()

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
                self._res.array("committed:" + f).fill(spec.init)
        self._zero_outputs()
        return state

    # -- the run -----------------------------------------------------------
    def run(self, program: VertexProgram, config: EngineConfig | None = None,
            *, state: _OocState | None = None, observer=None, telemetry=None,
            record=None, supervisor=None, backend: str | None = None,
            direction: str = "pull", metrics=None) -> RunResult:
        """Execute ``program`` out of core; mirrors the vectorized engine.

        ``backend="process"`` runs the parts on a persistent worker pool
        of ``min(threads, num_intervals)`` workers (BLOCK interval
        ownership); anything else runs them in this process.  Either way
        the result is bit-identical to the in-memory vectorized engine
        in the same ``direction``.
        """
        config = config or EngineConfig()
        push_ok = check_eligible(program, config, direction,
                                 "a ShardStore graph")
        kernel = resolve_nondet_kernel(program)(program)
        if state is None:
            state = self.make_state(program)
        else:
            if not isinstance(state, _OocState) or state._runner is not self:
                raise ValueError(
                    "state must come from this runner's make_state()")
            self._ensure_scratch(program, kernel)
            self._evict(state)
        k = self.store.num_intervals
        # A restored checkpoint, a barrier's value faults or caller
        # edits land in the state's cache: ``state_written`` pushes them
        # to the committed slots before the next pass.  A clean return
        # keeps the pool warm for the next run() on this runner.
        result = self._run(
            program, state._graph, kernel, config, state,
            workers=max(1, min(config.threads, k)) if backend == "process"
            else 0, direction=direction, push_ok=push_ok, label="outofcore",
            extra={"out_of_core": True, "num_intervals": k},
            observer=observer, telemetry=telemetry, record=record,
            supervisor=supervisor, metrics=metrics)
        result.extra["io"] = self.io.as_dict()
        # A warm runner between runs holds no resident scratch pages.
        self._res.release_pages()
        return result
