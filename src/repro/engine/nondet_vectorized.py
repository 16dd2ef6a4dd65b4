"""Vectorized nondeterministic execution: the racy NumPy fast path.

The object :class:`~repro.engine.nondet_engine.NondeterministicEngine`
mediates every edge access through Python-level dicts because the
paper's questions live at that granularity.  But the paper's own system
model makes whole iterations batchable: the §II *scope rule* says only
an edge's two endpoints may access it, and each endpoint runs at most
once per iteration, so per edge and field there are **at most two
readers and two writers** — the endpoints themselves.  The Definitions
1–3 visibility question therefore collapses to one pairwise predicate
per edge per direction, a pure function of the dispatch plan's
timestamp arrays:

* ``vis_s2d[e]`` — is ``f(src)``'s write visible to ``f(dst)``?  Same
  thread: ``π(src) < π(dst)``; different threads:
  ``t(dst) − t(src) ≥ d(thread_src, thread_dst)``.
* ``vis_d2s[e]`` — symmetric.

One racy iteration then becomes whole-graph array passes:

1. :func:`~repro.engine.dispatch.plan_arrays` produces the per-task
   ``(thread, π, time)`` arrays on the identical jitter stream the
   object planner consumes;
2. a registered :class:`NondetKernel` runs the program's
   gather/compute/scatter over all active vertices at once, reading
   *seen* edge arrays (``committed`` overridden by visible fresh
   writes);
3. because a fresh write only becomes visible to strictly later tasks
   (visibility implies precedence in the global execution order), the
   within-iteration dependences form a DAG — the engine repairs the
   one-shot pass by chaotic iteration, recomputing only vertices whose
   seen inputs changed, which converges to the exact sequential
   semantics in at most depth+1 passes;
4. Lemma-2 commit winners are a single vectorized lexicographic
   ``(time, vid)`` comparison per doubly-written edge;
5. conflict totals (read–write, write–write, lost writes, contended
   edges, stale reads) and the per-thread work profile fall out of
   masked reductions over the same arrays, feeding the same
   :class:`~repro.engine.conflicts.ConflictLog` counters.

The result is **bit-for-bit identical** to the object engine — final
state, iteration/frontier trajectory, per-thread stats, and conflict
totals — for every registered program (PageRank, WCC, SSSP, BFS, SpMV;
see ``tests/test_nondet_vectorized.py``), at one to two orders of
magnitude higher throughput.  Configurations the fast path does not
model (torn-value injection, runtime scope validation, fp-noise gather
permutation, per-event conflict capture) are reported by
:func:`fallback_reasons`; the runner silently falls back to the object
engine for them.
"""

from __future__ import annotations

import abc
import time
from typing import NamedTuple

import numpy as np

from ..graph import DiGraph
from ..obs.metrics import PhaseClock, peak_rss_bytes, record_iteration_metrics
from .atomicity import AtomicityPolicy
from .config import EngineConfig
from .conflicts import ConflictLog
from .dispatch import plan_arrays
from .frontier import initial_frontier
from .program import VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = [
    "NondetKernel",
    "NondetPassContext",
    "PlanCache",
    "SparsePlan",
    "VectorizedNondetEngine",
    "register_nondet_kernel",
    "resolve_nondet_kernel",
    "fallback_reasons",
    "push_fallback_reasons",
    "choose_direction",
    "emit_edge_provenance",
]

DIRECTIONS = ("pull", "push", "auto")


def incident_mass(ids: np.ndarray, out_degrees: np.ndarray,
                  in_degrees: np.ndarray) -> int:
    """Out- plus in-edge count of the vertices ``ids`` (Beamer's mass)."""
    return int(out_degrees[ids].sum()) + int(in_degrees[ids].sum())


def choose_direction(direction: str, active_ids: np.ndarray,
                     out_degrees: np.ndarray, in_degrees: np.ndarray,
                     num_edges: int, num_vertices: int,
                     config: EngineConfig, push_ok: bool) -> str:
    """Pick this iteration's execution direction: ``"push"`` or ``"pull"``.

    A pure function of (frontier, graph, config) — no run state, no
    randomness — so the per-iteration decision is identical across
    reruns and backends, preserving bit-reproducibility per (mode,
    seed).  The Beamer-style rule: run the sparse frontier-driven
    *push* strategy when the frontier's incident-edge mass is under
    ``m / direction_alpha`` and the frontier holds fewer than
    ``n / direction_beta`` vertices; run the dense whole-graph *pull*
    strategy otherwise.  Both strategies execute the same racy
    iteration bit for bit — direction is purely a performance knob.
    """
    if direction == "pull" or not push_ok:
        return "pull"
    if direction == "push":
        return "push"
    touched = incident_mass(active_ids, out_degrees, in_degrees)
    if (touched * config.direction_alpha < num_edges
            and active_ids.size * config.direction_beta < num_vertices):
        return "push"
    return "pull"


class PlanCache:
    """Per-iteration dispatch plan with frontier-unchanged reuse.

    Fixed-point algorithms (PageRank, SpMV) schedule the *same* active
    set every iteration, yet the engine used to rebuild the whole plan —
    thread/π assignment, full-size vertex scatters, per-edge endpoint
    gathers, and the structural pair masks — from scratch every time.
    This cache recomputes only what can actually change:

    * frontier changed → full rebuild (exactly the uncached path);
    * frontier unchanged → thread/π arrays, scatters, gathers and the
      structural masks are reused verbatim.  With ``jitter > 0`` the
      per-task noise is still drawn from the *same stream positions*
      :func:`plan_arrays` would consume — bit-identity with the object
      planner is preserved — and only the time-dependent arrays
      (timestamps, Defs. 1–3 visibility, execution order, Lemma-2
      tiebreak) are recomputed.  With ``jitter == 0`` and an unchanged
      delay model, a cache hit costs two ``np.array_equal`` scans.

    ``visibility=False`` skips the Defs. 1–3 / execution-order masks for
    callers that only need the plan and the Lemma-2 tiebreak (the
    process-backend master, whose workers evaluate visibility on their
    own edge intervals).

    Direction-optimizing callers pass ``eidx=`` (the sorted union of the
    frontier's out- and in-edge ids) to :meth:`plan`: the vertex-level
    plan — and crucially the jitter stream position, one draw of size
    ``ids.size`` per iteration — is shared between directions, while the
    edge-level predicates are evaluated only on the touched slice (a
    :class:`SparsePlan` stored at :attr:`sparse`).  Dense edge arrays
    are rebuilt lazily the next time a pull iteration needs them, so
    alternating directions under ``direction="auto"`` stays bit-stable.
    """

    def __init__(self, graph: DiGraph, num_threads: int, *, policy,
                 jitter: float, rng, visibility: bool = True):
        self.src = graph.edge_src
        self.dst = graph.edge_dst
        self.n = graph.num_vertices
        self.p = num_threads
        self.policy = policy
        self.jitter = jitter
        self.rng = rng
        self.visibility = visibility
        self.hits = 0
        self._ids: np.ndarray | None = None
        self._dm = None
        self._d_pair = None
        self._d_pair_dm = None
        self._dense_valid = False
        self._dense_time_fresh = False
        self.sparse: SparsePlan | None = None

    def _rebuild_structure(self) -> None:
        src, dst = self.src, self.dst
        self.thr_s, self.thr_d = self.thr_v[src], self.thr_v[dst]
        pi_s, pi_d = self.pi_v[src], self.pi_v[dst]
        self.both = self.active[src] & self.active[dst] & (src != dst)
        self.same = self.thr_s == self.thr_d
        self.dt = self.both & (self.thr_s != self.thr_d)
        # π comparisons are time-independent; precompute for reuse.
        self._pi_sd = pi_s < pi_d
        self._pi_ds = pi_d < pi_s
        self._pi_tie_sd = (pi_s == pi_d) & (self.thr_s < self.thr_d)

    def _rebuild_time_dependent(self) -> None:
        src, dst = self.src, self.dst
        t_s, t_d = self.time_v[src], self.time_v[dst]
        self.t_s, self.t_d = t_s, t_d
        # Lemma-2 tiebreak: later time wins; equal time → larger vid.
        self.dst_wins = (t_d > t_s) | ((t_d == t_s) & (dst > src))
        if not self.visibility:
            return
        both, same, d_pair = self.both, self.same, self._d_pair
        self.vis_s2d = both & np.where(same, self._pi_sd, (t_d - t_s) >= d_pair)
        self.vis_d2s = both & np.where(same, self._pi_ds, (t_s - t_d) >= d_pair)
        self.lex_sd = both & (
            (t_s < t_d) | ((t_s == t_d) & (self._pi_sd | self._pi_tie_sd))
        )
        self.lex_ds = both & ~self.lex_sd

    def _rebuild_vertex(self) -> None:
        n = self.n
        self.thr_v = np.full(n, -1, dtype=np.int64)
        self.pi_v = np.zeros(n, dtype=np.int64)
        self.time_v = np.zeros(n, dtype=np.float64)
        self.active = np.zeros(n, dtype=bool)
        self.thr_v[self._ids] = self.thr_a
        self.pi_v[self._ids] = self.pi_a
        self.active[self._ids] = True

    def plan(self, active_ids: np.ndarray, dm,
             eidx: np.ndarray | None = None) -> "PlanCache":
        """(Re)compute the plan for ``active_ids`` under delay model ``dm``.

        With ``eidx`` (sorted edge-id subset) only the vertex-level plan
        and the sparse predicates at :attr:`sparse` are produced; the
        dense edge arrays are left alone and marked stale.
        """
        ids = np.asarray(active_ids, dtype=np.int64)
        hit = (
            self._ids is not None
            and ids.size == self._ids.size
            and bool(np.array_equal(ids, self._ids))
        )
        dm_changed = dm != self._dm
        if hit:
            self.hits += 1
            if self.jitter > 0:
                # Same draw plan_arrays would make, same stream position.
                self.time_a = self.pi_a + self.rng.uniform(
                    0.0, self.jitter, size=int(ids.size))
                self.time_v[self._ids] = self.time_a
        else:
            self._ids = ids.copy()
            self.thr_a, self.pi_a, self.time_a = plan_arrays(
                ids, self.p, policy=self.policy, jitter=self.jitter,
                rng=self.rng,
            )
            self._rebuild_vertex()
            self.time_v[self._ids] = self.time_a
            self._dense_valid = False
        if dm_changed:
            self._dm = dm
        time_stale = (not hit) or self.jitter > 0 or dm_changed
        if time_stale:
            self._dense_time_fresh = False
        if eidx is not None:
            self.sparse = SparsePlan(self, eidx, dm)
            return self
        self.sparse = None
        if not self._dense_valid:
            self._rebuild_structure()
            self._dense_valid = True
            self._dense_time_fresh = False
            self._d_pair_dm = None  # thr_s/thr_d changed under _d_pair
        if self._d_pair_dm != dm or self._d_pair is None:
            self._d_pair = dm.intra if dm.is_uniform else dm.delays(
                self.thr_s, self.thr_d)
            self._d_pair_dm = dm
        if not self._dense_time_fresh:
            self._rebuild_time_dependent()
            self._dense_time_fresh = True
        return self


class SparsePlan:
    """Edge-level plan predicates evaluated on a touched-edge slice.

    Same formulas as :meth:`PlanCache._rebuild_structure` /
    :meth:`PlanCache._rebuild_time_dependent`, gathered per element of
    ``eidx`` instead of over all ``m`` edges — the push direction's
    analogue of the dense edge arrays.  All attributes are aligned with
    ``eidx`` (length ``len(eidx)``).  Visibility/order masks are only
    computed when the owning cache was built with ``visibility=True``.
    """

    __slots__ = (
        "eidx", "thr_s", "thr_d", "t_s", "t_d", "dst_wins",
        "both", "same", "dt", "vis_s2d", "vis_d2s", "lex_sd", "lex_ds",
    )

    def __init__(self, cache: PlanCache, eidx: np.ndarray, dm):
        self.eidx = eidx
        s = cache.src[eidx]
        d = cache.dst[eidx]
        thr_s, thr_d = cache.thr_v[s], cache.thr_v[d]
        t_s, t_d = cache.time_v[s], cache.time_v[d]
        self.thr_s, self.thr_d = thr_s, thr_d
        self.t_s, self.t_d = t_s, t_d
        # Lemma-2 tiebreak: later time wins; equal time → larger vid.
        self.dst_wins = (t_d > t_s) | ((t_d == t_s) & (d > s))
        if not cache.visibility:
            return
        pi_s, pi_d = cache.pi_v[s], cache.pi_v[d]
        active = cache.active
        both = active[s] & active[d] & (s != d)
        same = thr_s == thr_d
        self.both, self.same = both, same
        self.dt = both & ~same
        d_pair = dm.intra if dm.is_uniform else dm.delays(thr_s, thr_d)
        pi_sd = pi_s < pi_d
        self.vis_s2d = both & np.where(same, pi_sd, (t_d - t_s) >= d_pair)
        self.vis_d2s = both & np.where(same, pi_d < pi_s, (t_s - t_d) >= d_pair)
        self.lex_sd = both & (
            (t_s < t_d)
            | ((t_s == t_d) & (pi_sd | ((pi_s == pi_d) & (thr_s < thr_d))))
        )
        self.lex_ds = both & ~self.lex_sd


class NondetPassContext:
    """Everything one whole-graph pass may read, and where it writes.

    The engine owns the arrays; a :class:`NondetKernel` fills the output
    slots for the vertices it is asked to (re)compute.  All edge-indexed
    arrays are full-size (``m`` entries) and CSR-aligned with
    ``graph.edge_src`` / ``graph.edge_dst``.

    Positions are source-sorted with ties in id order (canonical edge
    ids; PSW slots within a shard), so walking them in positional order
    visits every destination's in-edges in ascending-source order — the
    order the scalar gather loops read them.  Float kernels accumulate
    positionally and rely on it (DESIGN §6.1).
    """

    __slots__ = (
        "graph",
        "src",
        "dst",
        "n",
        "m",
        "selfloop",
        "out_degrees",
        "active",
        "committed",
        "v0",
        "seen_s",
        "seen_d",
        "vout",
        "ws",
        "wvs",
        "wd",
        "wvd",
        "rs",
        "rd",
    )

    def __init__(self, graph: DiGraph, state: State, active: np.ndarray,
                 written_fields: tuple[str, ...], *,
                 out_degrees: np.ndarray | None = None,
                 selfloop: np.ndarray | None = None):
        self.graph = graph
        self.src = graph.edge_src
        self.dst = graph.edge_dst
        self.n = graph.num_vertices
        self.m = graph.num_edges
        self.selfloop = (
            selfloop if selfloop is not None else self.src == self.dst
        )
        self.out_degrees = (
            out_degrees if out_degrees is not None else graph.out_degrees()
        )
        self.active = active
        #: Pre-iteration edge arrays (what the last barrier committed).
        self.committed = {f: state.edge(f) for f in state.edge_field_names}
        #: Pre-iteration vertex arrays — kernels read these, never mutate.
        self.v0 = {f: state.vertex(f) for f in state.vertex_field_names}
        #: Post-iteration vertex values; applied to the state at the barrier.
        self.vout = {f: state.vertex(f).copy() for f in state.vertex_field_names}
        # What each endpoint *sees* on each edge: committed, overridden by
        # the other endpoint's write where visible.  Read-only fields stay
        # aliased to committed; written fields are replaced per fix-point
        # round by the engine.
        self.seen_s = dict(self.committed)
        self.seen_d = dict(self.committed)
        # Outputs: per written field, did src/dst write the edge and what.
        self.ws = {f: np.zeros(self.m, dtype=bool) for f in written_fields}
        self.wd = {f: np.zeros(self.m, dtype=bool) for f in written_fields}
        self.wvs = {
            f: np.zeros(self.m, dtype=self.committed[f].dtype) for f in written_fields
        }
        self.wvd = {
            f: np.zeros(self.m, dtype=self.committed[f].dtype) for f in written_fields
        }
        # Read-record counts per edge and side (src-task reads / dst-task
        # reads), for every edge field including read-only ones — they
        # drive both the conflict totals and the per-thread work profile.
        self.rs = {f: np.zeros(self.m, dtype=np.int64) for f in state.edge_field_names}
        self.rd = {f: np.zeros(self.m, dtype=np.int64) for f in state.edge_field_names}


class NondetKernel(abc.ABC):
    """One program's racy iteration as whole-graph array passes.

    ``written_fields`` names the edge fields the program may write.
    :meth:`run_pass` computes gather → compute → scatter for every
    vertex in ``sub`` (a boolean mask, subset of the active set) from
    the context's *seen* arrays, overwriting **all** outputs owned by
    those vertices: ``vout[v]``, and ``ws/wvs/rs`` (``wd/wvd/rd``) for
    every edge whose source (destination) lies in ``sub`` — a repair
    pass may legitimately flip an earlier pass's write off again.
    """

    written_fields: tuple[str, ...] = ()

    #: field -> :class:`~repro.engine.push.CombineOp` when every scatter
    #: of the kernel is an order-independent atomic combine (so the
    #: sparse push direction can re-run the same racy iteration over the
    #: frontier's touched edges only, bit for bit).  ``None`` = pull-only;
    #: :func:`push_fallback_reasons` additionally demands the combines
    #: be idempotent, since a non-idempotent float combine (ADD) leaks
    #: delivery order into the result.
    push_combines: dict[str, object] | None = None

    @abc.abstractmethod
    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray) -> None:
        ...

    @abc.abstractmethod
    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray) -> None:
        """:meth:`run_pass` evaluated on CSR/CSC edge-id slices.

        ``sub_ids`` are the sorted vertex ids to (re)compute; ``es`` /
        ``ed`` are their out- / in-edge ids (``graph.out_edge_ids`` /
        ``graph.in_edge_ids``).  The kernel must write exactly the
        positions a dense :meth:`run_pass` over the same vertices would
        — ``vout[sub_ids]``, ``ws/wvs/rs`` at ``es``, ``wd/wvd/rd`` at
        ``ed`` — with bitwise-identical values, at a cost proportional
        to the slices instead of ``m``.  Every kernel has one: repair
        passes over small dirty sets take it in either direction; the
        push *direction* additionally needs :attr:`push_combines`.
        """


# -- kernel registry ------------------------------------------------------

#: program class -> factory(program) -> NondetKernel
_KERNELS: dict[type, object] = {}
_REGISTRY_LOADED = False


def register_nondet_kernel(program_cls: type, factory) -> None:
    """Register ``factory(program) -> NondetKernel`` for a program class.

    Subclasses of ``program_cls`` resolve to the same kernel as long as
    they inherit ``update`` unchanged (an overridden update function
    means the kernel no longer models the program — such subclasses fall
    back to the object engine).
    """
    _KERNELS[program_cls] = factory


def _ensure_registry() -> None:
    global _REGISTRY_LOADED
    if not _REGISTRY_LOADED:
        # Kernel implementations live next to their programs; importing
        # the module runs the register_nondet_kernel calls.  Lazy so the
        # engine package and the algorithms package don't import-cycle.
        from ..algorithms import vectorized  # noqa: F401

        _REGISTRY_LOADED = True


def resolve_nondet_kernel(program: VertexProgram):
    """The kernel factory for ``program``, or ``None`` if not vectorizable."""
    _ensure_registry()
    for cls in type(program).__mro__:
        factory = _KERNELS.get(cls)
        if factory is not None:
            # A subclass that overrides update() is a different algorithm.
            if type(program).update is not cls.update:
                return None
            return factory
    return None


def fallback_reasons(program: VertexProgram, config: EngineConfig) -> list[str]:
    """Why ``(program, config)`` cannot take the vectorized fast path.

    Empty list means eligible.  The conditions: the program needs a
    registered kernel whose update function it actually runs, and the
    configuration must not request behaviours that only the per-access
    object store models (torn-value injection, runtime scope checks,
    fp-noise gather permutation, individual conflict-event capture).
    """
    reasons = []
    if resolve_nondet_kernel(program) is None:
        reasons.append(
            f"no vectorized nondet kernel registered for {type(program).__name__}"
        )
    if config.atomicity is AtomicityPolicy.NONE:
        reasons.append("atomicity=NONE injects torn values per access")
    if config.fp_noise:
        reasons.append("fp_noise permutes gather order per update")
    if config.validate_scope:
        reasons.append("validate_scope checks each access at runtime")
    if config.keep_conflict_events:
        reasons.append("keep_conflict_events records individual events")
    return reasons


class _PushShadow:
    """Adapter presenting a pull-mode program's scatter semantics to
    :func:`repro.theory.eligibility.check_push_program`."""

    def __init__(self, traits, accumulators):
        self.traits = traits
        self._accumulators = accumulators

    def accumulators(self):
        return self._accumulators


def push_fallback_reasons(program: VertexProgram) -> list[str]:
    """Why ``program`` cannot run in the sparse *push* direction.

    Empty list means push-eligible.  Three gates, in order:

    1. a vectorized kernel must exist (push reuses the kernel registry);
    2. the kernel must declare :attr:`NondetKernel.push_combines` — a
       per-field :class:`~repro.engine.push.CombineOp` asserting every
       scatter is an atomic combine — and the §IV push-eligibility
       checker (:func:`~repro.theory.eligibility.check_push_program`)
       must return ``ELIGIBLE_PUSH`` for those combines under the
       program's declared traits;
    3. every combine must additionally be *idempotent* (MIN/MAX, not
       ADD): push re-derives each frontier vertex's value from its
       touched edges only, so an order-dependent float reduction would
       break the bit-reproducibility contract the engine promises per
       (mode, seed).
    """
    factory = resolve_nondet_kernel(program)
    if factory is None:
        return [
            f"no vectorized nondet kernel registered for {type(program).__name__}"
        ]
    combines = factory(program).push_combines
    if not combines:
        return [
            f"kernel for {type(program).__name__} has no push-mode scatter "
            "(push_combines is None: its scatters are not atomic combines)"
        ]
    from ..theory.eligibility import Verdict, check_push_program
    from .push import AccumulatorSpec

    shadow = _PushShadow(
        program.traits,
        {f: AccumulatorSpec(op) for f, op in combines.items()},
    )
    report = check_push_program(shadow)
    if report.verdict is not Verdict.ELIGIBLE_PUSH:
        return list(report.reasons) or [
            f"check_push_program verdict is {report.verdict.name}"
        ]
    non_idem = [f for f, op in sorted(combines.items()) if not op.idempotent]
    if non_idem:
        return [
            "combine for field(s) " + ", ".join(non_idem) + " is not "
            "idempotent: float delivery order would leak into the result, "
            "breaking per-(mode, seed) bit-reproducibility"
        ]
    return []


def emit_edge_provenance(
    record, iteration, f, e, *, u, v, selfloop,
    ws, wd, wvs, wvd, rs, rd, pre,
    vis_s2d, vis_d2s, dst_wins, t_s, t_d, thr_s, thr_d, wants_reads,
) -> None:
    """Canonical provenance events for one written edge (scalar inputs).

    Factored out of :meth:`VectorizedNondetEngine._emit_provenance` so
    engines that hold edge data in interval-local layouts (the
    out-of-core runner) can gather their sparse per-edge tuples into
    canonical order and replay the identical event stream.
    """
    if selfloop:
        # One task, one effective writer; reader==writer pairs are
        # skipped by the object engine too.
        record.commit_event(
            iteration=iteration, field=f, eid=e,
            writer=u, writer_thread=thr_s,
            value=wvs if ws else wvd, lost=[], rule="uncontended",
        )
        return
    pairs = []
    if rs > 0 and wd:
        pairs.append((u, v))
    if rd > 0 and ws:
        pairs.append((v, u))
    if wants_reads:
        for reader, writer in sorted(pairs):
            if reader == u:  # src reads dst's write
                visible = vis_d2s
                issued = t_d <= t_s
                observed = wvd if visible else pre
                count = rs
                thread_r, thread_w = thr_s, thr_d
            else:  # dst reads src's write
                visible = vis_s2d
                issued = t_s <= t_d
                observed = wvs if visible else pre
                count = rd
                thread_r, thread_w = thr_d, thr_s
            if visible:
                order, rule = "before", "lemma1-fresh"
            elif issued:
                order, rule = "concurrent", "lemma1-stale"
            else:
                order, rule = "after", "lemma1-old"
            record.read_event(
                iteration=iteration, field=f, eid=e,
                reader=reader, reader_thread=thread_r,
                writer=writer, writer_thread=thread_w,
                count=count, order=order, rule=rule,
                value=observed,
            )
    if ws and wd:
        if dst_wins:
            winner, winner_thread, value = v, thr_d, wvd
            loser, loser_thread, loser_value = u, thr_s, wvs
            vis_lw, vis_wl = vis_s2d, vis_d2s
        else:
            winner, winner_thread, value = u, thr_s, wvs
            loser, loser_thread, loser_value = v, thr_d, wvd
            vis_lw, vis_wl = vis_d2s, vis_s2d
        if vis_lw:
            order = "before"
        elif vis_wl:
            order = "after"
        else:
            order = "concurrent"
        lost = [{"vid": loser, "thread": loser_thread,
                 "value": loser_value, "order": order}]
        record.commit_event(
            iteration=iteration, field=f, eid=e,
            writer=winner, writer_thread=winner_thread,
            value=value, lost=lost, rule="lemma2",
        )
    elif ws:
        record.commit_event(
            iteration=iteration, field=f, eid=e,
            writer=u, writer_thread=thr_s,
            value=wvs, lost=[], rule="uncontended",
        )
    else:
        record.commit_event(
            iteration=iteration, field=f, eid=e,
            writer=v, writer_thread=thr_d,
            value=wvd, lost=[], rule="uncontended",
        )


class _RunConstants(NamedTuple):
    """Per-run graph-derived arrays, computed once in ``run``."""

    out_degrees: np.ndarray
    in_degrees: np.ndarray
    selfloop: np.ndarray
    #: ``config.direction_alpha``: a repair pass takes the slice path
    #: when its dirty set's incident mass passes the same Beamer test
    #: that picks the push direction.
    alpha: float


class VectorizedNondetEngine:
    """Whole-graph racy iterations, bit-for-bit equal to the object engine."""

    mode = "nondeterministic"

    @staticmethod
    def _repair(kernel, graph, ctx, written, topo, num_active, plan,
                eidx=None):
        """Stale-read repair by chaotic iteration, shared by both directions.

        Pass 1 ran against the committed snapshot; each round here
        re-derives what every endpoint *sees* (committed, overridden by
        the far endpoint's write where Defs. 1–3 make it visible), marks
        the vertices whose seen inputs changed, and recomputes exactly
        those.  Visibility implies strict precedence in the execution
        order, so the dependence relation is a DAG and the iteration
        reaches the exact per-access semantics in at most depth+1
        passes.

        A round costs what its dirty set costs.  Detection is *wide*
        (all ``m`` edges in pull; ``eidx``, the frontier's touched
        edges with ``plan`` aligned to it, in push) after pass 1 and
        after a wide repair pass.  When the dirty set's incident mass
        passes the Beamer test the repair pass runs on its CSR/CSC
        slices ``(es, ed)`` instead, and the next detection is
        *slot-local*: a pass over ``S`` can only change ``ws/wvs`` on
        out-edges of ``S`` and ``wd/wvd`` on in-edges of ``S``, so only
        ``seen_d`` on ``es`` and ``seen_s`` on ``ed`` can differ from
        the private seen buffers, which are patched in place.  Dirty
        sets, pass order and every value are the same either way.

        Returns ``(repair passes, how many of them took the slice path)``.
        """
        n, m = graph.num_vertices, graph.num_edges
        src, dst = ctx.src, ctx.dst
        dense = eidx is None
        everything = slice(None)
        wide = everything if dense else eidx
        touched = None  # (es, ed) of the previous pass if it was a slice pass
        passes = slice_passes = 0
        for _ in range(num_active + 2):
            # e_*: edge ids to re-derive seen_d / seen_s on; p_*: their
            # positions in ``plan``'s (eidx-aligned when sparse) arrays.
            if touched is None:
                e_d = e_s = wide
                p_d = p_s = everything
            elif dense:
                e_d, e_s = p_d, p_s = touched
            else:
                e_d, e_s = touched
                p_d = np.searchsorted(eidx, e_d)
                p_s = np.searchsorted(eidx, e_s)
            swap = dense and touched is None
            dirty = np.zeros(n, dtype=bool)
            changed_any = False
            for f in written:
                com = ctx.committed[f]
                seen_d = np.where(
                    plan.vis_s2d[p_d] & ctx.ws[f][e_d], ctx.wvs[f][e_d], com[e_d]
                )
                seen_s = np.where(
                    plan.vis_d2s[p_s] & ctx.wd[f][e_s], ctx.wvd[f][e_s], com[e_s]
                )
                d_changed = seen_d != ctx.seen_d[f][e_d]
                s_changed = seen_s != ctx.seen_s[f][e_s]
                changed = bool(d_changed.any() or s_changed.any())
                if changed:
                    changed_any = True
                    dirty[dst[e_d][d_changed]] = True
                    dirty[src[e_s][s_changed]] = True
                if swap:
                    # A dense round yields fresh full-size arrays: adopt
                    # them as the private seen buffers, no copy.
                    ctx.seen_d[f], ctx.seen_s[f] = seen_d, seen_s
                elif changed:
                    # Elsewhere seen == committed until a write lands;
                    # materialize private buffers on first divergence.
                    if ctx.seen_d[f] is com:
                        ctx.seen_d[f] = com.copy()
                        ctx.seen_s[f] = com.copy()
                    ctx.seen_d[f][e_d] = seen_d
                    ctx.seen_s[f][e_s] = seen_s
            if not changed_any:
                break
            sub = dirty & ctx.active
            sub_ids = np.flatnonzero(sub)
            local = incident_mass(
                sub_ids, topo.out_degrees, topo.in_degrees) * topo.alpha < m
            if local or not dense:
                es = graph.out_edge_ids(sub_ids)
                ed = graph.in_edge_ids(sub_ids)
                kernel.run_slice_pass(ctx, sub_ids, es, ed)
            else:
                kernel.run_pass(ctx, sub)
            touched = (es, ed) if local else None
            passes += 1
            slice_passes += local
        else:  # pragma: no cover - DAG depth bound violated
            raise RuntimeError("nondet fix-point failed to converge")
        return passes, slice_passes

    @staticmethod
    def _emit_provenance(
        record, ctx, state, iteration, written,
        vis_s2d, vis_d2s, dst_wins, t_s, t_d, thr_s, thr_d,
    ) -> None:
        """Bulk equivalent of ``_RacyStore._record_provenance``.

        Emits the identical canonical event stream the object engine
        produces on the same schedule — fields alphabetically, edges
        ascending, per edge the Lemma-1 read pairs (readers by vid) then
        the Lemma-2 commit.  The §II scope rule caps an edge at two
        readers and two writers (its endpoints), so the object engine's
        per-record replay collapses to the precomputed ``vis_s2d`` /
        ``vis_d2s`` / ``dst_wins`` predicates.  No pre-filtering by
        policy: the recorder's offered/dropped counters (and reservoir
        sampling stream) must also match the object engine's.
        """
        src, dst = ctx.src, ctx.dst
        selfloop = ctx.selfloop
        for f in sorted(written):
            ws, wd = ctx.ws[f], ctx.wd[f]
            wvs, wvd = ctx.wvs[f], ctx.wvd[f]
            rs, rd = ctx.rs[f], ctx.rd[f]
            pre = state.edge(f)
            wants_reads = record.wants_reads
            for e in np.flatnonzero(ws | wd):
                e = int(e)
                emit_edge_provenance(
                    record, iteration, f, e,
                    u=int(src[e]), v=int(dst[e]), selfloop=bool(selfloop[e]),
                    ws=bool(ws[e]), wd=bool(wd[e]),
                    wvs=float(wvs[e]), wvd=float(wvd[e]),
                    rs=int(rs[e]), rd=int(rd[e]), pre=float(pre[e]),
                    vis_s2d=bool(vis_s2d[e]), vis_d2s=bool(vis_d2s[e]),
                    dst_wins=bool(dst_wins[e]),
                    t_s=float(t_s[e]), t_d=float(t_d[e]),
                    thr_s=int(thr_s[e]), thr_d=int(thr_d[e]),
                    wants_reads=wants_reads,
                )

    @staticmethod
    def _emit_provenance_sparse(record, ctx, state, iteration, written,
                                eidx, sp) -> None:
        """Push-direction provenance: identical event stream, sparse walk.

        All writes land inside ``eidx`` (kernels only touch the
        frontier's out-/in-edge slices) and ``eidx`` is sorted, so
        walking its written positions visits edges in the same ascending
        canonical order the dense emitter uses — recorder byte-parity
        between directions.
        """
        src, dst = ctx.src, ctx.dst
        selfloop = ctx.selfloop
        for f in sorted(written):
            ws, wd = ctx.ws[f][eidx], ctx.wd[f][eidx]
            wvs, wvd = ctx.wvs[f][eidx], ctx.wvd[f][eidx]
            rs, rd = ctx.rs[f][eidx], ctx.rd[f][eidx]
            pre = state.edge(f)
            wants_reads = record.wants_reads
            for pos in np.flatnonzero(ws | wd):
                pos = int(pos)
                e = int(eidx[pos])
                emit_edge_provenance(
                    record, iteration, f, e,
                    u=int(src[e]), v=int(dst[e]), selfloop=bool(selfloop[e]),
                    ws=bool(ws[pos]), wd=bool(wd[pos]),
                    wvs=float(wvs[pos]), wvd=float(wvd[pos]),
                    rs=int(rs[pos]), rd=int(rd[pos]), pre=float(pre[e]),
                    vis_s2d=bool(sp.vis_s2d[pos]), vis_d2s=bool(sp.vis_d2s[pos]),
                    dst_wins=bool(sp.dst_wins[pos]),
                    t_s=float(sp.t_s[pos]), t_d=float(sp.t_d[pos]),
                    thr_s=int(sp.thr_s[pos]), thr_d=int(sp.thr_d[pos]),
                    wants_reads=wants_reads,
                )

    def _push_iteration(self, kernel, graph, state, plan_cache, dm_i,
                        active_ids, written, topo, log, record, iteration,
                        p, clock=None):
        """One racy iteration in the sparse *push* direction.

        Executes the identical iteration :meth:`_pull_iteration` would —
        same seen values, same fix-point schedule, same Lemma-2 commits,
        same conflict totals, same recorder events — but every edge
        computation runs only over the frontier's touched edges
        (out-edges ∪ in-edges of the active set) instead of all ``m``.
        """
        n = graph.num_vertices
        src, dst = graph.edge_src, graph.edge_dst
        es_all = graph.out_edge_ids(active_ids)
        ed_all = graph.in_edge_ids(active_ids)
        eidx = np.union1d(es_all, ed_all)
        plan = plan_cache.plan(active_ids, dm_i, eidx)
        sp = plan.sparse

        ctx = NondetPassContext(
            graph, state, plan.active, written,
            out_degrees=topo.out_degrees, selfloop=topo.selfloop,
        )
        if clock is not None:
            clock.lap("plan_build")
        kernel.run_slice_pass(ctx, active_ids, es_all, ed_all)
        if clock is not None:
            clock.lap("push_scatter")
        passes, slice_passes = self._repair(
            kernel, graph, ctx, written, topo, int(active_ids.size), sp, eidx)
        if clock is not None:
            clock.lap("repair_pass")

        next_mask = np.zeros(n, dtype=bool)
        if record is not None:
            self._emit_provenance_sparse(
                record, ctx, state, iteration, written, eidx, sp)
        dt = sp.dt
        dst_wins = sp.dst_wins
        for f in written:
            ws, wd = ctx.ws[f][eidx], ctx.wd[f][eidx]
            wvs, wvd = ctx.wvs[f][eidx], ctx.wvd[f][eidx]
            arr = state.edge(f)
            both_w = ws & wd
            only = ws & ~wd
            arr[eidx[only]] = wvs[only]
            only = wd & ~ws
            arr[eidx[only]] = wvd[only]
            sel = both_w & dst_wins
            arr[eidx[sel]] = wvd[sel]
            sel = both_w & ~dst_wins
            arr[eidx[sel]] = wvs[sel]
            next_mask[dst[eidx[ws]]] = True
            next_mask[src[eidx[wd]]] = True

            rs, rd = ctx.rs[f][eidx], ctx.rd[f][eidx]
            rw = int(rs[wd & dt].sum()) + int(rd[ws & dt].sum())
            ww_mask = both_w & dt
            ww = int(np.count_nonzero(ww_mask))
            contended = int(
                np.count_nonzero(
                    ((rs > 0) & wd & dt) | ((rd > 0) & ws & dt) | ww_mask
                )
            )
            stale = int(rs[wd & sp.lex_ds & ~sp.vis_d2s].sum()) + int(
                rd[ws & sp.lex_sd & ~sp.vis_s2d].sum()
            )
            log.read_write += rw
            log.write_write += ww
            log.contended_edges += contended
            log.lost_writes += ww
            log.stale_reads += stale
            if rw + ww:
                log.per_iteration[iteration] += rw + ww

        upd_t = np.bincount(plan.thr_a, minlength=p)
        reads_t = np.zeros(p, dtype=np.int64)
        writes_t = np.zeros(p, dtype=np.int64)
        for f in state.edge_field_names:
            for counts, thr_e in (
                (ctx.rs[f][eidx], sp.thr_s), (ctx.rd[f][eidx], sp.thr_d)
            ):
                mask = counts > 0
                if mask.any():
                    reads_t += np.bincount(
                        thr_e[mask], weights=counts[mask], minlength=p
                    ).astype(np.int64)
        for f in written:
            writes_t += np.bincount(sp.thr_s[ctx.ws[f][eidx]], minlength=p)
            writes_t += np.bincount(sp.thr_d[ctx.wd[f][eidx]], minlength=p)
        return (ctx, next_mask, upd_t, reads_t, writes_t,
                1 + passes, slice_passes)

    def _pull_iteration(self, kernel, graph, state, plan_cache, dm_i,
                        active_ids, written, topo, log, record, iteration,
                        p, clock=None):
        """One racy iteration in the dense *pull* direction (all m edges)."""
        n = graph.num_vertices
        src, dst = graph.edge_src, graph.edge_dst
        plan = plan_cache.plan(active_ids, dm_i)
        thr_s, thr_d = plan.thr_s, plan.thr_d
        t_s, t_d = plan.t_s, plan.t_d
        vis_s2d, vis_d2s = plan.vis_s2d, plan.vis_d2s
        lex_sd, lex_ds = plan.lex_sd, plan.lex_ds

        ctx = NondetPassContext(
            graph, state, plan.active, written,
            out_degrees=topo.out_degrees, selfloop=topo.selfloop,
        )
        if clock is not None:
            clock.lap("plan_build")
        # Pass 1 computes every active vertex against the committed
        # snapshot; :meth:`_repair` then recomputes only vertices whose
        # seen inputs changed.
        kernel.run_pass(ctx, plan.active)
        if clock is not None:
            clock.lap("gather")
        passes, slice_passes = self._repair(
            kernel, graph, ctx, written, topo, int(active_ids.size), plan)
        if clock is not None:
            clock.lap("repair_pass")

        # Barrier: Lemma-2 winners, conflict totals, work profile.
        next_mask = np.zeros(n, dtype=bool)
        dt = plan.dt
        dst_wins = plan.dst_wins
        if record is not None:
            # Provenance must flow *before* the commit assignments:
            # ctx.committed aliases the live state arrays, and the
            # events need each edge's pre-commit value.
            self._emit_provenance(
                record, ctx, state, iteration, written,
                vis_s2d, vis_d2s, dst_wins, t_s, t_d, thr_s, thr_d,
            )
        for f in written:
            ws, wd = ctx.ws[f], ctx.wd[f]
            wvs, wvd = ctx.wvs[f], ctx.wvd[f]
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
            # Task-generation rule: a written edge schedules the far
            # endpoint (a written self-loop re-schedules its vertex).
            next_mask[dst[ws]] = True
            next_mask[src[wd]] = True

            rs, rd = ctx.rs[f], ctx.rd[f]
            rw = int(rs[wd & dt].sum()) + int(rd[ws & dt].sum())
            ww_mask = both_w & dt
            ww = int(np.count_nonzero(ww_mask))
            contended = int(
                np.count_nonzero(
                    ((rs > 0) & wd & dt) | ((rd > 0) & ws & dt) | ww_mask
                )
            )
            # A read is stale when the other endpoint's write was
            # already issued (lex before) yet not visible to it.
            stale = int(rs[wd & lex_ds & ~vis_d2s].sum()) + int(
                rd[ws & lex_sd & ~vis_s2d].sum()
            )
            log.read_write += rw
            log.write_write += ww
            log.contended_edges += contended
            log.lost_writes += ww
            log.stale_reads += stale
            if rw + ww:
                log.per_iteration[iteration] += rw + ww

        upd_t = np.bincount(plan.thr_a, minlength=p)
        reads_t = np.zeros(p, dtype=np.int64)
        writes_t = np.zeros(p, dtype=np.int64)
        for f in state.edge_field_names:
            for counts, thr_e in ((ctx.rs[f], thr_s), (ctx.rd[f], thr_d)):
                mask = counts > 0
                if mask.any():
                    reads_t += np.bincount(
                        thr_e[mask], weights=counts[mask], minlength=p
                    ).astype(np.int64)
        for f in written:
            writes_t += np.bincount(thr_s[ctx.ws[f]], minlength=p)
            writes_t += np.bincount(thr_d[ctx.wd[f]], minlength=p)
        return (ctx, next_mask, upd_t, reads_t, writes_t,
                1 + passes, slice_passes)

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
        sink = telemetry
        reasons = fallback_reasons(program, config)
        if reasons:
            raise ValueError(
                "program/config not eligible for the vectorized nondeterministic "
                "fast path: " + "; ".join(reasons)
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
        if sink is not None:
            sink.begin_engine_run(self.mode, program, config)
        if record is not None:
            record.begin_engine_run(self.mode, program, config)
        kernel = resolve_nondet_kernel(program)(program)
        state = state if state is not None else program.make_state(graph)

        n, m = graph.num_vertices, graph.num_edges
        src, dst = graph.edge_src, graph.edge_dst
        out_degrees = graph.out_degrees()
        in_degrees = graph.in_degrees()
        topo = _RunConstants(
            out_degrees=out_degrees, in_degrees=in_degrees,
            selfloop=src == dst,
            alpha=config.direction_alpha,
        )
        written = kernel.written_fields
        delay_model = config.effective_delay_model()
        jitter_rng = (
            np.random.default_rng(np.random.SeedSequence([config.seed, 2]))
            if config.jitter > 0
            else None
        )

        log = ConflictLog(keep_events=config.keep_conflict_events)
        stats: list[IterationStats] = []
        frontier_ids = initial_frontier(program, graph).sorted_vertices()
        iteration = 0
        if supervisor is not None:
            rngs = {"jitter": jitter_rng} if jitter_rng is not None else {}
            iteration, frontier_ids = supervisor.engine_start(
                self.mode, program, config, state=state, frontier=frontier_ids,
                rngs=rngs, conflicts=log,
            )
        converged = False
        total_passes = 0
        slice_passes = 0
        push_iterations = 0
        dir_trace: list[str] = []
        p = config.threads
        # Per-iteration plan with frontier-unchanged reuse: Defs. 1–3 for
        # every edge at once (only pairs of *distinct* active endpoints
        # can exchange same-iteration values) plus the global execution
        # order (time, π, thread) — an *invisible* write only stales
        # reads issued after it.
        plan_cache = PlanCache(graph, p, policy=config.dispatch,
                               jitter=config.jitter, rng=jitter_rng)
        # Phase attribution is pure timing (one perf_counter lap per
        # phase boundary, per iteration): it consumes no RNG stream and
        # touches no state, so profiled runs stay bit-identical.
        clock = PhaseClock() if (sink is not None or metrics is not None) \
            else None
        while iteration < config.max_iterations:
            if frontier_ids.size == 0:
                converged = True
                break
            if supervisor is not None:
                supervisor.pre_iteration(iteration)
                dm_i = supervisor.iteration_delay_model(iteration, delay_model)
            else:
                dm_i = delay_model
            t0 = time.perf_counter() if clock is not None else 0.0
            if clock is not None:
                clock.start()
            rw0, ww0 = log.read_write, log.write_write
            active_ids = frontier_ids
            dir_i = choose_direction(
                direction, active_ids, out_degrees, in_degrees,
                m, n, config, push_ok,
            )
            if direction != "pull":
                dir_trace.append(dir_i)
            if dir_i == "push":
                push_iterations += 1
                step = self._push_iteration
            else:
                step = self._pull_iteration
            ctx, next_mask, upd_t, reads_t, writes_t, passes, sliced = step(
                kernel, graph, state, plan_cache, dm_i, active_ids,
                written, topo, log, record, iteration, p, clock,
            )
            total_passes += passes
            slice_passes += sliced
            stats.append(
                IterationStats(
                    iteration=iteration,
                    num_active=int(active_ids.size),
                    updates_per_thread=[int(x) for x in upd_t],
                    reads_per_thread=[int(x) for x in reads_t],
                    writes_per_thread=[int(x) for x in writes_t],
                )
            )

            for f in state.vertex_field_names:
                state.vertex(f)[active_ids] = ctx.vout[f][active_ids]

            next_ids = np.flatnonzero(next_mask).astype(np.int64)
            if supervisor is not None:
                next_ids = supervisor.post_iteration(
                    iteration, state=state, schedule=next_ids)
            if clock is not None:
                # Everything since the repair loop — Lemma-2 winners,
                # conflict totals, work profile, vertex writeback,
                # frontier materialization — is the commit barrier.
                clock.lap("lemma2_commit")
                wall = time.perf_counter() - t0
                phases = clock.drain()
                if metrics is not None:
                    record_iteration_metrics(
                        metrics, "vectorized", phases=phases,
                        num_active=int(active_ids.size),
                        frontier_size=int(next_ids.size),
                        read_write=log.read_write - rw0,
                        write_write=log.write_write - ww0,
                        wall_time_s=wall,
                    )
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
                    repair_slice_passes=sliced,
                    phases=phases,
                    peak_rss_bytes=peak_rss_bytes(),
                    **({"direction": dir_i} if direction != "pull" else {}),
                )
            if observer is not None:
                observer(iteration, state, {int(v) for v in next_ids})
            frontier_ids = next_ids
            iteration += 1
        # At-cap accounting: converged stays False unless the confirming
        # empty-frontier check at the top of an iteration ran (see
        # tests/test_convergence_conformance.py).

        extra = {"vectorized": True, "fixpoint_passes": total_passes,
                 "repair_slice_passes": slice_passes,
                 "plan_cache_hits": plan_cache.hits}
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
