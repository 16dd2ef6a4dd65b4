"""The nondeterministic array engines' shared core: everything that does
not depend on where the arrays live.

The paper's system model makes whole iterations batchable: the §II
*scope rule* says only an edge's two endpoints may access it, and each
endpoint runs at most once per iteration, so per edge and field there
are **at most two readers and two writers** — the endpoints.  One racy
iteration is therefore a handful of array passes over *aligned* edge
arrays (all ``m`` edges, a frontier's touched edges, a worker's owned
edges, an interval's slot range — the arithmetic is the same), and this
module states each rule of the paper once:

* :class:`EdgePlan` / :func:`visibility` — Defs. 1–3 as one pairwise
  predicate per edge per direction, a pure function of the dispatch
  plan's ``(thread, π, time)`` arrays (:class:`PlanCache`);
* :func:`repair` — a fresh write is visible only to strictly later
  tasks, so within-iteration dependences form a DAG and re-running the
  vertices whose *seen* inputs changed reaches the exact per-access
  semantics in at most depth+1 passes;
* :func:`lemma2_commit`, :func:`conflict_counts`, :func:`commit_on`,
  :func:`count_on`, :func:`emit_provenance` — the commit barrier;
* :class:`ArrayStep` / :func:`run_array` — a backend's iteration as a
  step of the one loop (:func:`~repro.engine.loop.run_loop`).

The three residencies (RAM: ``nondet_vectorized``; one shm segment and
``P`` processes: ``nondet_parallel``; a mapped scratch file swept by
interval: ``nondet_outofcore``) supply arrays and a ``step``; DESIGN
§6.0 maps functions to statements of the paper.  Results are **bit-for-bit
identical** to the object :class:`~repro.engine.nondet_engine.
NondeterministicEngine`, which (with ``engine/ordering.py``) stays
untouched as the oracle.
"""

from __future__ import annotations

import abc
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .atomicity import AtomicityPolicy
from .capabilities import Refused
from .config import EngineConfig
from .conflicts import ConflictLog
from .dispatch import plan_arrays, sequential_plan
from .loop import run_loop
from .program import VertexProgram
from .result import IterationStats, RunResult

__all__ = [
    "ArrayStep",
    "BSP",
    "Barrier",
    "EdgePlan",
    "NondetKernel",
    "NE",
    "NondetPassContext",
    "OUTPUTS",
    "Part",
    "PlanCache",
    "check_eligible",
    "choose_direction",
    "commit_on",
    "conflict_counts",
    "count_on",
    "dense_pass",
    "emit_provenance",
    "fallback_reasons",
    "incident_mass",
    "lemma2_commit",
    "push_fallback_reasons",
    "register_nondet_kernel",
    "repair",
    "resolve_nondet_kernel",
    "run_array",
    "visibility",
]

MODE = "nondeterministic"
#: :class:`PlanCache` schedules; the third, the sequential one, is its
#: per-vertex order key
NE, BSP = "ne", "bsp"
EVERYTHING = slice(None)
#: dtype of ``rs`` / ``rd`` everywhere: 0 or 1 reads per side and pass.
READ_COUNT = np.int8


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


# -- one plan: Defs. 1–3 on any aligned edge set ---------------------------
#
# ``vp`` below is a *vertex plan*: anything carrying the vertex-indexed
# ``thr_v`` / ``pi_v`` / ``time_v`` / ``active`` arrays (a PlanCache, a
# worker's shm views, an out-of-core run's plan).  ``s`` / ``d`` are
# the aligned endpoint arrays of the edge set.  Every predicate is
# elementwise, so evaluating it on a subset equals slicing it out of the
# whole-graph evaluation — which is why dense, sparse, per-worker and
# per-interval callers agree.

def _pair(vp, dm, s, d):
    """Per-edge terms both visibility directions share."""
    thr_s, thr_d = vp.thr_v[s], vp.thr_v[d]
    # Only pairs of *distinct* active endpoints exchange same-iteration
    # values.
    both = vp.active[s] & vp.active[d] & (s != d)
    same = thr_s == thr_d
    d_pair = dm.intra if dm.is_uniform else dm.delays(thr_s, thr_d)
    return thr_s, thr_d, both, same, d_pair


def _visible(both, same, d_pair, pi_first, t_w, t_r) -> np.ndarray:
    """Defs. 1–3: the writer's same-iteration write reaches the reader.

    Same thread: the writer comes first in π (``pi_first``).  Different
    threads: ``t(reader) − t(writer) ≥ d(thread_w, thread_r)``.
    """
    return both & np.where(same, pi_first, (t_r - t_w) >= d_pair)


def visibility(vp, dm, s, d, writer_is_src: bool) -> np.ndarray:
    """:class:`EdgePlan`'s ``vis_s2d`` (or ``vis_d2s``) alone — the one
    mask a part's detection needs on a slot range."""
    _, _, both, same, d_pair = _pair(vp, dm, s, d)
    w, r = (s, d) if writer_is_src else (d, s)
    return _visible(both, same, d_pair, vp.pi_v[w] < vp.pi_v[r],
                    vp.time_v[w], vp.time_v[r])


class EdgePlan:
    """Every per-edge predicate of one dispatch plan on one edge set.

    Every predicate is computed on first use: the *structural* stage —
    thread pairs, the π comparisons, the pairwise delay: functions of the
    frontier and the delay model only — once, and each timestamp-
    dependent predicate (:attr:`TIMED`) after every :meth:`retime`: a
    frontier-unchanged iteration (:class:`PlanCache`) pays only for
    those, a commit-only master for neither.  All attributes are
    aligned with the edge set of endpoints ``s`` / ``d``:

    * ``vis_s2d[e]`` — is ``f(src)``'s write visible to ``f(dst)``;
      ``vis_d2s`` — symmetric;
    * ``lex_sd[e]`` — ``f(src)`` comes first in the global execution
      order ``(time, π, thread)``; ``lex_ds`` — the reverse (an
      *invisible* write only stales reads issued after it);
    * ``dt[e]`` — the endpoints run on different threads;
    * ``dst_wins[e]`` — the Lemma-2 winner of a doubly-written edge.

    ``schedule`` is the plan's (:class:`PlanCache`): under ``BSP`` no
    pair of endpoints exchanges a value within the iteration, so every
    predicate above but ``dst_wins`` is False; under a sequential key
    every pair is program-ordered, so a write is visible exactly to the
    tasks after it and ``dt`` is False.
    """

    TIMED = ("t_s", "t_d", "dst_wins", "vis_s2d", "vis_d2s", "lex_sd", "lex_ds")

    def __init__(self, vp, dm, s, d, *, schedule=NE):
        self.s, self.d, self._dm, self._schedule = s, d, dm, schedule
        # The plan's arrays, not the plan (read within the iteration): a
        # PlanCache holding its dense edge plan must not become a cycle.
        self._vp = SimpleNamespace(thr_v=vp.thr_v, pi_v=vp.pi_v,
                                   active=vp.active)
        self._time_v = vp.time_v

    #: The structural stage's columns, computed together on first use.
    STRUCTURAL = ("thr_s", "thr_d", "both", "same", "_d_pair", "_pi_sd",
                  "_pi_ds", "_pi_tie_sd")

    def __getattr__(self, name):
        # Only reached while ``name`` is not yet an instance attribute.
        if name not in EdgePlan.STRUCTURAL:
            raise AttributeError(name)
        thr_s, thr_d, both, same, self._d_pair = _pair(
            self._vp, self._dm, self.s, self.d)
        if self._schedule is BSP:
            both = np.zeros_like(both)
        elif self._schedule is not NE:
            same = np.ones_like(same)
        self.thr_s, self.thr_d, self.both, self.same = thr_s, thr_d, both, same
        pi_s, pi_d = self._vp.pi_v[self.s], self._vp.pi_v[self.d]
        self._pi_sd = pi_s < pi_d
        self._pi_ds = pi_d < pi_s
        self._pi_tie_sd = (pi_s == pi_d) & (thr_s < thr_d)
        return getattr(self, name)

    dt = cached_property(lambda self: self.both & ~self.same)

    def retime(self, time_v) -> None:
        """Forget the :attr:`TIMED` predicates: the next read of each
        evaluates it on ``time_v`` as it stands then."""
        self._time_v = time_v
        for name in self.TIMED:
            self.__dict__.pop(name, None)

    t_s = cached_property(lambda self: self._time_v[self.s])
    t_d = cached_property(lambda self: self._time_v[self.d])
    # Lemma-2 tiebreak: later time wins; equal time → larger vid.
    dst_wins = cached_property(lambda self: (self.t_d > self.t_s) | (
        (self.t_d == self.t_s) & (self.d > self.s)))
    vis_s2d = cached_property(lambda self: _visible(
        self.both, self.same, self._d_pair, self._pi_sd, self.t_s, self.t_d))
    vis_d2s = cached_property(lambda self: _visible(
        self.both, self.same, self._d_pair, self._pi_ds, self.t_d, self.t_s))
    lex_sd = cached_property(lambda self: self.both & (
        (self.t_s < self.t_d)
        | ((self.t_s == self.t_d) & (self._pi_sd | self._pi_tie_sd))))
    lex_ds = cached_property(lambda self: self.both & ~self.lex_sd)

    def touch(self, writes_dst: bool, *, rows: bool = False,
              commit_only: bool = False) -> "EdgePlan":
        """Evaluate now — on the caller's ``plan_build`` lap — what
        detection, :func:`count_on` and :func:`commit_on` (``commit_only``:
        that alone) will read for such a kernel, and recorder ``rows``."""
        names = () if commit_only else ("vis_s2d", "lex_sd")
        if writes_dst:
            names += ("dst_wins",) if commit_only else (
                "dst_wins", "vis_d2s", "lex_ds")
        for name in names + (_PLAN_COLUMNS if rows else ()):
            getattr(self, name)
        return self


class PlanCache:
    """Per-iteration dispatch plan with frontier-unchanged reuse.

    Fixed-point algorithms (PageRank, SpMV) schedule the *same* active
    set every iteration, so the cache recomputes only what can change:

    * frontier changed → full rebuild (exactly the uncached path);
    * frontier unchanged → thread/π arrays and vertex scatters are
      reused verbatim.  With ``jitter > 0`` the per-task noise is still
      drawn from the *same stream positions* :func:`plan_arrays` would
      consume — bit-identity with the object planner is preserved — and
      only the timestamps change.  With ``jitter == 0`` a hit costs two
      ``np.array_equal`` scans.

    :meth:`plan` produces the ``O(n)`` vertex-level plan, which is all an
    out-of-core run or a process master publishes.  :meth:`edges`
    derives the per-edge predicates from it: on a sorted edge-id subset
    (the push direction's touched edges) they are evaluated from
    scratch; on the whole graph the :class:`EdgePlan`'s structural stage
    survives frontier hits and only :meth:`EdgePlan.retime` forgets the
    timestamp-dependent ones.  The dense plan is rebuilt lazily the next
    time a pull iteration asks for it — and the jitter stream advances
    one draw of ``ids.size`` per :meth:`plan` call whatever is asked
    afterwards — so alternating directions under ``direction="auto"``
    stays bit-stable.

    ``schedule`` picks the plan (DESIGN §6.0).  ``NE``: the dispatch
    plan, tasks at ``π + jitter``.  ``BSP``: every task is stamped at
    time 0 and its :class:`EdgePlan` lets no pair exchange a value, so
    the threads only account work and Lemma 2's ``(time, vid)`` tiebreak
    is the larger-label commit.  A per-vertex key: the sequential plan
    (:func:`~repro.engine.dispatch.sequential_plan`), π = time = rank in
    ``(key, vid)`` order and every pair program-ordered, the threads
    again only accounting work — DE is one class at one thread, the
    chromatic scheduler the colouring at ``P`` threads.
    """

    def __init__(self, graph, num_threads: int, *, policy, jitter: float,
                 rng, schedule=NE):
        self.src = graph.edge_src
        self.dst = graph.edge_dst
        self.n = graph.num_vertices
        self.p = num_threads
        self.policy = policy
        self.jitter = jitter
        self.rng = rng
        self.schedule = schedule
        self.hits = 0
        self.ids: np.ndarray | None = None
        self.dm = None
        self._dense: EdgePlan | None = None

    def plan(self, active_ids: np.ndarray, dm) -> "PlanCache":
        """(Re)compute the vertex-level plan for ``active_ids`` under
        delay model ``dm``."""
        ids = np.asarray(active_ids, dtype=np.int64)
        hit = (
            self.ids is not None
            and ids.size == self.ids.size
            and bool(np.array_equal(ids, self.ids))
        )
        if hit:
            self.hits += 1
            if self.jitter > 0:
                # Same draw plan_arrays would make, same stream position.
                self.time_a = self.pi_a + self.rng.uniform(
                    0.0, self.jitter, size=int(ids.size))
                self.time_v[ids] = self.time_a
                if self._dense is not None:
                    self._dense.retime(self.time_v)
        else:
            self.ids = ids = ids.copy()
            self.thr_a, self.pi_a, self.time_a = plan_arrays(
                ids, self.p, policy=self.policy, jitter=self.jitter,
                rng=self.rng,
            ) if isinstance(self.schedule, str) else sequential_plan(
                ids, self.schedule, self.p, policy=self.policy)
            if self.schedule is BSP:
                self.time_a = np.zeros_like(self.time_a)
            n = self.n
            self.thr_v = np.full(n, -1, dtype=np.int64)
            self.pi_v = np.zeros(n, dtype=np.int64)
            self.time_v = np.zeros(n, dtype=np.float64)
            self.active = np.zeros(n, dtype=bool)
            self.thr_v[ids] = self.thr_a
            self.pi_v[ids] = self.pi_a
            self.time_v[ids] = self.time_a
            self.active[ids] = True
            self._dense = None
        if dm != self.dm:
            self.dm = dm
            self._dense = None  # the pairwise delays are structural
        return self

    def edges(self, eidx: np.ndarray | None = None) -> EdgePlan:
        """The current plan's :class:`EdgePlan` on ``eidx`` (all edges
        when ``None``)."""
        if eidx is not None:
            return EdgePlan(self, self.dm, self.src[eidx], self.dst[eidx],
                            schedule=self.schedule)
        if self._dense is None:
            self._dense = EdgePlan(self, self.dm, self.src, self.dst,
                                   schedule=self.schedule)
        return self._dense


# -- pass context and kernels ----------------------------------------------

class NondetPassContext:
    """Everything one kernel pass may read, and where it writes.

    A :class:`NondetKernel` fills the output slots for the vertices it
    is asked to (re)compute.  All edge-indexed arrays are aligned with
    ``src`` / ``dst``.  The caller supplies the arrays it holds elsewhere
    — a shm worker its segment views, an out-of-core run its mapped
    scratch views — and ``graph`` / ``state`` supply the rest: a RAM
    engine passes nothing else and gets CSR-aligned full-size arrays,
    fresh zeroed outputs and a private ``vout``, which it reuses from
    one iteration to the next through :meth:`renew`.

    A dense pass computes the vertices of ``vertices`` (a range), gathers
    over ``in_range`` (a slice holding every in-edge of them) and works
    the source side over ``out_ranges`` (slices holding every out-edge
    of them): one :class:`Part`, set by :func:`dense_pass`.

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
        "fp",
        "in_range",
        "out_ranges",
        "vertices",
    )

    def __init__(self, graph, state, active: np.ndarray,
                 written_fields: tuple[str, ...], *,
                 out_degrees: np.ndarray | None = None,
                 src=None, dst=None, n: int | None = None,
                 committed=None, v0=None, vout=None,
                 seen_s=None, seen_d=None, ws=None, wvs=None, wd=None,
                 wvd=None, rs=None, rd=None, writes_dst: bool = True,
                 selfloop=None):
        self.graph = graph
        self.vertices, self.in_range, self.out_ranges = Part()
        self.src = graph.edge_src if src is None else src
        self.dst = graph.edge_dst if dst is None else dst
        self.n = graph.num_vertices if n is None else n
        self.m = m = int(self.src.size)
        self.selfloop = self.src == self.dst if selfloop is None else selfloop
        self.out_degrees = (
            out_degrees if out_degrees is not None else graph.out_degrees()
        )
        self.active = active
        #: Pre-iteration edge arrays (what the last barrier committed).
        self.committed = committed if committed is not None else {
            f: state.edge(f) for f in state.edge_field_names}
        #: Pre-iteration vertex arrays — kernels read these, never mutate.
        self.v0 = v0 if v0 is not None else {
            f: state.vertex(f) for f in state.vertex_field_names}
        #: Post-iteration vertex values; applied to the state at the barrier.
        self.vout = vout if vout is not None else {
            f: arr.copy() for f, arr in self.v0.items()}
        # What each endpoint *sees* on each edge: committed, overridden by
        # the other endpoint's write where visible.  Read-only fields stay
        # aliased to committed; written fields are replaced per fix-point
        # round by :func:`repair`.
        self.seen_s = dict(self.committed) if seen_s is None else seen_s
        self.seen_d = dict(self.committed) if seen_d is None else seen_d
        com = self.committed

        def zeros(given, fields, dtype=None):
            return given if given is not None else {
                f: np.zeros(m, dtype=dtype or com[f].dtype) for f in fields}

        # Outputs: per written field, did src/dst write the edge and what
        # (one-sided kernel: no dst slots, storing to one is a KeyError).
        dst_written = written_fields if writes_dst else ()
        self.ws = zeros(ws, written_fields, bool)
        self.wd = zeros(wd, dst_written, bool)
        self.wvs = zeros(wvs, written_fields)
        self.wvd = zeros(wvd, dst_written)
        # Read-record counts per edge and side (src-task reads / dst-task
        # reads), for every edge field including read-only ones — they
        # drive both the conflict totals and the per-thread work profile.
        self.rs = zeros(rs, com, READ_COUNT)
        self.rd = zeros(rd, com, READ_COUNT)
        #: This iteration's :meth:`NondetKernel.fp_draws`, or ``None``.
        self.fp = None

    def renew(self, active: np.ndarray) -> None:
        """Start the next iteration on the same arrays.

        A RAM engine keeps one context per run: freeing ~10 ``m``-size
        arrays at every barrier only to allocate them again makes the
        allocator hand the pages back to the OS and fault each one in
        afresh (338k minor faults per ``traversal_sparse`` pass).
        ``wvs`` / ``wvd`` keep stale values: they are only ever read
        under their ``ws`` / ``wd`` mask.
        """
        self.active = active
        self.seen_s = dict(self.committed)
        self.seen_d = dict(self.committed)
        for group in (self.ws, self.wd, self.rs, self.rd):
            for arr in group.values():
                arr.fill(0)
        for f, arr in self.v0.items():
            np.copyto(self.vout[f], arr)


class NondetKernel(abc.ABC):
    """One program's racy iteration as whole-graph array passes.

    ``written_fields`` names the edge fields the program may write.
    :meth:`run_pass` computes gather → compute → scatter for every
    vertex in ``sub`` (a boolean mask, subset of the active set) within
    the context's ``vertices`` from its *seen* arrays, overwriting every
    output those vertices own: ``vout[v]``, and ``ws/wvs/rs``
    (``wd/wvd/rd``) for every edge whose source (destination) lies in
    ``sub`` — masked, on
    the context's ``out_ranges`` (``in_range``) only — a repair
    pass may legitimately flip an earlier pass's write off again.  One
    exception: a read record that is the same whatever was seen ("each
    in-edge is read once") is written by pass 1 only (``first=True``,
    every active vertex); a repair pass (``first=False``, ``sub`` ⊆
    active) finds it in place.
    """

    written_fields: tuple[str, ...] = ()

    #: Does the *destination* endpoint ever write an edge?  ``False`` is
    #: Theorem 1's premise (read–write conflicts only) as a fact of pull
    #: mode, and every layer omits the destination-write half of a round
    #: for it: no ``wd`` / ``wvd`` slots, ``seen_s`` stays ``committed``,
    #: Lemma 2 has one writer to commit (DESIGN §6.0).
    writes_dst: bool = True

    #: field -> :class:`~repro.engine.CombineOp` when every scatter
    #: of the kernel is an order-independent atomic combine (so the
    #: sparse push direction can re-run the same racy iteration over the
    #: frontier's touched edges only, bit for bit).  ``None`` = pull-only;
    #: :func:`push_fallback_reasons` additionally demands the combines
    #: be idempotent, since a non-idempotent float combine (ADD) leaks
    #: delivery order into the result.
    push_combines: dict[str, object] | None = None

    @abc.abstractmethod
    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray,
                 first: bool = True) -> None:
        ...

    @abc.abstractmethod
    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray,
                       first: bool = True) -> None:
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

    @abc.abstractmethod
    def fp_draws(self, graph, rng, plan):
        """The object ``update()``'s draws from the ``fp_noise`` stream
        ``rng`` in one iteration of ``plan``, replayed (``ctx.fp``)."""


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


def fallback_reasons(program: VertexProgram, config: EngineConfig,
                     mode: str = MODE, record=None) -> list[str]:
    """Why ``(program, config)`` cannot take the array path in ``mode``.

    Empty list means eligible.  The conditions: the program needs a
    registered kernel whose update function it actually runs, and the
    configuration must not request behaviours that only the per-access
    object store models (torn-value injection, runtime scope checks,
    individual conflict-event capture).
    The DE, chromatic and BSP schedules (``mode="deterministic"`` /
    ``"chromatic"`` / ``"sync"``) have no races, so torn values and
    conflict events are moot; their recorded formats are the object
    engines' own provenance, so ``record=`` is not.
    """
    reasons = []
    if resolve_nondet_kernel(program) is None:
        reasons.append(
            f"no vectorized nondet kernel registered for {type(program).__name__}"
        )
    if mode == MODE and config.atomicity is AtomicityPolicy.NONE:
        reasons.append("atomicity=NONE injects torn values per access")
    if config.validate_scope:
        reasons.append("validate_scope checks each access at runtime")
    if mode == MODE and config.keep_conflict_events:
        reasons.append("keep_conflict_events records individual events")
    if mode != MODE and record is not None:
        reasons.append(f"record= on the {mode} schedule: its provenance is "
                       "the object engine's (DE, chromatic: Gauss–Seidel "
                       "writes, order='before'; BSP: "
                       "rule='bsp-label-order')")
    return reasons


def push_fallback_reasons(program: VertexProgram) -> list[str]:
    """Why ``program`` cannot run in the sparse *push* direction.

    Empty list means push-eligible.  Three gates, in order:

    1. a vectorized kernel must exist (push reuses the kernel registry);
    2. the kernel must declare :attr:`NondetKernel.push_combines` — a
       per-field :class:`~repro.engine.CombineOp` asserting every
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

    report = check_push_program(program.traits, combines)
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


def check_eligible(program: VertexProgram, config: EngineConfig,
                   direction: str, what: str, mode: str = MODE,
                   record=None, *, fp_noise: bool = False) -> bool:
    """Refuse unless ``what`` (an array path, named for the message) can
    run ``(program, config, direction)`` in ``mode``; returns whether
    push may be used; ``fp_noise``: ``what`` models it (RAM only).
    ``capabilities.check`` calls it up front too."""
    reasons = fallback_reasons(program, config, mode, record)
    if config.fp_noise and not fp_noise:
        reasons.append("fp_noise is modelled by the RAM array engine only")
    if reasons:
        raise Refused(f"program/config not eligible for {what}: "
                      + "; ".join(reasons))
    if direction == "pull":
        return False
    push_reasons = push_fallback_reasons(program)
    if push_reasons and direction == "push":
        raise Refused("program not eligible for the push direction: "
                      + "; ".join(push_reasons))
    return not push_reasons


# -- one repair loop -------------------------------------------------------

class Part(NamedTuple):
    """What one dense pass covers: the vertex range ``vertices``, their
    in-edges (``in_range``) and their out-edges (``out_ranges``).  RAM
    has one, everything; a process worker its block; an out-of-core
    runner one per interval it owns."""

    vertices: slice = EVERYTHING
    in_range: object = EVERYTHING
    out_ranges: tuple = (EVERYTHING,)


def dense_pass(kernel, ctx, parts, sub, first: bool) -> None:
    """:meth:`NondetKernel.run_pass` for ``sub``, part by part: the
    context pointed at each part that holds a vertex of ``sub``."""
    for part in parts:
        if sub[part.vertices].any():
            ctx.vertices, ctx.in_range, ctx.out_ranges = part
            kernel.run_pass(ctx, sub, first)


def repair(kernel, graph, ctx, written, parts, vis, *, in_degrees, alpha,
           bound, sparse, sync=None, buffers=None):
    """Stale-read repair by chaotic iteration.

    Pass 1 ran against the committed snapshot; each round here
    re-derives what every endpoint *sees* (committed, overridden by
    the far endpoint's write where Defs. 1–3 make it visible), marks
    the vertices whose seen inputs changed, and recomputes exactly
    those.  Visibility implies strict precedence in the execution
    order, so the dependence relation is a DAG and the iteration
    reaches the exact per-access semantics in at most depth+1
    passes (``bound`` — the active count — caps the depth).

    ``parts`` (:class:`Part`) are the caller's edges: in one process
    every edge (pull) or the frontier's sorted touched edges (push,
    never passed densely), a process worker's block, an out-of-core
    runner's intervals.  ``vis[i]`` is part ``i``'s ``vis_s2d`` aligned
    with its ``in_range``, where its destinations detect, and — when
    destinations write (:attr:`NondetKernel.writes_dst`; else ``seen_s``
    stays ``committed``) — a ``vis_d2s`` per ``out_ranges`` slice, where
    its sources do.  A round detects on every part before any pass runs,
    and passes read only the seen buffers detection wrote, so no pass
    sees a write of its own round, whatever the part order.  Those
    buffers are ``buffers`` ``(seen_s, seen_d)`` (full-length arrays),
    else fresh arrays.  A process worker's ``sync`` —
    ``writes_visible()`` before each detection, ``any_changed(mine,
    dirty)`` after it — supplies the barriers that make its siblings'
    writes visible and its verdict global.

    A round costs what its dirty set costs: when the dirty set's
    incident mass passes the Beamer test (``alpha`` is
    ``direction_alpha``) the pass runs on its CSR/CSC slices ``(es,
    ed)`` from ``graph``, and with one part and no ``sync`` the next
    detection is *slot-local*: a pass over ``S`` can only change
    ``ws/wvs`` on out-edges of ``S`` and ``wd/wvd`` on in-edges of
    ``S``, so only ``seen_d`` on ``es`` and ``seen_s`` on ``ed`` are
    re-derived, in place.  Dirty sets, pass order and every value are
    the same either way.  ``sparse`` (push) slices every pass.

    Returns ``(repair passes, how many of them took the slice path,
    vertices recomputed)``.
    """
    buf_s, buf_d = buffers or ({}, {})
    # Per detected side: its seen buffers, the endpoint that reads them,
    # the far side's writes, and its (edges, visibility) segments.
    sides = [(ctx.seen_d, ctx.dst, ctx.ws, ctx.wvs, buf_d,
              [(p.in_range, v) for p, (v, _) in zip(parts, vis)])]
    if kernel.writes_dst:
        sides.append((ctx.seen_s, ctx.src, ctx.wd, ctx.wvd, buf_s,
                      [seg for p, (_, vs) in zip(parts, vis)
                       for seg in zip(p.out_ranges, vs)]))
    # Slot-local detection needs every write since the last detection
    # to be this loop's own (under ``sync`` siblings write this caller's
    # edges too) and one wide edge set to find the touched ones in.
    wide = parts[0].in_range if sync is None and len(parts) == 1 else None
    if isinstance(wide, slice) and wide is not EVERYTHING:
        wide = None
    touched = None  # (es, ed) of the previous pass if it was a slice pass
    passes = slice_passes = repaired = 0
    for _ in range(bound + 2):
        if sync is not None:
            sync.writes_visible()
        dirty = np.zeros(ctx.n, dtype=bool)
        changed_any = False
        for side, (seen, owner, w, wv, bufs, segs) in enumerate(sides):
            if touched is not None:
                e, v = touched[side], segs[0][1]
                segs = [(e, v[e if wide is EVERYTHING
                              else np.searchsorted(wide, e)])]
            for f in written:
                com, ref = ctx.committed[f], seen[f]
                # Until a wide round has written it, ``seen`` aliases
                # committed: that round fills a buffer on every segment.
                fresh = ref is com
                buf = bufs.get(f) if fresh else ref
                for e, v in segs:
                    cur = np.where(v & w[f][e], wv[f][e], com[e])
                    moved = np.flatnonzero(cur != ref[e])
                    if moved.size:
                        changed_any = True
                        dirty[owner[e][moved] if isinstance(e, slice)
                              else owner[e[moved]]] = True
                    if e is EVERYTHING:
                        buf = cur  # a fresh full-size array: no copy
                    elif fresh or moved.size:
                        if buf is None:
                            buf = np.empty_like(com)
                        buf[e] = cur
                if buf is not None:
                    seen[f] = buf
        if sync is not None:
            changed_any = sync.any_changed(changed_any, dirty)
        if not changed_any:
            break
        passes += 1
        sub = dirty & ctx.active
        sub_ids = np.flatnonzero(sub)
        if sub_ids.size == 0:
            continue  # a sibling's vertices changed, none of mine
        local = incident_mass(
            sub_ids, ctx.out_degrees, in_degrees) * alpha < ctx.m
        if local or sparse:
            es = graph.out_edge_ids(sub_ids)
            ed = graph.in_edge_ids(sub_ids)
            kernel.run_slice_pass(ctx, sub_ids, es, ed, first=False)
        else:
            dense_pass(kernel, ctx, parts, sub, False)
        touched = (es, ed) if local and wide is not None else None
        slice_passes += local
        repaired += int(sub_ids.size)
    else:  # pragma: no cover - DAG depth bound violated
        raise RuntimeError("nondet fix-point failed to converge")
    return passes, slice_passes, repaired


# -- one barrier -----------------------------------------------------------

def lemma2_commit(new, ws, wd, wvs, wvd, ep: EdgePlan) -> None:
    """Lemma 2 on aligned arrays: commit into ``new`` (holding the
    pre-iteration values) the single surviving write of every written
    edge — the only writer's, or of two the later ``(time, vid)``
    (``ep.dst_wins``).  ``wd is None``: no destination ever writes."""
    new[ws] = wvs[ws]
    if wd is not None:
        sel = wd & (~ws | ep.dst_wins)
        new[sel] = wvd[sel]


def conflict_counts(ep: EdgePlan, ws, wd, rs, rd) -> np.ndarray:
    """``[read–write, write–write, contended edges, stale reads]`` of one
    field on aligned arrays (``wd is None``: a one-sided kernel, whose
    conflicts are the destinations' reads of the sources' writes only).

    Every term carries ``ep.both`` (through ``dt`` / ``lex_*``), i.e. an
    active destination: summed over any partition of the edges by
    destination owner, each edge is counted exactly once.
    """
    dt = ep.dt
    rw = int(rd[ws & dt].sum())
    # A read is stale when the other endpoint's write was already
    # issued (lex before) yet not visible to it.
    stale = int(rd[ws & ep.lex_sd & ~ep.vis_s2d].sum())
    contended = (rd > 0) & ws
    ww = 0
    if wd is not None:
        rw += int(rs[wd & dt].sum())
        stale += int(rs[wd & ep.lex_ds & ~ep.vis_d2s].sum())
        contended |= ((rs > 0) | ws) & wd
        ww = int(np.count_nonzero(ws & wd & dt))
    return np.array([rw, ww, int(np.count_nonzero(contended & dt)), stale],
                    dtype=np.int64)


class Barrier:
    """One iteration's commit barrier, filled by a backend's ``body``
    (over one edge set or accumulated over many) and folded into the
    run by :class:`ArrayStep`."""

    __slots__ = ("next_mask", "conflicts", "reads_t", "writes_t", "rows",
                 "vout", "passes", "slice_passes", "span")

    def __init__(self, n: int, p: int, record):
        #: Task-generation rule: the vertices scheduled next.
        self.next_mask = np.zeros(n, dtype=bool)
        #: :func:`conflict_counts`, summed over fields and edge sets.
        self.conflicts = np.zeros(4, dtype=np.int64)
        self.reads_t = np.zeros(p, dtype=np.int64)
        self.writes_t = np.zeros(p, dtype=np.int64)
        #: field -> provenance column chunks (``None``: not recording).
        self.rows: dict[str, list] | None = (
            {} if record is not None else None)
        #: Post-iteration vertex values (read at the active ids).
        self.vout: dict[str, np.ndarray] = {}
        self.passes = 1
        self.slice_passes = 0
        #: Backend-specific span fields (``barrier_epoch``, …).
        self.span: dict = {}


#: The per-edge output groups of a pass context, as the barrier
#: functions' ``out[name][field]`` expects them.
OUTPUTS = ("ws", "wd", "wvs", "wvd", "rs", "rd")
_PLAN_COLUMNS = ("vis_s2d", "vis_d2s", "dst_wins", "t_s", "t_d",
                 "thr_s", "thr_d")


def commit_on(bar: Barrier, ep: EdgePlan, eid, written, out, new) -> None:
    """Commit ``ep``'s edge set: provenance rows, Lemma 2, scheduling.

    ``eid`` holds the set's canonical edge ids (``None``: positions are
    ids); ``out[name][f]`` the aligned :data:`OUTPUTS` arrays; ``new[f]``
    an aligned writable array holding field ``f``'s pre-iteration
    values, committed in place (one-sided kernel: ``out["wd"]`` empty).
    """
    u, v = ep.s, ep.d
    for f in written:
        ws, wd = out["ws"][f], out["wd"].get(f)
        wvs, wvd = out["wvs"][f], out["wvd"].get(f)
        if bar.rows is not None:
            # Rows are copies, taken *before* the commit below: the
            # events need each edge's pre-commit value.  A one-sided
            # kernel's dst columns are synthesized for the recorder alone.
            wd_r, wvd_r = (wd, wvd) if wd is not None else (
                np.zeros_like(ws), np.zeros_like(wvs))
            sel = ws | wd_r
            if sel.any():
                cols = {"eid": np.flatnonzero(sel) if eid is None
                        else np.asarray(eid[sel], dtype=np.int64),
                        "u": u[sel], "v": v[sel], "ws": ws[sel],
                        "wd": wd_r[sel], "wvs": wvs[sel], "wvd": wvd_r[sel],
                        "rs": out["rs"][f][sel], "rd": out["rd"][f][sel],
                        "pre": new[f][sel]}
                for name in _PLAN_COLUMNS:
                    cols[name] = getattr(ep, name)[sel]
                bar.rows.setdefault(f, []).append(cols)
        lemma2_commit(new[f], ws, wd, wvs, wvd, ep)
        # Task-generation rule: a written edge schedules the far
        # endpoint (a written self-loop re-schedules its vertex).
        bar.next_mask[v[ws]] = True
        if wd is not None:
            bar.next_mask[u[wd]] = True


def count_on(bar: Barrier, ep: EdgePlan, written, out) -> None:
    """Fold one aligned edge set's conflict totals and per-thread work
    profile into ``bar`` (``out`` as in :func:`commit_on`)."""
    p = bar.reads_t.size
    for f in written:
        ws, wd = out["ws"][f], out["wd"].get(f)
        bar.conflicts += conflict_counts(ep, ws, wd,
                                         out["rs"][f], out["rd"][f])
        bar.writes_t += np.bincount(ep.thr_s[ws], minlength=p)
        if wd is not None:
            bar.writes_t += np.bincount(ep.thr_d[wd], minlength=p)
    for side, thr_e in (("rs", ep.thr_s), ("rd", ep.thr_d)):
        for counts in out[side].values():
            mask = counts > 0
            if mask.any():
                bar.reads_t += np.bincount(
                    thr_e[mask], weights=counts[mask], minlength=p
                ).astype(np.int64)


def emit_provenance(record, iteration: int, rows: dict) -> None:
    """Bulk equivalent of ``EdgeHistory._provenance``.

    Emits the identical canonical event stream the object engine
    produces on the same schedule — fields alphabetically, edges
    ascending, per edge the Lemma-1 read pairs (readers by vid) then
    the Lemma-2 commit — from the column chunks :func:`commit_on`
    gathered in whatever order the backend visited its edge sets.  The
    §II scope rule caps an edge at two readers and two writers (its
    endpoints), so the object engine's per-record replay collapses to
    the precomputed ``vis_s2d`` / ``vis_d2s`` / ``dst_wins`` predicates.
    No pre-filtering by policy: the recorder's offered/dropped counters
    (and reservoir sampling stream) must also match the object engine's.
    """
    wants_reads = record.wants_reads
    for f in sorted(rows):
        chunks = rows[f]
        cat = {k: np.concatenate([c[k] for c in chunks]) for k in chunks[0]}
        for i in np.argsort(cat["eid"], kind="stable"):
            _emit_edge_provenance(
                record, iteration, f, int(cat["eid"][i]),
                u=int(cat["u"][i]), v=int(cat["v"][i]),
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


def _emit_edge_provenance(
    record, iteration, f, e, *, u, v,
    ws, wd, wvs, wvd, rs, rd, pre,
    vis_s2d, vis_d2s, dst_wins, t_s, t_d, thr_s, thr_d, wants_reads,
) -> None:
    """Canonical provenance events for one written edge (scalar inputs)."""
    if u == v:
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


# -- the array step of the one loop ----------------------------------------

class ArrayStep:
    """An array backend's iteration as a :func:`~repro.engine.loop.
    run_loop` step: the direction decision, the :class:`PlanCache`, the
    :class:`Barrier` and its provenance, the vertex writeback, and the
    run's ``extra`` facts around the backend's ``body``.

    ``body(bar, iteration, plan, dm, push, clock)`` runs one racy
    iteration on the backend's arrays — pass 1, stale-read repair, the
    commit of the edge state — for ``plan`` (already planned for the
    frontier ``plan.ids``) under delay model ``dm``, and fills ``bar``.
    ``plan`` is the schedule, by default ``config.threads`` threads and
    the jitter RNG (DE: one thread, no jitter; BSP: the ``barrier`` plan
    — DESIGN §6.0); ``extra`` the backend's own ``RunResult.extra``
    facts, read after the loop.  ``graph`` needs only the
    :class:`~repro.storage.shards.StoreGraphView` surface.
    """

    def __init__(self, graph, config: EngineConfig, state, body, *,
                 record=None, direction: str = "pull", push_ok: bool = False,
                 plan: PlanCache | None = None, extra: dict | None = None):
        self.graph, self.config, self.state, self.body = graph, config, state, body
        self.record, self.direction, self.push_ok = record, direction, push_ok
        self.degrees = ((graph.out_degrees(), graph.in_degrees()) if push_ok
                        else (None, None))
        self.plan = plan if plan is not None else PlanCache(
            graph, config.threads, policy=config.dispatch,
            jitter=config.jitter,
            rng=config.rng("jitter") if config.jitter > 0 else None)
        self.backend_extra = extra if extra is not None else {}
        self.passes = self.slice_passes = self.push_iterations = 0
        self.dir_trace: list[str] = []

    def __call__(self, iteration, ids, dm, clock):
        graph, plan = self.graph, self.plan
        dir_i = choose_direction(
            self.direction, ids, *self.degrees, graph.num_edges,
            graph.num_vertices, self.config, self.push_ok)
        if self.direction != "pull":
            self.dir_trace.append(dir_i)
        self.push_iterations += dir_i == "push"
        plan.plan(ids, dm)
        bar = Barrier(graph.num_vertices, plan.p, self.record)
        self.body(bar, iteration, plan, dm, dir_i == "push", clock)
        if self.record is not None:
            emit_provenance(self.record, iteration, bar.rows)
        self.passes += bar.passes
        self.slice_passes += bar.slice_passes
        it = IterationStats(
            iteration=iteration,
            num_active=int(ids.size),
            updates_per_thread=[
                int(x) for x in np.bincount(plan.thr_a, minlength=plan.p)],
            reads_per_thread=[int(x) for x in bar.reads_t],
            writes_per_thread=[int(x) for x in bar.writes_t],
        )
        for f in self.state.vertex_field_names:
            self.state.vertex(f)[ids] = bar.vout[f][ids]
        span = {"fixpoint_passes": bar.passes,
                "repair_slice_passes": bar.slice_passes, **bar.span}
        if self.direction != "pull":
            span["direction"] = dir_i
        return (np.flatnonzero(bar.next_mask).astype(np.int64), it,
                bar.conflicts, span)

    def extra(self) -> dict:
        extra = {"vectorized": True, **self.backend_extra,
                 "fixpoint_passes": self.passes,
                 "repair_slice_passes": self.slice_passes,
                 "plan_cache_hits": self.plan.hits}
        if self.direction != "pull":
            extra.update(direction=self.direction,
                         push_iterations=self.push_iterations,
                         direction_trace=self.dir_trace)
        return extra


def run_array(program: VertexProgram, graph, config: EngineConfig, state,
              body, *, label: str, mode: str = MODE, record=None,
              direction: str = "pull", push_ok: bool = False,
              plan: PlanCache | None = None, extra: dict | None = None,
              rngs: dict | None = None, **loop_kw) -> RunResult:
    """:func:`~repro.engine.loop.run_loop` over an :class:`ArrayStep`
    of ``body`` (``label``: the backend's metrics ``mode=``; ``rngs``:
    its streams beside the plan's)."""
    step = ArrayStep(graph, config, state, body, record=record,
                     direction=direction, push_ok=push_ok, plan=plan,
                     extra=extra)
    return run_loop(
        program, graph, config, state, step, mode=mode, label=label,
        extra=step.extra, rngs={**(rngs or {}), "jitter": step.plan.rng},
        conflicts=ConflictLog(keep_events=config.keep_conflict_events),
        record=record, **loop_kw)
