"""Delta-accumulative execution — propagate deltas, not states.

Maiter's formulation (PAPERS.md): an *accumulative* algorithm maintains
per-vertex ``(x, Δ)`` under an abelian monoid ``(⊕, identity)`` and a
per-edge gain ``g`` that distributes over ``⊕``.  A step at vertex ``v``
commits its pending delta and forwards only the *change*::

    d      = Δ[v];  Δ[v] = identity
    accum[v] = accum[v] ⊕ d
    x[v]     = x0[v] ⊕ accum[v]            (the accumulation identity)
    Δ[w]     = Δ[w] ⊕ g(d, v→w)   for each out-neighbour w

Work is proportional to what actually changed, not to the graph: vertices
whose residual delta is below threshold (ADD) or does not improve ``x``
(MIN) are never scheduled.  Because ``⊕`` is commutative/associative,
delivery *order* cannot change any folded value — the same algebra the
paper's push-mode condition rests on — so the scheduler is free to visit
the active set in any (seeded) order: this is the nondeterministic
execution model applied to deltas.

The accumulation identity ``x = x0 ⊕ Σ committed deltas`` holds **bit
exactly by construction**: the engine stores ``accum`` and *defines*
``x`` as ``fold(x0, accum)`` at each commit, so termination can check the
identity as a hard invariant rather than a tolerance.

Each iteration is a step of :func:`repro.engine.loop.run_loop`.  On
top of it this module opens the **dynamic graph** workload
(:mod:`repro.graph.mutations`): edge insert/delete batches are
*repaired* into the standing result instead of recomputed —

* invertible ``⊕`` (ADD): the stale contributions of every source whose
  out-edge set changed are subtracted and the fresh ones added
  (``Δ += g'(x) − g(x)``), leaving ``x`` untouched;
* non-invertible ``⊕`` (MIN): deletions may have removed the *support*
  of downstream values.  As in KickStarter (Vora et al.), a vertex keeps
  its value only while a clean neighbour at a strictly smaller level
  still gives it, so support is acyclic; levels live in the cut, and a
  batch re-levels only the vertices whose value changed since the last.
  The engine grows the affected region while support fails, resets it
  to initial conditions, and re-seeds its boundary from clean
  neighbours.  If the region exceeds the cap the engine honestly falls
  back to a full delta restart and says so in ``extra``.

Eligibility is gated like the vectorized/push paths: a kernel must be
registered here *and* pass
:func:`repro.theory.eligibility.check_delta_program`, which probes the
algebra on small graphs and refuses with a witness when it can.
"""

from __future__ import annotations

import enum
import time

import numpy as np

from ..graph import DiGraph
from ..graph.mutations import EdgeDiff, MutationBatch, apply_batch
from ..obs.metrics import NO_CLOCK
from ..robust.errors import CheckpointError
from .atomicity import AtomicityPolicy
from .config import EngineConfig
from .conflicts import ConflictLog
from .loop import run_loop
from .program import VertexProgram
from .result import IterationStats, RunResult
from .state import FieldSpec, State

__all__ = [
    "CombineOp",
    "DeltaKernel",
    "register_delta_kernel",
    "resolve_delta_kernel",
    "delta_fallback_reasons",
    "delta_state",
    "run_delta",
]

#: Affected-region cap for the non-invertible delete repair, as a
#: fraction of ``num_vertices`` — beyond it a full delta restart is
#: cheaper than support checking, and honest about being one.
REPAIR_CAP_FRAC = 0.5


class CombineOp(enum.Enum):
    """The accumulator algebra ``⊕``, folded by its NumPy ufunc:
    ``op.ufunc(a, b)`` elementwise, ``op.ufunc.at(acc, idx, c)`` into an
    accumulator, one contribution at a time.  ``np.minimum`` /
    ``np.maximum`` propagate NaN symmetrically, so the fold commutes on
    every input; ADD associates only on exactly representable sums."""

    MIN = "min"
    MAX = "max"
    ADD = "add"

    @property
    def ufunc(self) -> np.ufunc:
        return {"min": np.minimum, "max": np.maximum,
                "add": np.add}[self.value]

    @property
    def commutative_associative(self) -> bool:
        return True  # all three are; a future SUBTRACT would not be

    @property
    def idempotent(self) -> bool:
        """Idempotent ops (min/max) tolerate duplicate delivery too."""
        return self is not CombineOp.ADD

    @property
    def identity(self) -> float:
        return {"min": np.inf, "max": -np.inf, "add": 0.0}[self.value]


class DeltaKernel:
    """Maiter triple ``(⊕, identity, g_edge)`` for one vertex program.

    Subclasses declare the algebra as class attributes and implement the
    two array hooks.  ``identity`` is implied by ``op``
    (:attr:`CombineOp.identity`).

    Attributes
    ----------
    op:
        The abelian fold ``⊕`` (:class:`CombineOp`).
    field:
        The vertex state field the program's result lives in.
    undirected:
        True when contributions flow against edge direction too
        (WCC-as-min treats the graph as undirected).
    strict_gain:
        True when ``g`` strictly worsens the value it forwards (SSSP/BFS:
        positive weights): the value then orders support by itself and
        serves as the delete repair's level.  Identity-gain kernels (WCC)
        set this False: the cut then carries a ``level`` field, built at
        the first batch and re-levelled where values change
        (:func:`_levels`).
    contraction:
        For non-idempotent ``op`` (ADD): a certificate that total
        propagated mass shrinks geometrically — the per-step gain factor,
        which must be ``< 1`` for the residual to vanish.  ``None``
        declares no certificate (refused for ADD kernels).
    """

    op: CombineOp = CombineOp.MIN
    field: str = ""
    undirected: bool = False
    strict_gain: bool = True
    contraction: float | None = None

    def __init__(self, program: VertexProgram):
        self.program = program

    # -- array hooks ---------------------------------------------------
    def initial(self, graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
        """``(x0, Δ0)`` float64 arrays of length ``num_vertices``."""
        raise NotImplementedError

    def gains(self, graph: DiGraph, eids: np.ndarray,
              values: np.ndarray) -> np.ndarray:
        """``g(value, e)`` for each edge id in ``eids``.

        ``values[i]`` is the committed delta (or state value, during
        repair) flowing along ``eids[i]``.
        """
        raise NotImplementedError

    def default_threshold(self) -> float:
        """Residual magnitude below which an ADD vertex is not scheduled."""
        return 0.0


# -- kernel registry (mirrors the vectorized-kernel registry) ----------

_KERNELS: dict[type, type] = {}
_REGISTRY_LOADED = False


def register_delta_kernel(program_cls: type, kernel_cls: type) -> None:
    """Register ``kernel_cls(program)`` as the delta kernel for a program
    class.  Subclasses inherit the kernel as long as ``update`` is not
    overridden (an overridden update function is a different algorithm —
    see :func:`repro.engine.nondet_vectorized.resolve_nondet_kernel`)."""
    _KERNELS[program_cls] = kernel_cls


def _ensure_registry() -> None:
    global _REGISTRY_LOADED
    if not _REGISTRY_LOADED:
        from ..algorithms import delta_kernels  # noqa: F401  (registers)
        _REGISTRY_LOADED = True


def resolve_delta_kernel(program: VertexProgram):
    """The kernel class for ``program``, or ``None``."""
    _ensure_registry()
    for cls in type(program).__mro__:
        kernel_cls = _KERNELS.get(cls)
        if kernel_cls is not None:
            if type(program).update is not cls.update:
                return None
            return kernel_cls
    return None


def delta_fallback_reasons(program: VertexProgram) -> list[str]:
    """Why ``program`` cannot run delta-accumulatively (empty = can).

    Structural gates only; the full verdict — algebra probes on small
    graphs, witness search against the counterexample programs — is
    :func:`repro.theory.eligibility.check_delta_program`, which the
    engine entry point consults for its refusal message.
    """
    kernel_cls = resolve_delta_kernel(program)
    if kernel_cls is None:
        return [
            f"no delta-accumulative kernel registered for "
            f"{type(program).__name__}: the program declares no "
            "(⊕, identity, g_edge) formulation"
        ]
    reasons: list[str] = []
    if not kernel_cls.op.commutative_associative:
        reasons.append(f"⊕ ({kernel_cls.op.value}) is not commutative-associative")
    traits = program.traits
    if kernel_cls.op.idempotent:
        if not traits.monotonicity.is_monotone:
            reasons.append(
                "idempotent ⊕ requires a monotone program (Theorem 2 "
                "premise), but monotonicity is declared NONE")
    else:
        if kernel_cls.contraction is None:
            reasons.append(
                "non-idempotent ⊕ (ADD) requires a contraction "
                "certificate (< 1 gain mass per step) and the kernel "
                "declares none")
        elif not (0.0 < kernel_cls.contraction < 1.0):
            reasons.append(
                f"declared contraction factor {kernel_cls.contraction} "
                "is not in (0, 1): the residual mass does not vanish")
    return reasons


# -- engine internals --------------------------------------------------


def _active_ids(op: CombineOp, x: np.ndarray, delta: np.ndarray,
                threshold: float) -> np.ndarray:
    """Vertices whose pending delta would change (or meaningfully nudge)
    their committed value."""
    if op is CombineOp.ADD:
        mask = np.abs(delta) > threshold
    elif op is CombineOp.MIN:
        mask = delta < x
    else:
        mask = delta > x
    return np.flatnonzero(mask).astype(np.int64)


def _propagate(kernel: DeltaKernel, graph: DiGraph, order: np.ndarray,
               committed: np.ndarray, delta: np.ndarray,
               out_deg: np.ndarray, in_deg: np.ndarray | None,
               race=None) -> int:
    """Scatter ``g(committed)`` from ``order`` into neighbours' Δ.

    Contributions fold in the order they are gathered (CSR slice order).
    Each destination receives its contributions in that same relative
    order under any stable destination-major regrouping, and the
    unbuffered fold is strictly sequential, so regrouping first would
    not change a bit.  Returns the number of edge contributions.

    ``race = (thread, lose)`` makes ``⊕`` non-atomic: ``thread[i]`` is
    the model thread committing ``order[i]``; a combine from a thread
    above the lowest one reaching its target races, and the racing
    combines ``lose(count)`` marks never reach Δ.
    """
    reps = [out_deg[order]]
    eids = graph.out_edge_ids(order)
    contrib = kernel.gains(graph, eids, np.repeat(committed, reps[0]))
    targets = graph.edge_dst[eids]
    if kernel.undirected:
        # Contributions also flow against edge direction: gather the
        # in-edges of the committing vertices and land on their sources.
        reps.append(in_deg[order])
        eids_in = graph.in_edge_ids(order)
        contrib = np.concatenate([contrib, kernel.gains(
            graph, eids_in, np.repeat(committed, reps[1]))])
        targets = np.concatenate([targets, graph.edge_src[eids_in]])
    work = int(targets.size)
    if race is not None:
        thread, lose = race
        by = np.concatenate([np.repeat(thread, r) for r in reps])
        lowest = np.full(delta.size, np.iinfo(by.dtype).max)
        np.minimum.at(lowest, targets, by)
        racing = np.flatnonzero(by > lowest[targets])
        keep = np.ones(work, dtype=bool)
        keep[racing[lose(racing.size)]] = False
        targets, contrib = targets[keep], contrib[keep]
    kernel.op.ufunc.at(delta, targets, contrib)
    return work


def _repair_invertible(kernel: DeltaKernel, old: DiGraph, new: DiGraph,
                       diff: EdgeDiff, x: np.ndarray,
                       delta: np.ndarray) -> dict:
    """ADD repair: ``Δ += g_new(x) − g_old(x)`` for every source whose
    out-edge multiset changed.  ``x``/``accum`` stay untouched — the
    inverse element absorbs the stale contributions."""
    sources, touched = diff.affected_sources, []
    for graph, sign in ((old, -1.0), (new, 1.0)):  # stale out, fresh in
        eids = graph.out_edge_ids(sources)
        vals = np.repeat(x[sources], graph.out_degrees()[sources])
        touched.append(graph.edge_dst[eids])
        np.add.at(delta, touched[-1], sign * kernel.gains(graph, eids, vals))
    touched = np.union1d(*touched)
    return {"repair_mode": "reseed", "repaired_vertices": int(touched.size),
            "seeds": [int(v) for v in sources[:32]], "region_capped": False}


def _sides(kernel: DeltaKernel, graph: DiGraph, ids: np.ndarray,
           leaving: bool = False) -> list:
    """``(eids, near, far)`` per direction a contribution reaches ``ids``
    along — or, ``leaving``, leaves them along: ``near[eids]`` are
    ``ids``' ends, ``far[eids]`` the neighbours'.  In-edges (out-edges
    when ``leaving``), plus the other direction on undirected kernels."""
    ways = [(graph.in_edge_ids, graph.edge_dst, graph.edge_src),
            (graph.out_edge_ids, graph.edge_src, graph.edge_dst)]
    if leaving:
        ways.reverse()
    return [(edges(ids), near, far)
            for edges, near, far in ways[:1 + kernel.undirected]]


def _levels(kernel: DeltaKernel, graph: DiGraph, x: np.ndarray,
            init_val: np.ndarray, level: np.ndarray) -> None:
    """Re-level, in place, the vertices whose ``level`` is NaN: all of
    them at the first batch, afterwards those whose value was reset or
    changed since (the engine marks them).  KickStarter's level: 0 where
    ``x`` is the initial value, else 1 + the lowest level among the
    vertex's *tight* supporters (``g(x[u]) == x[v]``), by a BFS bucketed
    by level, restricted to the marked set and seeded by the levels
    around it; ``inf`` where no tight chain reaches.  Every other level
    stays, and every non-initial vertex then has a tight neighbour at a
    strictly lower level: support is acyclic."""
    marked = np.isnan(level)
    ids = np.flatnonzero(marked)
    level[ids] = np.where(x[ids] == init_val[ids], 0.0, np.inf)
    for eids, near, far in (_sides(kernel, graph, ids)
                            if ids.size < level.size else []):
        v, u = near[eids], far[eids]
        tight = ~marked[u] & (kernel.gains(graph, eids, x[u]) == x[v])
        np.minimum.at(level, v[tight], level[u[tight]] + 1)
    while ids.size and not np.isinf(depth := level[ids].min()):
        now = level[ids] == depth
        ids, now = ids[~now], ids[now]
        marked[now] = False
        for eids, near, far in _sides(kernel, graph, now, leaving=True):
            v = far[eids]
            v = v[marked[v] & (kernel.gains(graph, eids, x[near[eids]])
                               == x[v])]
            level[v] = np.minimum(level[v], depth + 1)


def _repair_idempotent(kernel: DeltaKernel, old: DiGraph, new: DiGraph,
                       diff: EdgeDiff, x: np.ndarray, x0: np.ndarray,
                       delta0: np.ndarray, accum: np.ndarray,
                       delta: np.ndarray, level: np.ndarray | None) -> dict:
    """MIN/MAX repair: bounded affected-region re-expansion.

    ⊕ has no inverse, so a deleted edge that *supported* a downstream
    value poisons everything derived from it.  A vertex keeps its value
    while a clean neighbour at a strictly smaller level (the value for a
    strict gain, else the cut's ``level``, re-levelled on the old graph
    by :func:`_levels`) still gives it along a tight edge of the new one:
    support is acyclic.  Test the targets of tight deleted edges, grow
    the affected set along the new graph while support fails, then reset
    the region to initial conditions (marking its levels) and re-seed its
    boundary.
    """
    op = kernel.op
    n = new.num_vertices
    init_val = op.ufunc(x0, delta0)
    affected = np.zeros(n, dtype=bool)
    cap = max(64, int(n * REPAIR_CAP_FRAC))
    cand = np.empty(0, dtype=np.int64)
    support = x if op is CombineOp.MIN else -x
    if diff.deleted.size:
        if level is not None:
            _levels(kernel, old, x, init_val, level)
            support = level
        ends = [diff.deleted.T, diff.deleted.T[::-1]][:1 + kernel.undirected]
        cand = np.concatenate([
            v[kernel.gains(old, diff.deleted_eids, x[u]) == x[v]]
            for u, v in ends])

    def grow(cand: np.ndarray) -> np.ndarray:
        """Mark the candidates no clean lower-level neighbour supports."""
        cand = np.unique(cand)
        cand = cand[~affected[cand] & (x[cand] != init_val[cand])]
        if not cand.size:
            return cand
        flags = np.zeros(n, dtype=bool)
        for eids, near, far in _sides(kernel, new, cand):
            v, u = near[eids], far[eids]  # the candidate, its supporter
            flags[v[~affected[u] & (support[u] < support[v])
                    & (kernel.gains(new, eids, x[u]) == x[v])]] = True
        grew = cand[~flags[cand]]
        affected[grew] = True
        return grew

    grew, rounds = grow(cand), 0
    seeds = [int(v) for v in grew[:32]]
    while grew.size and int(affected.sum()) <= cap:
        rounds += 1
        grew = grow(np.concatenate([far[eids] for eids, _, far in
                                    _sides(kernel, new, grew, leaving=True)]))

    capped = int(affected.sum()) > cap
    if capped:
        # Honest fallback: the affected region is most of the graph —
        # restart the delta computation from initial conditions.
        affected[:] = True
    region = np.flatnonzero(affected)
    x[region] = x0[region]
    accum[region] = op.identity
    delta[region] = delta0[region]
    if level is not None:
        level[region] = np.nan
    # Re-seed the region boundary from clean in-neighbours (and, on
    # undirected kernels, clean out-neighbours).
    for eids, near, far in [] if capped else _sides(kernel, new, region):
        eids = eids[~affected[far[eids]]]
        op.ufunc.at(delta, near[eids], kernel.gains(new, eids, x[far[eids]]))

    # Inserted edges between clean vertices contribute directly.
    clean = ~affected[diff.inserted].any(axis=1)
    ins, ins_eids = diff.inserted[clean], diff.inserted_eids[clean]
    if ins.size:
        for u, v in [ins.T, ins.T[::-1]][:1 + kernel.undirected]:
            op.ufunc.at(delta, v, kernel.gains(new, ins_eids, x[u]))

    return {"repair_mode": "full_restart" if capped else "taint",
            "repaired_vertices": int(region.size), "seeds": seeds,
            "region_capped": capped, "taint_rounds": rounds}


def _normalize_mutations(mutations) -> list[MutationBatch]:
    for item in mutations:
        if not isinstance(item, (MutationBatch, dict)):
            raise TypeError(
                f"mutations must be MutationBatch or dict, got {type(item)!r}")
    return [m if isinstance(m, MutationBatch) else MutationBatch.from_dict(m)
            for m in mutations]


# -- the engine --------------------------------------------------------


def _kernel(program: VertexProgram) -> DeltaKernel:
    from ..theory.eligibility import check_delta_program

    report = check_delta_program(program)
    if not report.verdict.eligible:
        raise ValueError(
            "program is not eligible for delta-accumulative execution: "
            + "; ".join(report.reasons))
    return resolve_delta_kernel(program)(program)


def delta_state(program: VertexProgram, graph: DiGraph,
                kernel: DeltaKernel | None = None) -> State:
    """The cut of a fresh delta run (``kernel``, when the caller has it,
    spares a second eligibility check): ``x`` (under the program's result
    field), ``accum``, ``Δ`` and, for an identity-gain MIN/MAX kernel,
    the support ``level`` (NaN = to be levelled, :func:`_levels`), all
    float64.  With the frontier and the batch cursor it is everything a
    barrier defines (Maiter's consistent cut), so checkpoints and
    restarts carry it; one without ``level`` gets it rebuilt."""
    kernel = kernel or _kernel(program)
    op = kernel.op
    x0, delta0 = kernel.initial(graph)
    fields = {name: FieldSpec(np.float64, op.identity)
              for name in (kernel.field, "accum", "delta")}
    if op.idempotent and not kernel.strict_gain:
        fields["level"] = FieldSpec(np.float64, np.nan)
    state = State(graph, fields, {})
    state.vertex(kernel.field)[:] = op.ufunc(x0, state.vertex("accum"))
    state.vertex("delta")[:] = delta0
    return state


def run_delta(
    program: VertexProgram,
    graph: DiGraph,
    config: EngineConfig | None = None,
    *,
    state: State | None = None,
    observer=None,
    telemetry=None,
    record=None,
    supervisor=None,
    metrics=None,
    scheduling: str = "frontier",
    priority_frac: float = 0.25,
    threshold: float | None = None,
    mutations=None,
) -> RunResult:
    """Run ``program`` delta-accumulatively, a step of
    :func:`~repro.engine.loop.run_loop`; optionally stream mutation
    batches through the standing result.

    ``state`` is the cut (:func:`delta_state`; the supervisor's, when
    there is one); the result carries ``program``'s state on the final
    graph instead.  Propagated contributions fold in gather order (see
    :func:`_propagate`); ``scheduling`` either commits the whole active
    frontier or, with ``"priority"``, only the top ``priority_frac`` by
    residual magnitude per round (Maiter's priority scheduling).
    ``config.atomicity=NONE`` makes ``⊕`` racy (:func:`_propagate`):
    model thread *t* commits chunk *t* of a round's order, and a racing
    combine is lost with ``config.torn_probability``.
    """
    config = config or EngineConfig()
    kernel = _kernel(program)
    op = kernel.op
    threshold = kernel.default_threshold() if threshold is None else threshold
    batches = _normalize_mutations(mutations) if mutations else []
    if state is None:
        state = delta_state(program, graph, kernel)
    x, accum, delta = map(state.vertex, (kernel.field, "accum", "delta"))
    level = (state.vertex("level") if "level" in state.vertex_field_names
             else None)
    x0, delta0 = kernel.initial(graph)
    base, applied = graph, 0
    # The batch cursor: checkpointed and restored with the conflict log.
    cursor = {"batches": 0, "log": [], "committed": 0}
    rng = config.rng("delta")
    repair_s = 0.0  # mutate_repair seconds the next iteration's span owes
    log = ConflictLog()
    torn = (config.rng("torn") if config.atomicity is AtomicityPolicy.NONE
            and config.torn_probability > 0 else None)

    def lose(racing: int) -> np.ndarray:
        lost = torn.random(racing) < config.torn_probability
        log.write_write += racing
        log.lost_writes += int(lost.sum())
        return lost

    def frontier(iteration: int, clock=NO_CLOCK) -> np.ndarray:
        """The active set before ``iteration``; while it is empty, stream
        in and repair the next batch (none at the iteration cap)."""
        nonlocal graph, applied, repair_s
        ids = _active_ids(op, x, delta, threshold)
        while (not ids.size and applied < len(batches)
               and iteration < config.max_iterations):
            t_rep = time.perf_counter()
            new_graph, diff = apply_batch(graph, batches[applied])
            info = (_repair_invertible(kernel, graph, new_graph, diff, x, delta)
                    if op is CombineOp.ADD else
                    _repair_idempotent(kernel, graph, new_graph, diff, x, x0,
                                       delta0, accum, delta, level))
            graph = new_graph
            dt = time.perf_counter() - t_rep
            clock.exclude(dt)
            repair_s += dt
            info.update(batch=applied, inserted=int(diff.inserted.shape[0]),
                        deleted=int(diff.deleted.shape[0]),
                        repair_seconds=dt, at_iteration=iteration)
            cursor["log"].append(info)
            applied = cursor["batches"] = applied + 1
            if record is not None and hasattr(record, "repair_event"):
                record.repair_event(iteration=iteration, **{
                    k: info[k] for k in
                    ("batch", "repair_mode", "inserted", "deleted",
                     "repaired_vertices", "seeds", "region_capped")})
            if telemetry is not None:
                telemetry.event("mutation_repair", **{
                    k: v for k, v in info.items() if k != "seeds"})
            ids = _active_ids(op, x, delta, threshold)
        return ids

    def step(iteration, ids, dm, clock):
        nonlocal repair_s
        if repair_s:
            clock.add("mutate_repair", repair_s)
        repair_s = 0.0
        # Nondeterministic schedule: a seeded permutation of the active
        # set stands in for "whichever threads get there first"; with
        # priority scheduling only the largest residuals commit.
        if scheduling == "priority" and ids.size > 1:
            score = (np.abs(delta[ids]) if op is CombineOp.ADD
                     else x[ids] - delta[ids] if op is CombineOp.MIN
                     else delta[ids] - x[ids])
            k = max(1, int(round(ids.size * priority_frac)))
            ids = ids[np.argpartition(score, ids.size - k)[ids.size - k:]]
        order = rng.permutation(ids)

        # Commit: fold pending deltas into accum, re-derive x from the
        # accumulation identity (bit-exact by construction), clear Δ.
        committed = delta[order].copy()
        accum[order] = op.ufunc(accum[order], committed)
        was = x[order]
        x[order] = op.ufunc(x0[order], accum[order])
        if level is not None:  # a changed value needs a new level
            level[order[x[order] != was]] = np.nan
        delta[order] = op.identity
        cursor["committed"] += int(order.size)
        clock.lap("delta_commit")

        out_deg = graph.out_degrees()
        in_deg = graph.in_degrees() if kernel.undirected else None
        # Model thread t commits chunk t of the round's order.
        chunks = np.array_split(order, config.threads)
        race = None if torn is None else (np.repeat(
            np.arange(len(chunks)), [c.size for c in chunks]), lose)
        edge_work = _propagate(kernel, graph, order, committed, delta,
                               out_deg, in_deg, race)
        clock.lap("delta_propagate")

        edges_per = [int(out_deg[c].sum() + (in_deg[c].sum() if in_deg
                                             is not None else 0))
                     for c in chunks]
        stats = IterationStats(iteration, int(order.size),
                               [int(c.size) for c in chunks], edges_per,
                               edges_per)
        return (frontier(iteration + 1, clock), stats, None,
                {"edge_contributions": edge_work})

    def state_written() -> None:
        # A restore moved the cursor: replay its batches on the input.
        nonlocal graph, applied
        if applied != cursor["batches"]:
            graph, applied = base, cursor["batches"]
            if applied > len(batches):
                raise CheckpointError(f"restore is past batch {len(batches)}")
            for batch in batches[:applied]:
                graph = apply_batch(graph, batch)[0]

    def extra() -> dict:
        facts = {"delta": {
            "threshold": float(threshold), "scheduling": scheduling,
            "committed_total": cursor["committed"], "op": op.value,
            "accumulation_identity": bool(np.array_equal(
                x, op.ufunc(x0, accum), equal_nan=True))}}
        if batches:
            facts.update(mutations=cursor["log"], mutations_applied=applied,
                         final_num_edges=graph.num_edges)
        return facts

    def final_state() -> State:
        out = program.make_state(graph)
        out.vertex(kernel.field)[:] = x
        return out

    # Before iteration 0 the same batch rule runs, unless a restore
    # point (which carries its own cursor) is about to replace the cut.
    fresh = supervisor is None or supervisor.pending_resume is None
    return run_loop(
        program, base, config, state, step, mode="delta", label="delta",
        frontier=frontier(0) if fresh else _active_ids(op, x, delta,
                                                       threshold),
        extra=extra, rngs={"delta": rng, "torn": torn}, conflicts=log,
        cursor=cursor, observer=observer,
        telemetry=telemetry, record=record, supervisor=supervisor,
        metrics=metrics, state_written=state_written,
        final_state=final_state)
