"""Vectorized nondeterministic execution: the racy NumPy fast path.

The RAM residency of :mod:`~repro.engine.nondet_core`: every
edge-indexed array is a full-size in-memory ndarray, so one racy
iteration is

1. a registered :class:`NondetKernel` pass over all active vertices,
   reading *seen* edge arrays (``committed`` overridden by visible fresh
   writes) — whole-graph in the dense *pull* direction, on the
   frontier's touched edge-id slices in the sparse *push* direction;
2. :func:`~repro.engine.nondet_core.repair` to the stale-read fix-point;
3. the commit barrier on the same arrays (all of them, or gathered at
   the touched edges).

The result is **bit-for-bit identical** to the object engine — final
state, iteration/frontier trajectory, per-thread stats, and conflict
totals — for every registered program (PageRank, WCC, SSSP, BFS, SpMV;
see ``tests/test_nondet_vectorized.py``), at one to two orders of
magnitude higher throughput.  ``mode="sync"`` runs the same loop on the
barrier plan, BSP, and ``mode="deterministic"`` / ``"chromatic"`` on the
sequential plan — DE in label order at one thread, the chromatic
scheduler in colour order at ``P`` threads that only account work:
bit-identical to :class:`~repro.engine.sync_engine.SynchronousEngine`
and :class:`~repro.engine.gauss_seidel.DeterministicEngine`
(``tests/test_paper_path.py``).  What the fast path does not model is
listed by :func:`fallback_reasons` (see ``run(vectorized=)``).
"""

from __future__ import annotations

import numpy as np

from ..graph import DiGraph
from .config import EngineConfig
from .nondet_core import (
    BSP,
    EVERYTHING,
    OUTPUTS,
    NondetKernel,
    NondetPassContext,
    Part,
    PlanCache,
    check_eligible,
    choose_direction,
    commit_on,
    count_on,
    dense_pass,
    fallback_reasons,
    push_fallback_reasons,
    register_nondet_kernel,
    repair,
    resolve_nondet_kernel,
    run_array,
)
from .program import VertexProgram
from .result import RunResult
from .state import State

__all__ = [
    "NondetKernel",
    "NondetPassContext",
    "PlanCache",
    "VectorizedNondetEngine",
    "register_nondet_kernel",
    "resolve_nondet_kernel",
    "fallback_reasons",
    "push_fallback_reasons",
    "choose_direction",
]


class VectorizedNondetEngine:
    """Whole-graph racy iterations, bit-for-bit equal to the object
    engine of ``mode``."""

    mode = "nondeterministic"

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
        mode: str = "nondeterministic",
        colors: np.ndarray | None = None,
    ) -> RunResult:
        config = config or EngineConfig()
        push_ok = check_eligible(program, config, direction,
                                 "the vectorized fast path", mode, record,
                                 fp_noise=True)
        kernel = resolve_nondet_kernel(program)(program)
        state = state if state is not None else program.make_state(graph)
        written = kernel.written_fields
        two_sided = kernel.writes_dst
        in_degrees = graph.in_degrees()
        ctx = NondetPassContext(graph, state, None, written,
                                writes_dst=two_sided)
        fp_rng = config.rng("fp") if config.fp_noise else None
        # The chromatic schedule's facts, on the result and every span.
        facts = ({"num_colors": int(colors.max(initial=-1)) + 1}
                 if mode == "chromatic" else {})

        def body(bar, iteration, plan, dm, push, clock):
            """One racy iteration, dense (all ``m`` edges) or — executing
            the identical iteration: same seen values, same fix-point
            schedule, same commits, totals and recorder events — over
            the frontier's touched edges (out ∪ in of the active set)."""
            ids = plan.ids
            if push:
                es_all = graph.out_edge_ids(ids)
                ed_all = graph.in_edge_ids(ids)
                sel = np.union1d(es_all, ed_all)
                ep = plan.edges(sel)
            else:
                sel = EVERYTHING
                ep = plan.edges()
            ep.touch(two_sided, rows=record is not None)
            ctx.renew(plan.active)
            if fp_rng is not None:
                ctx.fp = kernel.fp_draws(graph, fp_rng, plan)
            clock.lap("plan_build")
            # Pass 1 computes every active vertex against the committed
            # snapshot; repair() then recomputes only vertices whose
            # seen inputs changed.
            part = Part(EVERYTHING, sel, (sel,))
            if push:
                kernel.run_slice_pass(ctx, ids, es_all, ed_all)
            else:
                dense_pass(kernel, ctx, [part], plan.active, True)
            clock.lap("push_scatter" if push else "gather")
            passes, bar.slice_passes, _ = repair(
                kernel, graph, ctx, written, [part],
                [(ep.vis_s2d, (ep.vis_d2s,) if two_sided else None)],
                in_degrees=in_degrees, alpha=config.direction_alpha,
                bound=int(ids.size), sparse=push)
            bar.passes = 1 + passes
            clock.lap("repair_pass")
            # Barrier on the aligned arrays: ``a[slice(None)]`` is a view
            # (dense pays nothing, the commit lands in the state), a
            # gather at the touched edges in push.  All writes land
            # inside ``sel`` — kernels only touch the frontier's
            # out-/in-edge slices — and ``sel`` is sorted, so both
            # directions walk provenance in ascending canonical order.
            out = {name: {f: a[sel] for f, a in getattr(ctx, name).items()}
                   for name in OUTPUTS}
            new = {f: state.edge(f)[sel] for f in written}
            commit_on(bar, ep, sel if push else None, written, out, new)
            if push:
                for f in written:
                    state.edge(f)[sel] = new[f]
            count_on(bar, ep, written, out)
            bar.vout = ctx.vout
            bar.span.update(facts)

        # The schedule is the only thing the modes change: NE is the
        # default plan; BSP lets no write be seen before the barrier; DE
        # (Defs. 1–3 at P = 1: ascending labels, no jitter) and chromatic
        # are the sequential plan, keyed by one class or by the colouring.
        plan = None if mode == "nondeterministic" else PlanCache(
            graph, 1 if mode == "deterministic" else config.threads,
            policy=config.dispatch, jitter=0.0, rng=None,
            schedule=BSP if mode == "sync" else colors if mode == "chromatic"
            else np.zeros(graph.num_vertices, dtype=np.int64))
        return run_array(
            program, graph, config, state, body, label="vectorized",
            direction=direction, push_ok=push_ok,
            observer=observer, telemetry=telemetry, record=record,
            supervisor=supervisor, metrics=metrics, mode=mode, plan=plan,
            extra=facts, rngs={"fp": fp_rng},
        )
