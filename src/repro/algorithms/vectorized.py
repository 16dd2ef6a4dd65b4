"""The array kernels of the paper algorithms (:class:`NondetKernel`).

One whole-graph gather/compute/scatter pass per algorithm, reading the
engine's per-edge *seen* arrays (:mod:`repro.engine.nondet_core`).
The same kernel runs under every plan of ``ArrayStep`` — BSP (nothing
visible within the iteration), DE (one thread) and NE (``P`` threads)
— and matches its object-engine sibling bit for bit under each: float
kernels accumulate with ``np.add.at`` in positional order, which adds
each destination's in-edges in the order the scalar gather loop reads
them (DESIGN §6.1).  Under ``fp_noise`` every plan replays the object
``update()``'s gather-order draws (:meth:`_Kernel.fp_draws`) and the
float kernels accumulate each segment in its drawn order.  Importing
this module registers the kernels.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..engine.nondet_core import (
    BSP,
    EVERYTHING,
    NondetKernel,
    NondetPassContext,
    register_nondet_kernel,
)
from ..engine.nondet_delta import CombineOp
from .pagerank import PageRank
from .spmv import SpMV
from .sssp import SSSP
from .wcc import WeaklyConnectedComponents


class _FpDraws(NamedTuple):
    """One iteration's ``fp_noise`` draws, as the float kernels read them."""

    #: Every edge id in CSC order, each active vertex's in-edge segment
    #: in the order its permutation draw gives it (WCC: scratch).
    order: np.ndarray
    #: The (unpermuted) CSC position of every edge id.
    at: np.ndarray
    #: Per vertex ``fp_round``'s nudge: +1 / −1 ulp, or 0 (PageRank only).
    nudge: np.ndarray | None


class _Kernel(NondetKernel):
    """What every array kernel shares: the ``fp_noise`` draw replay.

    Under ``fp_noise`` the object ``update()`` draws, from the ``"fp"``
    stream, a ``permutation(k)`` of the ``k > 1`` edges it passes to
    ``gather_order`` — its in-edges, or every incident edge
    (``fp_incident``, WCC) — then, if it calls ``fp_round``
    (``fp_rounds``, PageRank), one ``random()``.  Min is order-free, so
    the min kernels only consume the draws; the float sums take each
    active in-edge segment in its drawn order.
    """

    fp_incident = False
    fp_rounds = False
    _csc: tuple | None = None

    def fp_draws(self, graph, rng, plan) -> _FpDraws:
        if self._csc is None:
            k = graph.in_degrees()
            csc = graph.in_edge_ids(np.arange(graph.num_vertices))
            at = np.empty_like(csc)
            at[csc] = np.arange(csc.size)
            lo = np.cumsum(k) - k
            if self.fp_incident:  # drawn on a scratch row, never read
                k, lo = k + graph.out_degrees(), np.zeros_like(lo)
            self._csc = (k, lo, csc, at)
        k, lo, csc, at = self._csc
        # The plan's execution order: ascending label (BSP), else
        # (time, π, thread) — DispatchPlan.execution_order.
        ids = plan.ids
        order = ids if plan.schedule is BSP else ids[
            np.lexsort((plan.thr_a, plan.pi_a, plan.time_a))]
        kv = k[order]
        big = np.flatnonzero(kv > 1)
        # permutation(k) is shuffle(arange(k)): shuffling a segment in
        # place makes the same draws and leaves it in the drawn order.
        buf = (np.empty(int(kv.max(initial=0))) if self.fp_incident
               else csc.copy())
        r = np.empty(order.size)
        start = 0
        for j, kj, s in zip(big.tolist(), kv[big].tolist(),
                            lo[order[big]].tolist()):
            if self.fp_rounds:
                # The fp_round draws of order[start:j]: one bulk draw is
                # j - start scalar ones on the same stream.
                r[start:j] = rng.random(j - start)
                start = j
            rng.shuffle(buf[s:s + kj])
        nudge = None
        if self.fp_rounds:
            r[start:] = rng.random(order.size - start)
            nudge = np.zeros(graph.num_vertices, dtype=np.int8)
            nudge[order[r < 0.25]] = 1
            nudge[order[(r >= 0.25) & (r < 0.5)]] = -1
        return _FpDraws(buf, at, nudge)


def _in_sums(ctx: NondetPassContext, seen: np.ndarray, dtype,
             ed=EVERYTHING) -> np.ndarray:
    """Per vertex, ``seen`` summed over the in-edges ``ed`` (``in_range``
    or a CSC slice) in ``update()``'s gather order: positionally — each
    destination's in-edges in ascending id order (DESIGN §6.1) — or,
    under ``fp_noise``, each segment in its drawn order."""
    total = np.zeros(ctx.n, dtype=dtype)
    fp = ctx.fp
    if fp is not None:
        # The permuted CSC order, or its entries at ``ed``'s positions.
        ed = fp.order if ed is EVERYTHING else fp.order[fp.at[ed]]
    np.add.at(total, ctx.dst[ed], seen[ed])
    return total


def _out_ranges(ctx: NondetPassContext, sub: np.ndarray):
    """Per ``out_ranges`` slice: it, its sources, which lie in ``sub``."""
    for r in ctx.out_ranges:
        src = ctx.src[r]
        yield r, src, sub[src]


class _WCCNondetKernel(_Kernel):
    """Racy min-label pass for WeaklyConnectedComponents."""

    written_fields = ("label",)
    fp_incident = True  # update() gathers every incident edge

    def __init__(self, program: WeaklyConnectedComponents):
        del program  # stateless: everything lives in the arrays

    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray,
                 first: bool = True) -> None:
        g, v = ctx.in_range, ctx.vertices
        dst, seen_d = ctx.dst[g], ctx.seen_d["label"][g]
        sub_d = sub[dst]
        outs = list(_out_ranges(ctx, sub))
        # Gather: minimum of the own pre-iteration label and every seen
        # incident edge label (min is order-independent — exact).
        mn = ctx.v0["label"].copy()
        np.minimum.at(mn, dst[sub_d], seen_d[sub_d])
        for r, src, sub_s in outs:
            np.minimum.at(mn, src[sub_s], ctx.seen_s["label"][r][sub_s])
        sub_v = sub[v]
        ctx.vout["label"][v][sub_v] = mn[v][sub_v]
        # Each incident edge is read once per side (a self-loop twice),
        # whatever it carries: pass 1 records it for the whole iteration.
        if first:
            ctx.rd["label"][g][sub_d] = 1
        for r, src, sub_s in outs:
            if first:
                ctx.rs["label"][r][sub_s] = 1
            # Scatter criterion: the edge carried a larger observed label.
            ctx.ws["label"][r][sub_s] = (ctx.seen_s["label"][r] > mn[src])[sub_s]
            ctx.wvs["label"][r][sub_s] = mn[src[sub_s]]
        # A self-loop is read from both sides but written once (the
        # object update dedups observations by eid) — attribute it to src.
        ctx.wd["label"][g][sub_d] = (
            (seen_d > mn[dst]) & ~ctx.selfloop[g])[sub_d]
        ctx.wvd["label"][g][sub_d] = mn[dst[sub_d]]

    # Every scatter is a fetch-and-min of the gathered minimum — an
    # idempotent atomic combine, so the push direction may re-derive the
    # identical values over the frontier's touched edges only.
    push_combines = {"label": CombineOp.MIN}

    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray,
                       first: bool = True) -> None:
        src, dst = ctx.src, ctx.dst
        seen_s, seen_d = ctx.seen_s["label"], ctx.seen_d["label"]
        # Same gather as run_pass restricted to the touched edge slices:
        # min over the same multiset of seen labels, order-independent.
        mn = ctx.v0["label"].copy()
        np.minimum.at(mn, dst[ed], seen_d[ed])
        np.minimum.at(mn, src[es], seen_s[es])
        ctx.vout["label"][sub_ids] = mn[sub_ids]
        if first:
            ctx.rd["label"][ed] = 1
            ctx.rs["label"][es] = 1
        ctx.ws["label"][es] = seen_s[es] > mn[src[es]]
        ctx.wvs["label"][es] = mn[src[es]]
        ctx.wd["label"][ed] = (seen_d[ed] > mn[dst[ed]]) & ~ctx.selfloop[ed]
        ctx.wvd["label"][ed] = mn[dst[ed]]


class _PageRankNondetKernel(_Kernel):
    """Racy float32 PageRank pass with local convergence."""

    written_fields = ("value",)
    writes_dst = False  # pull mode: only the source writes an edge
    fp_rounds = True

    def __init__(self, program: PageRank):
        self.epsilon = program.epsilon
        self.damping = program.damping
        self.base = program.base

    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray,
                 first: bool = True) -> None:
        g, v = ctx.in_range, ctx.vertices
        # Sequential float32 adds in the scalar gather loop's order.
        # Unmasked within ``in_range`` — the totals of vertices outside
        # ``sub`` are never stored.
        total = self._rounded(
            ctx, _in_sums(ctx, ctx.seen_d["value"], np.float32, g))
        new_rank = (self.base + self.damping * total).astype(np.float32)
        np.copyto(ctx.vout["rank"][v], new_rank[v], where=sub[v])
        if first:
            np.copyto(ctx.rd["value"][g], 1, where=sub[ctx.dst[g]])
        writers = (
            sub
            & (np.abs(new_rank - ctx.v0["rank"]) >= self.epsilon)
            & (ctx.out_degrees > 0)
        )
        quotient = (
            new_rank / np.maximum(ctx.out_degrees, 1).astype(np.float32)
        ).astype(np.float32)
        for r, src, sub_s in _out_ranges(ctx, sub):
            np.copyto(ctx.ws["value"][r], writers[src], where=sub_s)
            np.copyto(ctx.wvs["value"][r], quotient[src], where=sub_s)

    @staticmethod
    def _rounded(ctx: NondetPassContext, total: np.ndarray) -> np.ndarray:
        """``fp_round``: move each drawn total one float32 ulp."""
        if ctx.fp is not None:
            up, down = ctx.fp.nudge > 0, ctx.fp.nudge < 0
            total[up] = np.nextafter(total[up], np.float32(np.inf))
            total[down] = np.nextafter(total[down], np.float32(-np.inf))
        return total

    # push_combines stays None: a float ADD scatter is not an idempotent
    # combine, so PageRank never runs in the push *direction* — the slice
    # pass only makes a repair pass cost its dirty set.
    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray,
                       first: bool = True) -> None:
        src = ctx.src
        seen_d = ctx.seen_d["value"]
        # ``ed`` is graph.in_edge_ids(sub_ids), in CSC order: the
        # sequential float32 adds per destination are the ones run_pass
        # makes — same bits.
        total = self._rounded(ctx, _in_sums(ctx, seen_d, np.float32, ed))
        new_rank = (self.base + self.damping * total).astype(np.float32)
        ctx.vout["rank"][sub_ids] = new_rank[sub_ids]
        if first:
            ctx.rd["value"][ed] = 1
        # Scatter side per out-edge (src[es] all lie in sub_ids; an edge
        # in es implies out-degree > 0).
        s = src[es]
        rank_s = new_rank[s]
        ctx.ws["value"][es] = np.abs(rank_s - ctx.v0["rank"][s]) >= self.epsilon
        ctx.wvs["value"][es] = (
            rank_s / ctx.out_degrees[s].astype(np.float32)
        ).astype(np.float32)


class _SSSPNondetKernel(_Kernel):
    """Racy relaxation pass for SSSP (and BFS, its unit-weight subclass)."""

    written_fields = ("dist",)
    writes_dst = False  # only the source endpoint relaxes an edge

    def __init__(self, program: SSSP):
        del program  # weights are data: already materialized in the state

    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray,
                 first: bool = True) -> None:
        g, v = ctx.in_range, ctx.vertices
        dst, seen_in = ctx.dst[g], ctx.seen_d["dist"][g]
        weight = ctx.committed["weight"][g]
        sub_d = sub[dst]
        # Gather: every in-edge dist is read; the weight only when the
        # seen dist is finite (the scalar loop `continue`s on INF).
        relax = sub_d & np.isfinite(seen_in)
        best = ctx.v0["dist"].copy()
        np.minimum.at(best, dst[relax], seen_in[relax] + weight[relax])
        sub_v = sub[v]
        ctx.vout["dist"][v][sub_v] = best[v][sub_v]
        if first:
            ctx.rd["dist"][g][sub_d] = 1
        ctx.rd["weight"][g][sub_d] = relax[sub_d]
        # Scatter: reached vertices read each out-edge dist and write
        # their own when the edge carries a larger value.
        reached = np.isfinite(best)
        for r, src, sub_s in _out_ranges(ctx, sub):
            scat = sub_s & reached[src]
            ctx.rs["dist"][r][sub_s] = scat[sub_s]
            ctx.ws["dist"][r][sub_s] = (
                scat & (ctx.seen_s["dist"][r] > best[src]))[sub_s]
            ctx.wvs["dist"][r][sub_s] = best[src[sub_s]]

    # Relaxation scatters are fetch-and-min over (dist + weight) — an
    # idempotent atomic combine; see _WCCNondetKernel.push_combines.
    push_combines = {"dist": CombineOp.MIN}

    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray,
                       first: bool = True) -> None:
        src, dst = ctx.src, ctx.dst
        seen_in = ctx.seen_d["dist"]
        weight = ctx.committed["weight"]
        sd = seen_in[ed]
        fin = np.isfinite(sd)
        er = ed[fin]
        best = ctx.v0["dist"].copy()
        np.minimum.at(best, dst[er], sd[fin] + weight[er])
        ctx.vout["dist"][sub_ids] = best[sub_ids]
        if first:
            ctx.rd["dist"][ed] = 1
        ctx.rd["weight"][ed] = fin
        bs = best[src[es]]
        scat = np.isfinite(bs)
        seen_out = ctx.seen_s["dist"]
        ctx.rs["dist"][es] = scat
        ctx.ws["dist"][es] = scat & (seen_out[es] > bs)
        ctx.wvs["dist"][es] = bs


class _SpMVNondetKernel(_Kernel):
    """Racy Jacobi pass for the SpMV fixed point."""

    written_fields = ("term",)
    writes_dst = False  # only the source endpoint writes its term

    def __init__(self, program: SpMV):
        self.epsilon = program.epsilon
        self.b = program.b

    def run_pass(self, ctx: NondetPassContext, sub: np.ndarray,
                 first: bool = True) -> None:
        g, v = ctx.in_range, ctx.vertices
        # Sequential float64 accumulation, like the scalar `total +=
        # read` loop (see _PageRankNondetKernel.run_pass).
        new_x = self.b + _in_sums(ctx, ctx.seen_d["term"], np.float64, g)
        np.copyto(ctx.vout["x"][v], new_x[v], where=sub[v])
        if first:
            np.copyto(ctx.rd["term"][g], 1, where=sub[ctx.dst[g]])
        writers = sub & (np.abs(new_x - ctx.v0["x"]) >= self.epsilon)
        for r, src, sub_s in _out_ranges(ctx, sub):
            crit = writers[src]
            # The scatter reads the (never-written) coefficient first.
            np.copyto(ctx.rs["a"][r], crit, where=sub_s)
            np.copyto(ctx.ws["term"][r], crit, where=sub_s)
            np.copyto(ctx.wvs["term"][r], ctx.committed["a"][r] * new_x[src],
                      where=sub_s)

    # Pull-only like PageRank (push_combines is None): see there for why
    # the id-ordered ``ed`` slice reproduces run_pass's float sums.
    def run_slice_pass(self, ctx: NondetPassContext, sub_ids: np.ndarray,
                       es: np.ndarray, ed: np.ndarray,
                       first: bool = True) -> None:
        src = ctx.src
        seen_term = ctx.seen_d["term"]
        new_x = self.b + _in_sums(ctx, seen_term, np.float64, ed)
        ctx.vout["x"][sub_ids] = new_x[sub_ids]
        if first:
            ctx.rd["term"][ed] = 1
        s = src[es]
        x_s = new_x[s]
        crit = np.abs(x_s - ctx.v0["x"][s]) >= self.epsilon
        ctx.rs["a"][es] = crit
        ctx.ws["term"][es] = crit
        ctx.wvs["term"][es] = ctx.committed["a"][es] * x_s


register_nondet_kernel(WeaklyConnectedComponents, _WCCNondetKernel)
register_nondet_kernel(PageRank, _PageRankNondetKernel)
register_nondet_kernel(SSSP, _SSSPNondetKernel)  # BFS inherits SSSP.update
register_nondet_kernel(SpMV, _SpMVNondetKernel)
