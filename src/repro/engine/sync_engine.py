"""Synchronous (Bulk Synchronous Parallel) execution (§I, §II).

Under the BSP model the effectiveness of all updates is postponed to the
next iteration: every read during iteration ``n`` observes the values
committed at the end of iteration ``n-1``, and all writes commit at the
barrier.  This exempts the updates of one iteration from any data
dependences among themselves — which is why Theorem 1 takes "converges
with synchronous model execution" as its premise.

Two updates may still write the same edge in one iteration (e.g. WCC on
edge ``(v, u)`` written by both endpoints); the commit applies writes in
ascending writer-label order, so the largest label deterministically
wins.  That choice is arbitrary but fixed, keeping BSP runs
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from ..graph import DiGraph
from .config import EngineConfig
from .dispatch import make_plan
from .frontier import sorted_ids
from .loop import run_loop
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["SynchronousEngine"]


class _SnapshotStore:
    """Reads from the pre-iteration snapshot; buffers writes for the barrier."""

    __slots__ = ("_snapshot", "pending", "writers")

    def __init__(self, snapshot: dict[str, np.ndarray], *, log_writers: bool = False):
        self._snapshot = snapshot
        # field -> eid -> (writer_vid, value); later (higher-label) writers
        # overwrite earlier ones because updates run in ascending order.
        self.pending: dict[str, dict[int, float]] = {f: {} for f in snapshot}
        # With a recorder attached: field -> eid -> [(vid, value), ...] in
        # execution (ascending-label) order, so the barrier can attribute
        # the surviving write and the overwritten ones.
        self.writers: dict[str, dict[int, list]] | None = (
            {f: {} for f in snapshot} if log_writers else None
        )

    def read(self, vid: int, eid: int, field: str) -> float:
        return self._snapshot[field][eid]

    def write(self, vid: int, eid: int, field: str, value: float) -> None:
        self.pending[field][eid] = value
        if self.writers is not None:
            self.writers[field].setdefault(eid, []).append((vid, float(value)))


class SynchronousEngine:
    """BSP executor: barrier-deferred writes, snapshot reads."""

    mode = "sync"

    def run(
        self,
        program: VertexProgram,
        graph: DiGraph,
        config: EngineConfig | None = None,
        *,
        state: State | None = None,
        record=None,
        **loop_kw,
    ) -> RunResult:
        config = config or EngineConfig()
        state = state if state is not None else program.make_state(graph)
        fp_rng = config.rng("fp") if config.fp_noise else None
        p = config.threads

        def step(iteration, active, dm, clock):
            # Dispatch is used only for work accounting: BSP has no
            # intra-iteration dependences, so placement can't change values.
            plan = make_plan(active, p, policy=config.dispatch)
            store = _SnapshotStore(
                state.snapshot_edges(), log_writers=record is not None
            )
            next_schedule: set[int] = set()
            upd = [0] * p
            reads = [0] * p
            writes = [0] * p
            for vid in active.tolist():
                ctx = UpdateContext(
                    vid, graph, state, store, next_schedule, gather_rng=fp_rng,
                    strict_scope=config.validate_scope,
                )
                program.update(ctx)
                t = plan.slots[vid].thread
                upd[t] += 1
                reads[t] += ctx.n_edge_reads
                writes[t] += ctx.n_edge_writes
            if record is not None:
                _record_commits(record, iteration, store.writers, plan)
            state.commit_edges(store.pending)
            clock.lap("gather")
            return (sorted_ids(next_schedule),
                    IterationStats(iteration, int(active.size), upd, reads,
                                   writes), None, {})

        return run_loop(program, graph, config, state, step, mode=self.mode,
                        rngs={"fp": fp_rng},
                        record=record, **loop_kw)


def _record_commits(record, iteration: int, writers: dict, plan) -> None:
    """BSP provenance: no write is visible within the iteration (every
    pair is Defs. 1–3 concurrent); the commit applies writes in
    ascending-label order, so the last logged writer's value survives
    deterministically."""
    for field in sorted(writers):
        per_edge = writers[field]
        for eid in sorted(per_edge):
            wlist = per_edge[eid]
            win_vid, win_val = wlist[-1]
            eff: dict[int, float] = {}
            for vid_w, val_w in wlist:
                eff[vid_w] = val_w
            lost = [
                {
                    "vid": vid_w,
                    "thread": plan.slots[vid_w].thread,
                    "value": eff[vid_w],
                    "order": "concurrent",
                }
                for vid_w in sorted(eff)
                if vid_w != win_vid
            ]
            record.commit_event(
                iteration=iteration,
                field=field,
                eid=eid,
                writer=win_vid,
                writer_thread=plan.slots[win_vid].thread,
                value=win_val,
                lost=lost,
                rule="bsp-label-order" if len(eff) > 1 else "uncontended",
            )
