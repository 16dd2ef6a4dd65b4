"""Sequential asynchronous execution: DE and the chromatic scheduler.

DE, the paper's baseline, models GraphChi's *external deterministic
scheduler*: within each iteration the chosen updates run one at a time
in ascending label order, and every read/write takes effect immediately
(Gauss–Seidel).  As the paper observes, this execution "does not scale —
the updates are actually conducted sequentially due to the data
dependences among the updates"; the cost model therefore charges it
sequential time plus the per-iteration path-plotting overhead regardless
of how many processors are configured.

The chromatic scheduler (Kaler, Hasenplaugh, Schardl, Leiserson —
SPAA'14), the deterministic *parallel* alternative of the paper's §VI,
is the same sweep in ``(colour, vid)`` order: same-colour vertices share
no edge, so a colour class runs race-free in parallel and nothing inside
it can exchange a value.  Its threads only account work; the cost model
charges one barrier per colour class and the colouring (E6).

No conflicts can occur (a single update runs at a time), so the conflict
log of either is always empty — a property the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from ..graph import DiGraph
from .config import EngineConfig
from .dispatch import sequential_plan
from .frontier import sorted_ids
from .loop import run_loop
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["DeterministicEngine"]


class _DirectStore:
    """In-place edge store: reads and writes effective immediately.

    Shared by DE and the chromatic scheduler.  With a recorder
    attached (write-recording policies only), every in-place write is
    emitted as ``write`` provenance — the execution admits no race, so
    ``order="before"``: each write is visible to every later read.  The
    disabled path is one pointer comparison per write.
    """

    __slots__ = ("_edges", "recorder", "iteration", "current_thread", "rule")

    def __init__(self, state: State, rule: str):
        self._edges = {name: state.edge(name) for name in state.edge_field_names}
        self.recorder = None
        self.iteration = 0
        self.current_thread = 0
        self.rule = rule

    def read(self, vid: int, eid: int, field: str) -> float:
        return self._edges[field][eid]

    def write(self, vid: int, eid: int, field: str, value: float) -> None:
        self._edges[field][eid] = value
        if self.recorder is not None:
            self.recorder.write_event(
                iteration=self.iteration,
                field=field,
                eid=eid,
                writer=vid,
                writer_thread=self.current_thread,
                value=float(value),
                rule=self.rule,
                order="before",
            )


class DeterministicEngine:
    """Sequential asynchronous executor: small-label-first (DE), or in
    colour order (the chromatic scheduler)."""

    mode = "deterministic"

    def run(
        self,
        program: VertexProgram,
        graph: DiGraph,
        config: EngineConfig | None = None,
        *,
        colors: np.ndarray | None = None,
        state: State | None = None,
        record=None,
        **loop_kw,
    ) -> RunResult:
        """``colors``: a per-vertex colouring makes this the chromatic
        scheduler — the sweep runs in ``(colour, vid)`` order and each
        colour class is dispatched over ``config.threads`` threads for
        the work accounting; ``None`` is DE, one class at one thread."""
        config = config or EngineConfig()
        state = state if state is not None else program.make_state(graph)
        chromatic = colors is not None
        store = _DirectStore(state, "chromatic" if chromatic else "gauss-seidel")
        if record is not None and record.records_writes:
            store.recorder = record
        fp_rng = config.rng("fp") if config.fp_noise else None
        key, p = (colors, config.threads) if chromatic else (
            np.zeros(graph.num_vertices, dtype=np.int64), 1)
        facts = {"num_colors": int(key.max(initial=-1)) + 1} if chromatic else {}

        def step(iteration, active, dm, clock):
            store.iteration = iteration
            next_schedule: set[int] = set()
            thread, pi, _ = sequential_plan(active, key, p, policy=config.dispatch)
            order = np.argsort(pi)
            upd, reads, writes = [0] * p, [0] * p, [0] * p
            for vid, t in zip(active[order].tolist(), thread[order].tolist()):
                store.current_thread = t
                ctx = UpdateContext(
                    vid, graph, state, store, next_schedule, gather_rng=fp_rng,
                    strict_scope=config.validate_scope,
                )
                program.update(ctx)
                upd[t] += 1
                reads[t] += ctx.n_edge_reads
                writes[t] += ctx.n_edge_writes
            clock.lap("gather")
            # Sequential execution: a single update runs at a time, so no
            # conflicts can occur.
            return (sorted_ids(next_schedule),
                    IterationStats(iteration, int(active.size), upd, reads,
                                   writes),
                    None, dict(facts))

        return run_loop(program, graph, config, state, step,
                        mode="chromatic" if chromatic else self.mode,
                        extra=lambda: dict(facts), rngs={"fp": fp_rng},
                        record=record, **loop_kw)
