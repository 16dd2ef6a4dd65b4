"""Deterministic asynchronous execution (the paper's "DE" baseline).

Models GraphChi's *external deterministic scheduler*: within each
iteration the chosen updates run one at a time in ascending label order,
and every read/write takes effect immediately (Gauss–Seidel).  As the
paper observes, this execution "does not scale — the updates are
actually conducted sequentially due to the data dependences among the
updates"; the cost model therefore charges it sequential time plus the
per-iteration path-plotting overhead regardless of how many processors
are configured.

No conflicts can occur (a single update runs at a time), so the conflict
log of a deterministic run is always empty — a property the test suite
asserts.
"""

from __future__ import annotations

from ..graph import DiGraph
from .config import EngineConfig
from .frontier import sorted_ids
from .loop import run_loop
from .program import UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .state import State

__all__ = ["DeterministicEngine"]


class _DirectStore:
    """In-place edge store: reads and writes effective immediately.

    Shared by the deterministic and chromatic engines.  With a recorder
    attached (write-recording policies only), every in-place write is
    emitted as ``write`` provenance — the execution admits no race, so
    ``order="before"``: each write is visible to every later read.  The
    disabled path is one pointer comparison per write.
    """

    __slots__ = ("_edges", "recorder", "iteration", "current_thread", "rule")

    def __init__(self, state: State, *, rule: str = "gauss-seidel"):
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
    """Sequential small-label-first asynchronous executor."""

    mode = "deterministic"

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
        store = _DirectStore(state)
        if record is not None and record.records_writes:
            store.recorder = record
        fp_rng = config.rng("fp") if config.fp_noise else None

        def step(iteration, active, dm, clock):
            store.iteration = iteration
            next_schedule: set[int] = set()
            reads = writes = 0
            for vid in active.tolist():
                ctx = UpdateContext(
                    vid, graph, state, store, next_schedule, gather_rng=fp_rng,
                    strict_scope=config.validate_scope,
                )
                program.update(ctx)
                reads += ctx.n_edge_reads
                writes += ctx.n_edge_writes
            if clock is not None:
                clock.lap("gather")
            # Sequential execution: a single update runs at a time, so no
            # conflicts can occur.
            return (sorted_ids(next_schedule),
                    IterationStats(iteration, int(active.size),
                                   [int(active.size)], [reads], [writes]),
                    None, {})

        return run_loop(program, graph, config, state, step, mode=self.mode,
                        rngs={"fp": fp_rng},
                        record=record, **loop_kw)
