"""Convergence-chain tracing: the proof object of Theorem 1, made concrete.

Theorem 1's proof argues that for any vertex ``v`` that takes ``k``
update repetitions to reach its final value under the synchronous model,
"there must exist a series of vertices v_0, v_1, ..., v_{k-1}, v forming
a chain" along which the computing result is passed one hop per
iteration.  This module extracts such a witness chain from an actual
synchronous run: it snapshots the primary result every iteration,
identifies when each vertex last changed, and walks backwards through
in-neighbours whose changes are one iteration older.

The extracted chain is a *witness*, not a uniqueness claim — several
chains may exist; we return one, preferring the in-neighbour with the
smallest label for reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import DiGraph
from ..engine.config import EngineConfig
from ..engine.program import VertexProgram
from ..engine.runner import run

__all__ = ["ConvergenceChain", "trace_chain"]


@dataclass(frozen=True)
class ConvergenceChain:
    """A witness information-flow chain ending at ``target``."""

    target: int
    vertices: tuple[int, ...]  #: chain in propagation order, ends at target
    change_iterations: tuple[int, ...]  #: iteration at which each link changed
    total_iterations: int  #: length of the synchronous run

    @property
    def length(self) -> int:
        return len(self.vertices)

    def render(self) -> str:
        if self.length <= 1:
            return f"vertex {self.target}: converged without upstream propagation"
        hops = " -> ".join(str(v) for v in self.vertices)
        return (
            f"vertex {self.target}: result propagated along {hops} "
            f"(changes at iterations {list(self.change_iterations)})"
        )


def trace_chain(
    program: VertexProgram,
    graph: DiGraph,
    target: int,
    *,
    config: EngineConfig | None = None,
) -> ConvergenceChain:
    """Trace a Theorem 1 witness chain for ``target`` under BSP execution.

    Runs the program synchronously, recording per-iteration snapshots of
    the primary result, then walks backwards from ``target``'s last
    change through in-neighbours that changed exactly one iteration
    earlier.
    """
    if not 0 <= target < graph.num_vertices:
        raise ValueError(f"target {target} out of range [0, {graph.num_vertices})")

    snapshots: list[np.ndarray] = []

    def observer(iteration: int, state, next_schedule) -> None:
        snapshots.append(np.array(program.result(state), dtype=np.float64, copy=True))

    result = run(program, graph, mode="sync", config=config, observer=observer,
                 vectorized=True)
    total = result.num_iterations
    if not snapshots:
        return ConvergenceChain(target, (target,), (), total)

    # changed[i] = boolean mask of vertices whose value changed during
    # iteration i (comparing to the previous snapshot / initial state).
    initial = np.array(program.result(program.make_state(graph)), dtype=np.float64)
    changed: list[np.ndarray] = []
    prev = initial
    for snap in snapshots:
        with np.errstate(invalid="ignore"):
            delta = snap != prev
        # Treat inf -> inf as unchanged, NaN transitions as changed.
        changed.append(np.asarray(delta))
        prev = snap

    def last_change(v: int) -> int:
        for i in range(len(changed) - 1, -1, -1):
            if changed[i][v]:
                return i
        return -1

    chain: list[int] = [target]
    iters: list[int] = []
    t = last_change(target)
    if t >= 0:
        iters.append(t)
    cur = target
    while t > 0:
        predecessors = [
            int(u) for u in graph.in_neighbors(cur).tolist() if changed[t - 1][u]
        ]
        if not predecessors:
            break
        nxt = min(predecessors)  # smallest label: reproducible witness
        chain.append(nxt)
        t -= 1
        iters.append(t)
        cur = nxt

    chain.reverse()
    iters.reverse()
    return ConvergenceChain(
        target=target,
        vertices=tuple(chain),
        change_iterations=tuple(iters),
        total_iterations=total,
    )
