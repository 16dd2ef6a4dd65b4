"""Active sets and the task-generation rule (§II, coordinated scheduling).

The scheduler organizes execution as iterations ``I_0, I_1, ...``; at
iteration ``n`` a set of updates ``S_n ⊆ V`` is chosen and each runs
exactly once.  The only rule the system model places on task generation:
if ``f(v)`` writes one of ``v``'s incident edges ``(v,u)`` or ``(u,v)``,
then ``u`` must be added to ``S_{n+1}``.  (The engines enforce this via
:meth:`repro.engine.program.UpdateContext.write_edge`.)

The frontier deduplicates and keeps vertices sorted by label, because
each thread executes its assigned updates small-label-first.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..graph import DiGraph
from .program import VertexProgram

__all__ = ["Frontier", "initial_frontier", "sorted_ids"]


def sorted_ids(vertices) -> np.ndarray:
    """A set of vertex ids as the ascending int64 array the run loop
    carries its frontier in."""
    return np.fromiter(sorted(vertices), dtype=np.int64, count=len(vertices))


class Frontier:
    """The active set ``S_n`` of one iteration."""

    def __init__(self, vertices: Iterable[int] = ()):
        self._set: set[int] = {int(v) for v in vertices}

    def __len__(self) -> int:
        return len(self._set)

    def __bool__(self) -> bool:
        return bool(self._set)

    def __contains__(self, vid: int) -> bool:
        return int(vid) in self._set

    def add(self, vid: int) -> None:
        self._set.add(int(vid))

    def sorted_vertices(self) -> np.ndarray:
        """Active vertices ascending by label (small-label-first)."""
        return sorted_ids(self._set)

    def as_set(self) -> set[int]:
        return set(self._set)


def initial_frontier(program: VertexProgram, graph: DiGraph) -> Frontier:
    """Build ``S_0`` from the program's declaration."""
    spec = program.initial_frontier(graph)
    if isinstance(spec, str):
        if spec != "all":
            raise ValueError(f"unknown frontier spec {spec!r}")
        return Frontier(range(graph.num_vertices))
    frontier = Frontier(spec)
    for v in frontier.as_set():
        if not 0 <= v < graph.num_vertices:
            raise ValueError(f"initial frontier vertex {v} out of range")
    return frontier
