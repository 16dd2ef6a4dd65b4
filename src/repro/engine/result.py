"""Run results: everything an execution produces besides the final state.

A :class:`RunResult` carries the converged state, per-iteration work
profile (the input to the virtual-time cost model), the conflict log,
and bookkeeping that the theory and analysis packages consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .conflicts import ConflictLog
from .state import State

if TYPE_CHECKING:  # pragma: no cover
    from .program import VertexProgram
    from .runner import EngineConfig

__all__ = ["IterationStats", "RunResult"]


@dataclass
class IterationStats:
    """Work performed in one iteration, split per (virtual) thread.

    The per-thread resolution is what lets the cost model compute the
    barrier time ``max_t Σ work(t)`` for Fig. 3.
    """

    iteration: int
    num_active: int
    updates_per_thread: list[int]
    reads_per_thread: list[int]
    writes_per_thread: list[int]

    @property
    def total_reads(self) -> int:
        return sum(self.reads_per_thread)

    @property
    def total_writes(self) -> int:
        return sum(self.writes_per_thread)


@dataclass
class RunResult:
    """Outcome of executing a program on a graph with one engine."""

    program: "VertexProgram"
    state: State
    mode: str  #: one of ``capabilities.MODES``, or "push"
    converged: bool
    num_iterations: int
    iterations: list[IterationStats] = field(default_factory=list)
    conflicts: ConflictLog = field(default_factory=ConflictLog)
    config: "EngineConfig | None" = None
    extra: dict = field(default_factory=dict)  #: engine-specific facts (e.g. num_colors)

    @property
    def total_updates(self) -> int:
        return sum(sum(s.updates_per_thread) for s in self.iterations)

    @property
    def total_reads(self) -> int:
        return sum(s.total_reads for s in self.iterations)

    @property
    def total_writes(self) -> int:
        return sum(s.total_writes for s in self.iterations)

    def result(self) -> np.ndarray:
        """The program's primary per-vertex output."""
        return self.program.result(self.state)

    def summary(self) -> dict:
        """Compact dict for reports and experiment tables."""
        return {
            "mode": self.mode,
            "converged": self.converged,
            "iterations": self.num_iterations,
            "updates": self.total_updates,
            "edge_reads": self.total_reads,
            "edge_writes": self.total_writes,
            **self.conflicts.summary(),
        }
