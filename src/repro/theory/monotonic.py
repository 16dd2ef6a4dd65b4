"""Empirical probe of the monotonicity property (Theorem 2's hypothesis).

Monotonicity — "the computing results monotonically increase or
decrease, but not both" — is declared by the program author.  Because a
wrong declaration silently voids Theorem 2's guarantee, this probe runs
the program under a deterministic schedule, snapshots the primary result
after every iteration, and checks the trajectory of every vertex value.

A passing probe is evidence, not proof (it inspects finitely many
executions); a failing probe is a definite refutation of the claim for
the given input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graph import DiGraph
from ..engine.config import EngineConfig
from ..engine.program import VertexProgram
from ..engine.runner import run
from ..engine.traits import Monotonicity

__all__ = ["MonotonicityProbe", "probe_monotonicity"]


@dataclass(frozen=True)
class MonotonicityProbe:
    """Observed directionality of per-vertex result trajectories."""

    increased: bool  #: some vertex value ever rose between iterations
    decreased: bool  #: some vertex value ever fell between iterations
    iterations_observed: int

    @property
    def observed(self) -> Monotonicity:
        """The direction consistent with the whole observation."""
        if self.increased and self.decreased:
            return Monotonicity.NONE
        if self.decreased:
            return Monotonicity.DECREASING
        if self.increased:
            return Monotonicity.INCREASING
        # Constant trajectories are vacuously monotone both ways; report
        # NONE is wrong, so pick INCREASING arbitrarily?  No: report the
        # neutral element and let the caller treat "no movement" as
        # consistent with any claim.
        return Monotonicity.NONE

    def consistent_with(self, claim: Monotonicity) -> bool:
        """Does the observation refute the declared monotonicity?"""
        if claim is Monotonicity.DECREASING:
            return not self.increased
        if claim is Monotonicity.INCREASING:
            return not self.decreased
        return True  # a NONE claim is never refuted


def probe_monotonicity(
    program: VertexProgram,
    graph: DiGraph,
    *,
    mode: str = "deterministic",
    config: EngineConfig | None = None,
    max_iterations: int = 200,
) -> MonotonicityProbe:
    """Run ``program`` and watch the primary result's per-vertex trajectory.

    NaN-safe and ∞-aware (the paper's unreached labels/distances start at
    infinity and only ever come down for monotone-decreasing programs).
    """
    # Seed the trajectory with the initial values so the very first
    # iteration's movement is observed too.
    initial = np.array(
        program.result(program.make_state(graph)), dtype=np.float64, copy=True
    )
    snapshots: list[np.ndarray] = [initial]

    def observer(iteration: int, state, next_schedule) -> None:
        snapshots.append(np.array(program.result(state), dtype=np.float64, copy=True))

    cfg = config or EngineConfig(max_iterations=max_iterations)
    if cfg.max_iterations > max_iterations:
        cfg = cfg.with_(max_iterations=max_iterations)
    # The observer sees the same trajectory on both paths; a program
    # without a kernel, or pure-async (no array path), runs the object
    # engine.
    run(program, graph, mode=mode, config=cfg, observer=observer,
        vectorized=mode != "pure-async")

    increased = False
    decreased = False
    for prev, cur in zip(snapshots, snapshots[1:]):
        with np.errstate(invalid="ignore"):
            if bool(np.any(cur > prev)):
                increased = True
            if bool(np.any(cur < prev)):
                decreased = True
        if increased and decreased:
            break
    return MonotonicityProbe(
        increased=increased, decreased=decreased, iterations_observed=len(snapshots)
    )
