"""Convergence-speed analysis (the paper's future-work item #3).

The paper proves nondeterministic executions converge in finitely many
iterations but leaves "theoretical analyses of the convergence speed
(e.g., in amount of iterations)" to future work.  This module provides
the empirical counterpart plus the bound its own proof technique
implies:

* **Upper bound from the Theorem 1 chain argument** — for algorithms
  with read–write conflicts only, every iteration advances every
  convergence chain by at least one hop (cases ≺, ≻ and ∥ of the proof
  all deliver the pending result within one extra iteration), so a
  nondeterministic execution needs at most as many iterations as the
  synchronous execution, plus one final empty-frontier check:
  ``iters_NE ≤ iters_SYNC + 1``.
* **Lower bound from asynchrony** — the deterministic Gauss–Seidel
  sweep is the fastest schedule the model admits on label-ascending
  propagation, so ``iters_DE ≤ iters_NE`` in practice (not a theorem:
  adversarial labelings can invert it; the report records violations
  rather than asserting).
* For write–write (Theorem 2) algorithms the chain argument still
  applies to the *corrected* values but each corruption can cost extra
  recovery iterations; the measured ratio ``iters_NE / iters_SYNC`` is
  reported so the recovery overhead is visible.

:func:`measure_convergence_speed` sweeps thread counts and delays,
measures iterations against the DE and BSP baselines, and
:meth:`SpeedReport.check_chain_bound` verifies the Theorem 1 bound for
read–write-only programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..graph import DiGraph
from ..engine.config import EngineConfig
from ..engine.runner import run
from ..engine.traits import ConflictProfile

__all__ = ["SpeedPoint", "SpeedReport", "measure_convergence_speed"]


@dataclass(frozen=True)
class SpeedPoint:
    """Iterations-to-converge at one (threads, delay, seed)."""

    threads: int
    delay: float
    seed: int
    iterations: int
    updates: int


@dataclass
class SpeedReport:
    """Measured convergence speeds against the two baselines."""

    algorithm: str
    conflict_profile: ConflictProfile
    deterministic_iterations: int
    synchronous_iterations: int
    points: list[SpeedPoint] = field(default_factory=list)

    def max_iterations(self) -> int:
        return max(p.iterations for p in self.points)

    def recovery_ratio(self) -> float:
        """Worst measured ``iters_NE / iters_SYNC`` (recovery overhead)."""
        return self.max_iterations() / max(1, self.synchronous_iterations)

    def check_chain_bound(self, slack: int = 1) -> bool:
        """Theorem 1's chain bound: NE ≤ SYNC + slack (RW-only programs).

        Returns True when the bound holds for every measured point; for
        write–write programs the bound is not implied and the method
        returns True vacuously (use :meth:`recovery_ratio` instead).
        """
        if self.conflict_profile is ConflictProfile.WRITE_WRITE:
            return True
        bound = self.synchronous_iterations + slack
        return all(p.iterations <= bound for p in self.points)

    def rows(self) -> list[dict]:
        out = [
            {
                "threads": "DE",
                "delay": "-",
                "seed": "-",
                "iterations": self.deterministic_iterations,
            },
            {
                "threads": "SYNC",
                "delay": "-",
                "seed": "-",
                "iterations": self.synchronous_iterations,
            },
        ]
        for p in self.points:
            out.append(
                {
                    "threads": p.threads,
                    "delay": p.delay,
                    "seed": p.seed,
                    "iterations": p.iterations,
                }
            )
        return out


def measure_convergence_speed(
    program_factory: Callable,
    graph: DiGraph,
    *,
    threads_list: Sequence[int] = (2, 4, 8),
    delays: Sequence[float] = (1.0, 4.0),
    seeds: Sequence[int] = (0, 1),
    max_iterations: int = 100_000,
) -> SpeedReport:
    """Measure iterations-to-converge across schedules and baselines.

    Every run takes the array path when the program has a kernel and
    the object engine otherwise; the two are bit-identical.
    """
    plans = [("deterministic", EngineConfig(max_iterations=max_iterations)),
             ("sync", EngineConfig(max_iterations=max_iterations))]
    plans += [("nondeterministic", EngineConfig(
        threads=threads, delay=float(delay), seed=seed,
        max_iterations=max_iterations))
        for threads in threads_list for delay in delays for seed in seeds]
    runs = []
    for mode, config in plans:
        res = run(program_factory(), graph, mode=mode, vectorized=True,
                  config=config)
        if not res.converged:
            raise RuntimeError(
                f"{mode} run (P={config.threads}, d={config.delay}, "
                f"seed={config.seed}) did not converge")
        runs.append(res)
    de, sync, *grid = runs
    traits = de.program.traits
    return SpeedReport(
        algorithm=traits.name,
        conflict_profile=traits.conflict_profile,
        deterministic_iterations=de.num_iterations,
        synchronous_iterations=sync.num_iterations,
        points=[SpeedPoint(threads=c.threads, delay=c.delay, seed=c.seed,
                           iterations=r.num_iterations,
                           updates=r.total_updates)
                for (_, c), r in zip(plans[2:], grid)],
    )
