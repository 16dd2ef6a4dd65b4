"""Multi-run result-variation studies (§V-C machinery).

Drives repeated PageRank (or any approximate-convergence program)
executions under the configurations of Tables II/III — deterministic
("DE") and nondeterministic at several thread counts ("4NE", "8NE",
"16NE") — and collects the converged rankings for difference-degree
analysis.

Deterministic runs are bit-reproducible in this engine, so to reproduce
the paper's nonzero DE-vs-DE degrees (caused by float non-associativity
on real hardware) DE runs are executed with ``fp_noise=True``: a seeded
permutation of each gather's summation order, the controlled equivalent
of the same physical effect.  Every run, DE included, takes the array
engines, which replay the object engines' permutation draws bit for bit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..graph import DiGraph
from ..engine.config import EngineConfig
from ..engine.program import VertexProgram
from ..engine.runner import run
from ..obs import Telemetry
from .difference import average_difference_degree, cross_difference_degree, ranking

__all__ = ["ConfigurationRuns", "collect_rankings", "VariationStudy"]


@dataclass(frozen=True)
class ConfigurationRuns:
    """Rankings produced by ``n`` independent runs of one configuration."""

    label: str  #: e.g. "DE", "4NE", "8NE", "16NE"
    rankings: tuple[np.ndarray, ...]
    #: Per-run iteration counts, sourced from each run's telemetry trace.
    iteration_counts: tuple[int, ...] = ()

    def self_average(self) -> float:
        """Table II cell: average degree over all C(n,2) pairs."""
        return average_difference_degree(self.rankings)


def collect_rankings(
    program_factory: Callable[[], VertexProgram],
    graph: DiGraph,
    *,
    label: str,
    mode: str,
    threads: int = 4,
    runs: int = 5,
    base_seed: int = 100,
    fp_noise: bool = False,
    max_iterations: int = 100_000,
    trace_dir: str | None = None,
) -> ConfigurationRuns:
    """Execute ``runs`` independent runs and rank their results.

    Each run gets a distinct seed (``base_seed + i``): for DE with
    ``fp_noise`` that varies the summation orders; for NE it varies the
    environmental jitter, i.e. the execution interleaving.

    Runs take the array engines (``vectorized="require"``; DE as their
    one-thread plan), which reproduce the object engines bit for bit,
    ``fp_noise`` gather permutations included.

    Every run executes under a :class:`~repro.obs.Telemetry` sink, and
    the convergence verdict and iteration counts the study reports are
    read back from the telemetry — the variation tables and the traces
    agree by construction.  With ``trace_dir`` set (created if missing),
    each run's JSONL trace is kept as ``<label>_run<i>.jsonl``.
    """
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    rankings: list[np.ndarray] = []
    iteration_counts: list[int] = []
    for i in range(runs):
        cfg = EngineConfig(
            threads=threads,
            seed=base_seed + i,
            fp_noise=fp_noise,
            max_iterations=max_iterations,
        )
        sink = Telemetry(
            trace_path=os.path.join(trace_dir, f"{label}_run{i}.jsonl")
            if trace_dir is not None
            else None
        )
        res = run(
            program_factory(),
            graph,
            mode=mode,
            config=cfg,
            vectorized="require",
            telemetry=sink,
        )
        summary = sink.run_summary
        if not summary["converged"]:
            raise RuntimeError(
                f"{label} run {i} did not converge within {max_iterations} iterations"
            )
        iteration_counts.append(int(summary["iterations"]))
        rankings.append(ranking(res.result()))
    return ConfigurationRuns(
        label=label,
        rankings=tuple(rankings),
        iteration_counts=tuple(iteration_counts),
    )


@dataclass
class VariationStudy:
    """A full §V-C study: several configurations, pairwise-compared."""

    configurations: Sequence[ConfigurationRuns]

    def table2(self) -> dict[str, float]:
        """"X vs X" rows: average degree within each configuration."""
        return {f"{c.label} vs. {c.label}": c.self_average() for c in self.configurations}

    def table3(self) -> dict[str, float]:
        """"X vs Y" rows: average degree between distinct configurations."""
        out: dict[str, float] = {}
        cfgs = list(self.configurations)
        for i in range(len(cfgs)):
            for j in range(i + 1, len(cfgs)):
                a, b = cfgs[i], cfgs[j]
                out[f"{a.label} vs. {b.label}"] = cross_difference_degree(
                    a.rankings, b.rankings
                )
        return out

    def identical_prefix(self) -> int:
        """Prefix of the ranking all runs of all configurations agree on."""
        from .difference import identical_prefix_length

        all_rankings = [r for c in self.configurations for r in c.rankings]
        return identical_prefix_length(all_rankings)
