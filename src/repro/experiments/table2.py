"""Experiment T2 — Table II: difference degrees within one configuration.

The paper runs PageRank on web-Google five times per configuration —
deterministic (DE), and nondeterministic on 4/8/16 cores (4NE/8NE/16NE)
— for each convergence threshold ε ∈ {0.1, 0.01, 0.001}, then reports
the average difference degree over the C(5,2) = 10 pairs of runs of the
same configuration.

Observed shapes to reproduce (§V-C):

* NE degrees are *smaller* than DE degrees (variation reaches more
  significant pages);
* shrinking ε pushes the variation toward less significant pages
  (degrees grow);
* more processing cores push variation toward more significant pages
  (degrees shrink).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ..algorithms import PageRank
from ..analysis import ConfigurationRuns, VariationStudy, collect_rankings
from ..graph import DiGraph, load_dataset
from .common import DEFAULT_SCALE, DEFAULT_SEED, format_table

__all__ = ["VarianceResult", "build_study", "run_table2", "PAPER_EPSILONS", "PAPER_CONFIGS"]

#: The paper's three convergence thresholds.
PAPER_EPSILONS = (0.1, 0.01, 0.001)
#: The paper's four configurations: label -> (mode, threads, fp_noise).
PAPER_CONFIGS = {
    "DE": ("deterministic", 4, True),
    "4NE": ("nondeterministic", 4, False),
    "8NE": ("nondeterministic", 8, False),
    "16NE": ("nondeterministic", 16, False),
}


@dataclass
class VarianceResult:
    """Difference-degree table: one study per ε."""

    studies: dict[float, VariationStudy]
    kind: str  #: "same" (Table II) or "cross" (Table III)

    def table(self) -> dict[float, dict[str, float]]:
        if self.kind == "same":
            return {eps: s.table2() for eps, s in self.studies.items()}
        return {eps: s.table3() for eps, s in self.studies.items()}

    def rows(self) -> list[dict]:
        tables = self.table()
        epsilons = sorted(tables, reverse=True)
        labels: list[str] = []
        for eps in epsilons:
            for label in tables[eps]:
                if label not in labels:
                    labels.append(label)
        out = []
        for label in labels:
            row = {"pair": label}
            for eps in epsilons:
                row[f"eps={eps}"] = tables[eps].get(label, float("nan"))
            out.append(row)
        return out

    def render(self) -> str:
        title = (
            "Table II — average difference degrees, same configuration"
            if self.kind == "same"
            else "Table III — average difference degrees, different configurations"
        )
        return format_table(self.rows(), title=title)


def build_study(
    graph: DiGraph,
    epsilon: float,
    *,
    runs: int = 5,
    base_seed: int = 100,
    configs: dict[str, tuple[str, int, bool]] | None = None,
    trace_dir: str | None = None,
) -> VariationStudy:
    """Run every configuration ``runs`` times at one ε.

    Convergence verdicts and iteration counts come from each run's
    telemetry (see :func:`~repro.analysis.collect_rankings`); pass
    ``trace_dir`` to keep the per-run JSONL traces.
    """
    configs = configs or PAPER_CONFIGS
    collected: list[ConfigurationRuns] = []
    for label, (mode, threads, fp_noise) in configs.items():
        collected.append(
            collect_rankings(
                lambda: PageRank(epsilon=epsilon),
                graph,
                label=label,
                mode=mode,
                threads=threads,
                runs=runs,
                base_seed=base_seed,
                fp_noise=fp_noise,
                trace_dir=trace_dir,
            )
        )
    return VariationStudy(collected)


def run_table2(
    *,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    runs: int = 5,
    graph: DiGraph | None = None,
    trace_dir: str | None = None,
) -> VarianceResult:
    """Reproduce Table II on the web-Google stand-in.

    With ``trace_dir`` set, per-run telemetry traces are kept under one
    ``eps<ε>`` subdirectory per threshold.
    """
    graph = graph if graph is not None else load_dataset("web-google-mini", scale=scale, seed=seed)
    studies = {
        eps: build_study(
            graph,
            eps,
            runs=runs,
            trace_dir=os.path.join(trace_dir, f"eps{eps}") if trace_dir else None,
        )
        for eps in epsilons
    }
    return VarianceResult(studies=studies, kind="same")
