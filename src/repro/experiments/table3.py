"""Experiment T3 — Table III: difference degrees across configurations.

Same runs as Table II, compared *between* configurations: DE vs kNE and
kNE vs k'NE, each cell averaging the 5×5 pairwise degrees.  The paper's
observed shape: higher precision (smaller ε) moves cross-configuration
variation toward less significant pages, and the top of the ranking
(~100 most significant pages on web-Google) is identical across every
configuration — the usability argument for nondeterministic PageRank.
"""

from __future__ import annotations

import os
from typing import Sequence

from ..graph import DiGraph, load_dataset
from .common import DEFAULT_SCALE, DEFAULT_SEED
from .table2 import PAPER_EPSILONS, VarianceResult, build_study

__all__ = ["run_table3"]


def run_table3(
    *,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    epsilons: Sequence[float] = PAPER_EPSILONS,
    runs: int = 5,
    graph: DiGraph | None = None,
    trace_dir: str | None = None,
) -> VarianceResult:
    """Reproduce Table III on the web-Google stand-in.

    With ``trace_dir`` set, per-run telemetry traces are kept under one
    ``eps<ε>`` subdirectory per threshold (same layout as Table II —
    the two tables share their runs' accounting with the traces by
    construction).
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
    return VarianceResult(studies=studies, kind="cross")
