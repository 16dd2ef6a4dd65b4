"""Experiment F3 — Fig. 3: computing times, deterministic vs nondeterministic.

Reproduces the paper's 16-panel performance grid: for each of
{PageRank, WCC, SSSP, BFS} × {4 stand-in graphs}, the deterministic
baseline (external deterministic scheduler, shown by the paper at 4
threads only because it does not scale) against nondeterministic
execution with the three §III atomicity methods at 4, 8 and 16 threads.

Because the three atomicity methods produce *identical values* and
differ only in cost, each (algorithm, graph, threads) cell needs exactly
one engine run; the three NE curves are three pricings of that run's
work profile.  Iteration counts are measured, not modeled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import os

from ..algorithms import PAPER_ALGORITHMS
from ..engine.atomicity import AtomicityPolicy
from ..engine.config import EngineConfig
from ..engine.runner import run
from ..graph import DiGraph
from ..graph.datasets import PAPER_DATASETS
from ..obs import Telemetry
from ..perf import CostParams, TimingRow, price_run
from .common import DEFAULT_SCALE, DEFAULT_SEED, PAPER_THREADS, format_table

__all__ = ["Figure3Result", "run_figure3", "run_figure3_explain", "NE_POLICIES"]

#: The three §III atomicity methods, in the paper's legend order.
NE_POLICIES = (
    AtomicityPolicy.LOCK,
    AtomicityPolicy.CACHE_LINE,
    AtomicityPolicy.ATOMIC_RELAXED,
)


@dataclass
class Figure3Result:
    """All timing rows of the Fig. 3 grid, with panel accessors."""

    rows: list[TimingRow] = field(default_factory=list)

    def panel(self, algorithm: str, graph: str) -> list[TimingRow]:
        """The rows of one Fig. 3 subplot."""
        return [r for r in self.rows if r.algorithm == algorithm and r.graph == graph]

    def cell(
        self, algorithm: str, graph: str, mode: str, threads: int, policy: str = "-"
    ) -> TimingRow:
        for r in self.panel(algorithm, graph):
            if r.mode == mode and r.threads == threads and r.policy == policy:
                return r
        raise KeyError(f"no row for {algorithm}/{graph}/{mode}/{threads}/{policy}")

    def algorithms(self) -> list[str]:
        return sorted({r.algorithm for r in self.rows})

    def graphs(self) -> list[str]:
        return sorted({r.graph for r in self.rows})

    def render(self) -> str:
        chunks = []
        for algo in self.algorithms():
            for graph in self.graphs():
                panel = self.panel(algo, graph)
                if panel:
                    chunks.append(
                        format_table(
                            [r.as_dict() for r in panel],
                            title=f"Fig. 3 — {algo} on {graph}",
                        )
                    )
        return "\n\n".join(chunks)


def run_figure3(
    *,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    run_seed: int = 0,
    threads_list: Sequence[int] = PAPER_THREADS,
    algorithms: Mapping[str, Callable] | None = None,
    graphs: Mapping[str, DiGraph] | None = None,
    cost_params: CostParams | None = None,
    trace_dir: str | None = None,
) -> Figure3Result:
    """Execute the full grid and price every cell.

    Every cell, DE and NE, runs on the array engines
    (``vectorized="require"``; DE as their one-thread plan), which
    reproduce the object engines' runs bit for bit — so a program
    without a registered kernel is an error here, not a slow path.
    Every engine run executes under a :class:`~repro.obs.Telemetry`
    sink, and the cost model prices the *recorded spans* — the figure
    and its traces cannot disagree.  With ``trace_dir`` set, each
    cell's JSONL trace is kept as ``<algo>_<graph>_<mode><threads>.jsonl``.

    Parameters
    ----------
    scale, seed:
        Size/seed of the stand-in datasets (ignored when ``graphs`` is
        given explicitly).
    run_seed:
        Engine seed for the nondeterministic runs.
    algorithms:
        ``name -> program factory``; defaults to the paper's four.
    graphs:
        ``name -> graph``; defaults to the four Table I stand-ins.
    trace_dir:
        Directory (created if missing) for per-cell JSONL traces.
    """
    algorithms = dict(algorithms or PAPER_ALGORITHMS)
    if graphs is None:
        graphs = {
            spec.name: spec.build(scale=scale, seed=seed)
            for spec in PAPER_DATASETS.values()
        }
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    def make_sink(cell: str) -> Telemetry:
        path = (
            os.path.join(trace_dir, f"{cell}.jsonl") if trace_dir is not None else None
        )
        return Telemetry(trace_path=path)

    out = Figure3Result()
    for algo_name, factory in algorithms.items():
        for graph_name, graph in graphs.items():
            # Deterministic baseline: the paper shows it at 4 threads only
            # ("the performances ... do not scale").
            sink = make_sink(f"{algo_name}_{graph_name}_de4")
            de = run(
                factory(),
                graph,
                mode="deterministic",
                config=EngineConfig(threads=4, seed=run_seed),
                vectorized="require",
                telemetry=sink,
            )
            out.rows.append(
                price_run(
                    de,
                    algorithm=algo_name,
                    graph=graph_name,
                    params=cost_params,
                    telemetry=sink,
                )
            )
            for threads in threads_list:
                sink = make_sink(f"{algo_name}_{graph_name}_ne{threads}")
                ne = run(
                    factory(),
                    graph,
                    mode="nondeterministic",
                    config=EngineConfig(threads=threads, seed=run_seed),
                    vectorized="require",
                    telemetry=sink,
                )
                for policy in NE_POLICIES:
                    out.rows.append(
                        price_run(
                            ne,
                            algorithm=algo_name,
                            graph=graph_name,
                            policy=policy,
                            params=cost_params,
                            telemetry=sink,
                        )
                    )
    return out


def run_figure3_explain(
    *,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    threads: int = 8,
    run_seeds: Sequence[int] = (0, 1),
    algorithms: Mapping[str, Callable] | None = None,
    graphs: Mapping[str, DiGraph] | None = None,
    policy: str = "conflicts",
    trace_dir: str | None = None,
) -> str:
    """Fig. 3's ``--explain`` mode: attribute ranking variance to races.

    For every (algorithm, graph) panel, run the nondeterministic engine
    twice with two different engine seeds (= two interleavings) under
    the flight recorder, align the provenance traces, and report the
    first divergent race together with its forward taint and the
    difference-degree verdict — turning the figure's run-to-run
    variance into a per-panel causal statement.  ``jitter=0.5`` so the
    seeds actually change the schedule; the runs take the array path,
    whose recorder stream equals the object engine's.  Returns the
    rendered report.
    """
    from ..analysis.explain import explain_traces
    from ..obs import Recorder

    if len(run_seeds) != 2:
        raise ValueError("run_seeds must name exactly two interleavings")
    algorithms = dict(algorithms or PAPER_ALGORITHMS)
    if graphs is None:
        graphs = {
            spec.name: spec.build(scale=scale, seed=seed)
            for spec in PAPER_DATASETS.values()
        }
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)

    chunks = []
    for algo_name, factory in algorithms.items():
        for graph_name, graph in graphs.items():
            recorders = []
            for run_seed in run_seeds:
                path = (
                    os.path.join(
                        trace_dir,
                        f"{algo_name}_{graph_name}_ne{threads}_s{run_seed}.jsonl",
                    )
                    if trace_dir is not None
                    else None
                )
                rec = Recorder(policy=policy, trace_path=path)
                run(
                    factory(),
                    graph,
                    mode="nondeterministic",
                    config=EngineConfig(threads=threads, seed=run_seed, jitter=0.5),
                    vectorized="require",
                    record=rec,
                )
                recorders.append(rec)
            report = explain_traces(
                recorders[0].records, recorders[1].records, graph=graph
            )
            chunks.append(
                f"=== {algo_name} on {graph_name} "
                f"(threads={threads}, seeds {tuple(run_seeds)}) ===\n"
                + report.render()
            )
    return "\n\n".join(chunks)
