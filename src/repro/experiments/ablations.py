"""Ablation experiments (DESIGN.md A1–A3).

These probe the design choices the paper fixes by assumption:

* **A1 — atomicity off** (§III's motivation): with
  ``AtomicityPolicy.NONE`` racing accesses observe/commit torn values.
  Traversal algorithms either corrupt their results or survive only by
  luck; the experiment quantifies both.
* **A2 — propagation delay sweep** (§II): larger ``d`` widens the
  concurrency window ``∥``, delaying intra-iteration result reuse and
  increasing the iterations to converge.
* **A3 — dispatch policy** (Fig. 1): block (OpenMP-static, the paper's
  choice) vs round-robin assignment changes which neighbours land in the
  same thread and therefore the conflict mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..algorithms import SSSP, WeaklyConnectedComponents, reference
from ..engine.atomicity import AtomicityPolicy
from ..engine.config import EngineConfig
from ..engine.dispatch import DispatchPolicy
from ..engine.runner import run
from ..graph import DiGraph, load_dataset
from .common import DEFAULT_SCALE, DEFAULT_SEED, format_table

__all__ = [
    "run_delay_sweep",
    "run_torn_study",
    "run_dispatch_study",
    "AblationResult",
]


@dataclass
class AblationResult:
    title: str
    rows: list[dict]

    def render(self) -> str:
        return format_table(self.rows, title=self.title)


def run_delay_sweep(
    *,
    graph: DiGraph | None = None,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    delays: Sequence[float] = (1, 4, 16, 64, 128),
    threads: int = 8,
    program_factory: Callable | None = None,
    seeds: Sequence[int] = (0, 1, 2),
) -> AblationResult:
    """A2: effect of the propagation delay ``d``.

    As ``d`` grows toward the per-thread block size, same-iteration
    cross-thread reuse vanishes and the execution degrades toward the
    synchronous model: stale reads rise and the iteration count climbs
    toward the BSP count.  Defaults to BFS, whose iteration count is a
    clean proxy for propagation speed.
    """
    from ..algorithms import BFS

    graph = graph if graph is not None else load_dataset("web-google-mini", scale=scale, seed=seed)
    factory = program_factory or (lambda: BFS(source=0))
    rows = []
    for d in delays:
        iters = []
        confl = []
        stale = []
        for s in seeds:
            res = run(
                factory(),
                graph,
                mode="nondeterministic",
                config=EngineConfig(threads=threads, delay=float(d), seed=s),
                vectorized="require",
            )
            if not res.converged:
                raise RuntimeError(f"delay sweep run (d={d}, seed={s}) did not converge")
            iters.append(res.num_iterations)
            confl.append(res.conflicts.total)
            stale.append(res.conflicts.stale_reads)
        rows.append(
            {
                "delay d": d,
                "mean iterations": float(np.mean(iters)),
                "mean conflicts": float(np.mean(confl)),
                "mean stale reads": float(np.mean(stale)),
            }
        )
    return AblationResult("A2 — propagation delay sweep", rows)


def run_torn_study(
    *,
    graph: DiGraph | None = None,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    threads: int = 8,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    max_iterations: int = 2_000,
    torn_probability: float = 1.0,
) -> AblationResult:
    """A1: what goes wrong without the §III atomicity guarantee.

    Runs SSSP with torn-value injection and reports, per seed, how many
    final distances differ (bit-exactly) from the true shortest paths.
    SSSP is the sensitive victim here: its edge distances are
    full-mantissa floats, so mixing the 32-bit halves of two racing
    values yields a plausible-looking wrong distance that min-relaxation
    can never correct upward.  (WCC, by contrast, is accidentally
    torn-immune: its labels are small integers whose low mantissa bits
    are all zero, so every tear reproduces one of the two inputs — an
    instance of Boehm's observation that "benign" races are fragile
    luck, not safety.)
    """
    graph = graph if graph is not None else load_dataset("web-google-mini", scale=scale, seed=seed)
    prog0 = SSSP(source=0)
    truth = reference.sssp_reference(graph, 0, prog0.make_weights(graph))
    rows = []
    for s in seeds:
        res = run(
            SSSP(source=0),
            graph,
            mode="nondeterministic",
            config=EngineConfig(
                threads=threads,
                seed=s,
                atomicity=AtomicityPolicy.NONE,
                max_iterations=max_iterations,
                torn_probability=torn_probability,
            ),
            # atomicity=NONE injects torn values per access: object engine only.
            vectorized=False,
        )
        values = res.result()
        wrong = int(np.sum(values != truth))
        rows.append(
            {
                "seed": s,
                "converged": res.converged,
                "iterations": res.num_iterations,
                "wrong distances": wrong,
                "corrupted": (wrong > 0) or (not res.converged),
            }
        )
    return AblationResult("A1 — SSSP without atomicity (torn values)", rows)


def run_dispatch_study(
    *,
    graph: DiGraph | None = None,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    threads: int = 8,
    seeds: Sequence[int] = (0, 1, 2),
) -> AblationResult:
    """A3: block vs round-robin dispatch, measured on WCC and SSSP."""
    graph = graph if graph is not None else load_dataset("web-google-mini", scale=scale, seed=seed)
    rows = []
    for name, factory in (("WCC", WeaklyConnectedComponents), ("SSSP", lambda: SSSP(source=0))):
        for policy in (DispatchPolicy.BLOCK, DispatchPolicy.ROUND_ROBIN):
            iters = []
            confl = []
            for s in seeds:
                res = run(
                    factory(),
                    graph,
                    mode="nondeterministic",
                    config=EngineConfig(threads=threads, seed=s, dispatch=policy),
                    vectorized="require",
                )
                if not res.converged:
                    raise RuntimeError(f"dispatch study run did not converge ({name}, {policy})")
                iters.append(res.num_iterations)
                confl.append(res.conflicts.total)
            rows.append(
                {
                    "algorithm": name,
                    "dispatch": policy.value,
                    "mean iterations": float(np.mean(iters)),
                    "mean conflicts": float(np.mean(confl)),
                }
            )
    return AblationResult("A3 — dispatch policy", rows)
