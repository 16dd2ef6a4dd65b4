"""Repair-vs-recompute trajectory of the delta-accumulative engine.

Two entry points:

* ``python benchmarks/bench_incremental.py`` — runs the incremental
  suite (rmat 12/14/16 PageRank, WCC and SSSP, three 0.1%-edge mutation
  batches against a standing delta result) and appends a timestamped
  entry to ``BENCH_incremental.json`` at the repo root.  Each batch cell
  records the incremental repair cost (splice + reconvergence
  iterations) against a full vectorized recompute and a from-scratch
  delta run of the same mutated graph; ``fixed_batch`` repeats the
  stream with batches of exactly 30 edges at every scale, and
  ``large_batch`` with batches of 2% of the edges.
* ``pytest benchmarks/bench_incremental.py -m perfsmoke`` — tier-2
  floor: a 0.1%-edge repair must cost at most half of a full recompute
  measured in the *same run*, so a loaded CI host cannot flake it.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.engine import EngineConfig, run
from repro.graph import generators
from repro.graph.mutations import apply_batches, generate_batches

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_incremental.json"


def main() -> dict:
    from repro.experiments.benchtrack import run_bench

    written = run_bench(
        ("incremental",),
        progress=lambda m: print(f"{m} ...", flush=True),
    )
    payload = written["incremental"]
    print(f"wrote {OUTPUT} ({len(payload['entries'])} entries)")
    results = payload["entries"][-1]["results"]
    for scale, row in results["scales"].items():
        for name, cell in row["algorithms"].items():
            print(f"  scale {scale} {name:9s} "
                  f"repair {cell['repair_mean_seconds']:7.4f}s  "
                  f"recompute {cell['recompute_mean_seconds']:7.4f}s "
                  f"({cell['speedup']:.2f}x)  "
                  f"delta from scratch "
                  f"{cell['delta_scratch_mean_seconds']:7.4f}s "
                  f"({cell['delta_speedup']:.2f}x)  30-edge batch "
                  f"{cell['fixed_batch']['median_seconds']:7.4f}s  2% batch "
                  f"{cell['large_batch']['median_seconds']:7.4f}s")
    return payload


@pytest.mark.perfsmoke
def test_small_batch_repair_beats_recompute():
    """Tier-2 floor: repairing a 0.1%-edge batch costs at most half a
    full recompute.

    rmat-12 PageRank.  Both sides are measured seconds apart in the same
    process — the ratio cancels host load, so there is no absolute
    wall-clock term to flake on a slow runner.  Measured ~6-12x speedup
    on a single-core container; the 2x floor (0.5 ratio) flags only a
    real regression (e.g. repair accidentally re-seeding the whole
    graph), not scheduler noise.
    """
    from repro.obs import Telemetry

    graph = generators.rmat(12, 8.0, seed=3)
    batches = generate_batches(graph, 2, 0.001, seed=7)
    factory = lambda: PageRank(epsilon=1e-3)  # noqa: E731

    sink = Telemetry()
    res = run(factory(), graph, mode="delta",
              config=EngineConfig(threads=4, seed=0),
              telemetry=sink, mutations=batches)
    assert res.converged
    muts = res.extra["mutations"]
    assert len(muts) == 2
    walls = {s.iteration: s.wall_time_s for s in sink.spans}
    repair_costs = []
    for i, m in enumerate(muts):
        lo = m["at_iteration"]
        hi = (muts[i + 1]["at_iteration"] if i + 1 < len(muts)
              else res.num_iterations)
        repair_costs.append(
            m["repair_seconds"]
            + sum(walls.get(it, 0.0) for it in range(lo, hi)))
    repair_mean = float(np.mean(repair_costs))

    mutated, _ = apply_batches(graph, batches)
    t0 = time.perf_counter()
    rec = run(factory(), mutated, mode="nondeterministic",
              vectorized="require", config=EngineConfig(threads=4, seed=0))
    recompute_s = time.perf_counter() - t0
    assert rec.converged

    assert repair_mean <= recompute_s * 0.5, (
        f"0.1%-batch repair averaged {repair_mean:.4f}s vs "
        f"{recompute_s:.4f}s full recompute — ratio "
        f"{repair_mean / recompute_s:.2f} exceeds the 0.5 floor"
    )


if __name__ == "__main__":
    main()
