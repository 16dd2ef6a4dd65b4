#!/usr/bin/env python
"""SSSP under every execution model, plus the knobs of the system model.

Runs the paper's SSSP on the cage15 stand-in under all four executors
and shows:

* all schedules reach the exact Dijkstra distances (absolute
  convergence + Theorem 1);
* iteration counts order as deterministic-async <= nondeterministic <=
  synchronous (asynchrony reuses fresh values within an iteration);
* how the propagation delay ``d`` and thread count shift the
  nondeterministic execution between those extremes;
* the virtual-time Fig. 3 story for this single panel.

Run:  python examples/sssp_schedules.py
"""

import numpy as np

from repro import AtomicityPolicy, EngineConfig, SSSP, estimate_time, run
from repro.algorithms import reference
from repro.graph import load_dataset


def main() -> None:
    graph = load_dataset("cage15-mini", scale=10, seed=7)
    print(f"graph: {graph}")
    source = 0
    prog = SSSP(source=source)
    truth = reference.sssp_reference(graph, source, prog.make_weights(graph))
    reached = int(np.sum(np.isfinite(truth)))
    print(f"reachable vertices from {source}: {reached}/{graph.num_vertices}\n")

    print("--- all execution models agree on the distances ---")
    for mode in ("sync", "deterministic", "chromatic", "nondeterministic"):
        result = run(SSSP(source=source), graph, mode=mode,
                     config=EngineConfig(threads=8, seed=3))
        exact = np.array_equal(result.result(), truth)
        print(f"{mode:17s} iterations={result.num_iterations:3d} exact={exact}")

    print("\n--- propagation delay d interpolates async -> sync ---")
    for d in (1, 8, 32, 64, 128):
        result = run(SSSP(source=source), graph, mode="nondeterministic",
                     config=EngineConfig(threads=8, delay=float(d), seed=3))
        print(f"d={d:4d} iterations={result.num_iterations:3d} "
              f"stale_reads={result.conflicts.stale_reads:5d}")

    print("\n--- one Fig. 3 panel: virtual computing time ---")
    de = run(SSSP(source=source), graph, mode="deterministic")
    de_t = estimate_time(de)
    print(f"DE (external deterministic): {de_t*1e3:8.3f} ms  "
          f"({de.num_iterations} iterations, sequential)")
    for threads in (4, 8, 16):
        ne = run(SSSP(source=source), graph, mode="nondeterministic",
                 config=EngineConfig(threads=threads, seed=3))
        for policy in (AtomicityPolicy.LOCK, AtomicityPolicy.CACHE_LINE,
                       AtomicityPolicy.ATOMIC_RELAXED):
            t = estimate_time(ne, policy=policy)
            print(f"NE {policy.value:14s} threads={threads:2d}: {t*1e3:8.3f} ms  "
                  f"(speedup over DE: {de_t/t:4.2f}x)")


if __name__ == "__main__":
    main()
