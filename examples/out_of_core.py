#!/usr/bin/env python
"""GraphChi's storage story: a PSW shard store and out-of-core runs.

The paper's experiments run on GraphChi — "large-scale graph computation
on just a PC" — whose defining mechanism is the Parallel Sliding Windows
disk layout.  This example:

1. builds a stand-in graph into a shard store on disk and validates the
   PSW invariants;
2. runs WCC out of core, interval by interval, checks that it is
   bit-identical to the in-memory nondeterministic engine at the same
   configuration (the paper excludes I/O time from its Fig. 3 for
   exactly this separation of concerns) and prints the I/O it moved;
3. shows the interval-count / resident-window trade-off.

Run:  python examples/out_of_core.py
"""

import os
import tempfile

from repro import EngineConfig, run
from repro.algorithms import WeaklyConnectedComponents
from repro.graph import load_dataset
from repro.storage import ShardStore


def main() -> None:
    graph = load_dataset("soc-livejournal1-mini", scale=10, seed=7)
    config = EngineConfig(threads=4, seed=1)
    print(f"graph: {graph}\n")

    with tempfile.TemporaryDirectory() as tmp:
        print("--- preprocessing into a PSW shard store ---")
        store = ShardStore.build(graph, os.path.join(tmp, "g.shards"), 4)
        store.validate()
        for k in range(store.num_intervals):
            lo, hi = store.interval(k)
            edges = int(store.shard_offsets[k + 1] - store.shard_offsets[k])
            print(f"shard {k}: dst interval [{lo:4d}, {hi:4d}), "
                  f"{edges:6d} edges (sorted by src)")

        print("\n--- out-of-core execution ---")
        in_memory = run(WeaklyConnectedComponents(), graph, config=config)
        result = run(WeaklyConnectedComponents(), store, config=config)
        identical = (
            result.result().tobytes() == in_memory.result().tobytes()
            and result.iterations == in_memory.iterations
            and result.conflicts.summary() == in_memory.conflicts.summary()
        )
        print(f"converged={result.converged} in {result.num_iterations} "
              f"iterations; bit-identical to in-memory: {identical}")
        print(f"I/O: {result.extra['io']}")

        print("\n--- interval count vs resident window ---")
        for k in (1, 2, 4, 8, 16):
            store_k = ShardStore.build(graph, os.path.join(tmp, f"g{k}.shards"), k)
            io = run(WeaklyConnectedComponents(), store_k,
                     config=config).extra["io"]
            per_load = io["bytes_read"] / max(1, io["interval_loads"])
            print(f"{k:3d} intervals: {io['interval_loads']:4d} loads, "
                  f"{per_load / 1024:8.1f} KiB read per load")
            store_k.nondet_runner().close()
        store.nondet_runner().close()


if __name__ == "__main__":
    main()
