#!/usr/bin/env python
"""The paper's future-work section, executed.

§VII lists four open directions; this example walks each one as built
in this library:

1. **Push mode** — delta BFS and delta PageRank pushing into vertex
   accumulators with atomic combines, the push-mode sufficient
   condition, and the lost-update failure when the combine is not
   atomic.
2. **Pure asynchronous model** — the barrier-free executor, compared
   against the barriered one in tasks executed and result fidelity.
3. **Convergence speed** — measured iteration counts against the
   deterministic and synchronous baselines, with the Theorem 1 chain
   bound checked.
4. **Distributed systems** — the relaxed delay model: the same WCC run
   on a flat machine, a 2-socket NUMA box, and a 4-machine cluster.

Run:  python examples/beyond_the_paper.py
"""

import numpy as np

from repro import EngineConfig, WeaklyConnectedComponents, run
from repro.algorithms import BFS, PageRank, reference
from repro.analysis import error_report
from repro.engine import AtomicityPolicy, DelayModel
from repro.engine.nondet_delta import resolve_delta_kernel
from repro.graph import generators
from repro.theory import check_push_program, measure_convergence_speed


def push_mode(graph) -> None:
    print("=" * 72)
    print("1. Push mode: accumulators + atomic combines")
    print("=" * 72)
    kernel = resolve_delta_kernel(BFS(source=0))
    print(check_push_program(BFS(source=0).traits,
                             {kernel.field: kernel.op}).render())
    print()
    truth = reference.bfs_reference(graph, 0)
    res = run(BFS(source=0), graph, mode="delta", threads=8, seed=1)
    print(f"delta BFS: exact={np.array_equal(res.result(), truth)}")

    ref = reference.pagerank_reference(graph)
    good = run(PageRank(epsilon=1e-7), graph, mode="delta", threads=8, seed=1)
    bad = run(PageRank(epsilon=1e-7), graph, mode="delta", threads=8, seed=1,
              atomicity=AtomicityPolicy.NONE, torn_probability=0.5)
    print(f"delta PageRank, atomic combine:     max error "
          f"{np.max(np.abs(good.result() - ref)):.2e}")
    print(f"delta PageRank, racy combine:       max error "
          f"{np.max(np.abs(bad.result() - ref)):.2e} "
          f"({bad.conflicts.lost_writes} of {bad.conflicts.write_write} "
          "racing combines lost)")
    print()


def pure_async(graph) -> None:
    print("=" * 72)
    print("2. Pure asynchronous model: no barriers")
    print("=" * 72)
    truth = reference.wcc_reference(graph)
    barriered = run(WeaklyConnectedComponents(), graph, mode="nondeterministic",
                    config=EngineConfig(threads=8, seed=0))
    pure = run(WeaklyConnectedComponents(), graph, mode="pure-async",
               config=EngineConfig(threads=8, seed=0))
    for name, res in (("barriered NE", barriered), ("pure async", pure)):
        print(f"{name:13s} tasks={res.total_updates:5d} "
              f"exact={np.array_equal(res.result(), truth)}")
    print("(GRACE's observation: comparable work with and without barriers)")
    print()


def convergence_speed(graph) -> None:
    print("=" * 72)
    print("3. Convergence speed vs the DE / BSP baselines")
    print("=" * 72)
    report = measure_convergence_speed(
        lambda: BFS(source=0), graph,
        threads_list=(2, 8), delays=(1.0, 8.0), seeds=(0, 1),
    )
    print(f"BFS: DE={report.deterministic_iterations} iterations, "
          f"SYNC={report.synchronous_iterations}, "
          f"NE range=[{report.min_iterations()}, {report.max_iterations()}]")
    print(f"Theorem 1 chain bound (NE <= SYNC + 1): {report.check_chain_bound()}")
    print()


def distributed(graph) -> None:
    print("=" * 72)
    print("4. Relaxed system model: NUMA and distributed delays")
    print("=" * 72)
    truth = reference.wcc_reference(graph)
    topologies = [
        ("flat machine (d=2)", DelayModel.uniform(2.0)),
        ("2-socket NUMA (2/8)", DelayModel.numa(4, intra=2.0, inter=8.0)),
        ("4-machine cluster (2/64)", DelayModel.distributed(2, intra=2.0, network=64.0)),
    ]
    for name, model in topologies:
        res = run(WeaklyConnectedComponents(), graph, mode="nondeterministic",
                  config=EngineConfig(threads=8, delay_model=model, seed=3))
        rep = error_report(res.result(), truth, top_k=10)
        print(f"{name:26s} iterations={res.num_iterations:2d} "
              f"stale_reads={res.conflicts.stale_reads:5d} "
              f"exact={rep.max_abs == 0.0}")
    print("Theorems 1 and 2 survive the relaxation — only the cost changes.")


def main() -> None:
    graph = generators.rmat(9, 7.0, seed=11)
    print(f"graph: {graph}\n")
    push_mode(graph)
    pure_async(graph)
    convergence_speed(graph)
    distributed(graph)


if __name__ == "__main__":
    main()
