"""Benchmark F3 — regenerate Fig. 3 (computing times, DE vs NE).

Runs the full 16-panel grid (4 algorithms × 4 stand-in graphs; DE
baseline plus NE at 4/8/16 threads priced under all three §III
atomicity methods) and asserts the paper's qualitative shape claims:

* architecture support ≤ compiler support ≤ explicit locking;
* NE (architecture) beats the deterministic baseline on every panel,
  with speedups in the paper's "up to ~3x and beyond" territory;
* NE performance scales with threads from 4 to 8 on most panels
  (sub-linear, with a few exceptions — §V-B's wording);
* NE with explicit locking — the suboptimal synchronization design —
  still beats DE at 16 threads on some panels.

Absolute times are virtual (see DESIGN.md §2); only shape is asserted.

``pytest benchmarks/bench_figure3.py -m perfsmoke`` holds the wall-clock
floor of the paper path: the grid on the array engines (DE as their
one-thread plan) against the same grid on the object engines.
"""

import time

import pytest

from repro.experiments import run_figure3
from repro.experiments.common import PAPER_THREADS

SCALE = 9


def test_figure3_grid(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_figure3(scale=SCALE, threads_list=PAPER_THREADS),
        rounds=1,
        iterations=1,
    )
    record_table("figure3", result.render())

    algorithms = result.algorithms()
    graphs = result.graphs()
    assert len(algorithms) == 4 and len(graphs) == 4

    lock_beats_de_at_16 = 0
    scaling_improvements = 0
    panels = 0
    for algo in algorithms:
        for graph in graphs:
            panels += 1
            de = result.cell(algo, graph, "DE", 4).virtual_seconds
            arch = {
                p: result.cell(algo, graph, "NE", p, "cache-line").virtual_seconds
                for p in PAPER_THREADS
            }
            comp = {
                p: result.cell(algo, graph, "NE", p, "atomic-relaxed").virtual_seconds
                for p in PAPER_THREADS
            }
            lock = {
                p: result.cell(algo, graph, "NE", p, "lock").virtual_seconds
                for p in PAPER_THREADS
            }
            # (1) per-thread-count policy ordering, every panel
            for p in PAPER_THREADS:
                assert arch[p] < comp[p] < lock[p], (algo, graph, p)
            # (2) NE-arch wins against DE at the best thread count
            assert min(arch.values()) < de, (algo, graph)
            # (3) lock is the worst NE method and slower than DE at 4 threads
            #     on most panels; count its 16-thread crossings of DE
            if lock[16] < de:
                lock_beats_de_at_16 += 1
            # (4) scaling 4 -> 8 improves NE-arch (count; allow exceptions)
            if arch[8] < arch[4]:
                scaling_improvements += 1

    assert panels == 16
    # "in some cases ... explicit locking/unlocking are even better than
    # the original deterministic executions when giving enough cores"
    assert lock_beats_de_at_16 >= 4
    # scaling holds on the clear majority of panels ("a few exceptions")
    assert scaling_improvements >= 12


def test_figure3_speedup_band(benchmark):
    """NE-arch best speedups land within the paper's order of magnitude
    (they report up to ~3.3x; virtual-time reproduction allows 2x-20x)."""
    result = benchmark.pedantic(
        lambda: run_figure3(scale=SCALE, threads_list=(8,)), rounds=1, iterations=1
    )
    speedups = []
    for algo in result.algorithms():
        for graph in result.graphs():
            de = result.cell(algo, graph, "DE", 4).virtual_seconds
            ne = result.cell(algo, graph, "NE", 8, "cache-line").virtual_seconds
            speedups.append(de / ne)
    best = max(speedups)
    assert 2.0 <= best <= 20.0
    assert min(speedups) > 1.0


@pytest.mark.perfsmoke
def test_array_path_floor_scale8(monkeypatch):
    """Tier-2 floor: ``run_figure3(scale=8)`` takes <= 0.25x the wall of
    the same call with its runs forced onto the object engines — same
    process, best of 2 each, so host load cancels.  Both sides render the
    same bytes (tests/test_paper_path.py holds that at every scale)."""
    from tests.test_paper_path import on_object_engines

    def best_of_2():
        walls = []
        for _ in range(2):
            t0 = time.perf_counter()
            text = run_figure3(scale=8).render()
            walls.append(time.perf_counter() - t0)
        return min(walls), text

    fast, fast_text = best_of_2()
    on_object_engines(monkeypatch)
    slow, slow_text = best_of_2()
    assert fast_text == slow_text
    assert fast <= 0.25 * slow, (
        f"array path {fast:.2f}s vs object engines {slow:.2f}s "
        f"({fast / slow:.2f}x)")
