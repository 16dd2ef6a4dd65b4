"""Perf trajectory of the vectorized nondeterministic fast path.

Two entry points:

* ``python benchmarks/bench_nondet_fast.py`` — measures the object
  engine against the vectorized engine for every paper algorithm at
  rmat scales 8/10/12 and appends a timestamped trajectory entry to
  ``BENCH_nondet.json`` at the repo root (wall times, updates/s,
  speedups; see repro.experiments.benchtrack).  The object engine is
  skipped above ``object_max_scale`` (default 10), because it is the
  very cost the fast path removes.
* ``pytest benchmarks/bench_nondet_fast.py -m perfsmoke`` — tier-2
  smoke floor: the fast path must hold ≥5× over the object engine at
  scale 10 (the JSON artifact targets ≥10×; the floor is deliberately
  looser so CI noise does not flake it), slice-path repair must hold
  ≥1.5× over all-dense repair on grid SSSP, and a one-sided kernel must
  run in ≤0.9× the wall of its declared-two-sided twin.

Both paths benchmark *identical work*: the engines are bit-for-bit
equivalent (see tests/test_nondet_vectorized.py), so a speedup here is
pure execution-strategy gain, not a semantics change.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.algorithms import BFS, SSSP, PageRank, SpMV, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph import generators

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_nondet.json"

ALGORITHMS = {
    "wcc": WeaklyConnectedComponents,
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "sssp": lambda: SSSP(source=0),
    "bfs": lambda: BFS(source=0),
    "spmv": SpMV,
}

SCALES = (8, 10, 12)
CONFIG = dict(threads=8, seed=0, jitter=0.5)


def _timed(factory, graph, *, vectorized, direction="pull", **config):
    t0 = time.perf_counter()
    res = run(
        factory(),
        graph,
        mode="nondeterministic",
        config=EngineConfig(**{**CONFIG, **config}),
        vectorized="require" if vectorized else False,
        direction=direction,
    )
    elapsed = time.perf_counter() - t0
    updates = sum(s.num_active for s in res.iterations)
    return {
        "seconds": elapsed,
        "iterations": res.num_iterations,
        "updates": updates,
        "updates_per_s": updates / elapsed if elapsed > 0 else float("inf"),
        "converged": res.converged,
    }


def measure(scale: int, *, object_engine: bool = True) -> dict:
    graph = generators.rmat(scale, 8.0, seed=3)
    row: dict = {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "algorithms": {},
    }
    for name, factory in ALGORITHMS.items():
        cell = {"vectorized": _timed(factory, graph, vectorized=True)}
        if object_engine:
            cell["object"] = _timed(factory, graph, vectorized=False)
            cell["speedup"] = (
                cell["object"]["seconds"] / cell["vectorized"]["seconds"]
            )
        row["algorithms"][name] = cell
    return row


def main(object_max_scale: int = 10) -> dict:
    """Append one ``nondet`` trajectory entry to BENCH_nondet.json.

    Delegates to :mod:`repro.experiments.benchtrack` so the standalone
    script and ``repro bench --suite nondet`` produce identical entries
    (append-only trajectory; a pre-trajectory snapshot is adopted as
    entry 0).
    """
    from repro.experiments.benchtrack import run_bench

    written = run_bench(
        ("nondet",),
        progress=lambda m: print(f"{m} ...", flush=True),
        scales=SCALES,
        object_max_scale=object_max_scale,
    )
    payload = written["nondet"]
    print(f"wrote {OUTPUT} ({len(payload['entries'])} entries)")
    results = payload["entries"][-1]["results"]
    for scale, row in results["scales"].items():
        for name, cell in row["algorithms"].items():
            spd = cell.get("speedup")
            spd_txt = f"{spd:8.1f}x" if spd is not None else "       -"
            print(
                f"  scale {scale} {name:9s} vec {cell['vectorized']['seconds']:7.3f}s"
                f"  obj {cell.get('object', {}).get('seconds', float('nan')):8.3f}s"
                f"  {spd_txt}"
            )
    return payload


@pytest.mark.perfsmoke
def test_vectorized_speedup_floor_scale10():
    """Tier-2 floor: ≥5× over the object engine at rmat scale 10."""
    row = measure(10)
    for name, cell in row["algorithms"].items():
        assert cell["vectorized"]["converged"]
        assert cell["speedup"] >= 5.0, (
            f"{name}: vectorized fast path only "
            f"{cell['speedup']:.1f}x over the object engine"
        )


@pytest.mark.perfsmoke
def test_direction_auto_floor_scale12_bfs():
    """Tier-2 floor for the direction-optimizing hybrid: ``auto`` must
    stay within 10% of the better of pull-only and push-only on scale-12
    BFS, measured in the same process back-to-back so host load cancels.
    The heuristic is allowed to be imperfect; it is not allowed to make
    the run materially slower than either fixed direction.
    """
    graph = generators.rmat(12, 8.0, seed=3)
    cells = {
        d: _timed(ALGORITHMS["bfs"], graph, vectorized=True, direction=d)
        for d in ("pull", "push", "auto")
    }
    assert all(c["converged"] for c in cells.values())
    best = min(cells["pull"]["seconds"], cells["push"]["seconds"])
    assert cells["auto"]["seconds"] <= best / 0.9, (
        f"auto {cells['auto']['seconds']:.3f}s fell below 0.9x of the best "
        f"fixed direction ({best:.3f}s; pull {cells['pull']['seconds']:.3f}s, "
        f"push {cells['push']['seconds']:.3f}s)"
    )


@pytest.mark.perfsmoke
def test_sparse_repair_floor_grid100_sssp():
    """Tier-2 floor for dirty-proportional repair: pull-direction SSSP
    on a 100x100 grid (long repair chains over thin dirty sets) must run
    at >= 1.5x the throughput of the same run with every repair pass
    forced dense (``direction_alpha=1e18`` fails the slice test for any
    dirty set).  Same process, back to back, identical work — the runs
    are bit-identical (tests/test_sparse_repair.py) — so host load
    cancels; no absolute seconds.
    """
    graph = generators.grid_graph(100, 100)
    _timed(ALGORITHMS["sssp"], graph, vectorized=True)  # warm caches
    dense = _timed(ALGORITHMS["sssp"], graph, vectorized=True,
                   direction_alpha=1e18)
    sliced = _timed(ALGORITHMS["sssp"], graph, vectorized=True)
    assert dense["converged"] and sliced["converged"]
    assert sliced["updates"] == dense["updates"]
    ratio = sliced["updates_per_s"] / dense["updates_per_s"]
    assert ratio >= 1.5, (
        f"slice-path repair only {ratio:.2f}x the all-dense throughput "
        f"({sliced['seconds']:.3f}s vs {dense['seconds']:.3f}s): are "
        f"repair passes taking the slice path (extra['repair_slice_passes'])?"
    )


@pytest.mark.perfsmoke
def test_scale12_pagerank_throughput_floor():
    """The headline capability: scale-12 PageRank stays in the same
    throughput regime as scale 10.

    Deliberately *relative*: both measurements come from the same
    process seconds apart, so a loaded or slow CI host scales both
    sides equally.  An absolute wall-clock ceiling would flake under
    load without catching real regressions.  A genuine asymptotic
    regression (e.g. an accidental O(V·E) step) collapses scale-12
    updates/s by far more than the 4x slack.
    """
    cell10 = _timed(
        ALGORITHMS["pagerank"], generators.rmat(10, 8.0, seed=3),
        vectorized=True)
    cell12 = _timed(
        ALGORITHMS["pagerank"], generators.rmat(12, 8.0, seed=3),
        vectorized=True)
    assert cell10["converged"] and cell12["converged"]
    assert cell12["updates_per_s"] >= cell10["updates_per_s"] / 4.0, (
        f"scale-12 throughput {cell12['updates_per_s']:.0f} updates/s fell "
        f"more than 4x below scale-10 ({cell10['updates_per_s']:.0f})"
    )


@pytest.mark.perfsmoke
def test_one_sided_floor_scale13_pagerank():
    """Tier-2 floor for ``NondetKernel.writes_dst``: rmat-13 PageRank
    must run in <= 0.9x the wall of its declared-two-sided twin — the
    same kernel with ``wd`` / ``wvd`` allocated, its ``wd[...] = False``
    stores restored and every layer's destination-write half run
    (tests/test_one_sided.py shows the two are byte-equal).  Same
    process, alternating, best of 3 each, so host load cancels; the
    line timings behind the declaration predict ~0.75-0.8.
    """
    from tests.test_one_sided import TWO_SIDED

    graph = generators.rmat(13, 8.0, seed=3)
    best = {"real": float("inf"), "twin": float("inf")}
    for _ in range(3):
        for label, factory in (("twin", TWO_SIDED["pagerank"]),
                               ("real", ALGORITHMS["pagerank"])):
            cell = _timed(factory, graph, vectorized=True)
            assert cell["converged"]
            best[label] = min(best[label], cell["seconds"])
    ratio = best["real"] / best["twin"]
    assert ratio <= 0.9, (
        f"one-sided PageRank took {ratio:.2f}x its two-sided twin "
        f"({best['real']:.3f}s vs {best['twin']:.3f}s): is some layer "
        f"still running the destination-write half?"
    )


if __name__ == "__main__":
    main()
