"""Scaling trajectory of the shared-memory process backend.

Two entry points:

* ``python benchmarks/bench_parallel.py`` — runs PageRank at rmat
  scales 10/12 under ``vectorized="require"`` and ``backend="process"``
  for 1/2/4/8 workers and appends a timestamped entry to
  ``BENCH_parallel.json`` at the repo root (see
  repro.experiments.benchtrack for the trajectory format).  Every entry
  embeds a host fingerprint: on a single-core container the curve
  documents backend *overhead* (fork + barrier + shared-memory traffic),
  and only on a multi-core host does it become a speedup curve.
* ``pytest benchmarks/bench_parallel.py -m perfsmoke`` — tier-2 floors:
  the process backend's and the out-of-core runner's overhead over the
  single-process vectorized engine must stay bounded by a *ratio*
  measured in the same run, so a loaded CI host cannot flake it.

``config.threads`` is the worker count and is part of the racy
schedule, so each cell compares the two execution strategies under the
same model configuration (their outputs are bit-identical — see
tests/test_nondet_parallel.py).
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.algorithms import PageRank
from repro.engine import EngineConfig, run
from repro.graph import generators

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_parallel.json"


def _timed(graph, *, threads, backend=None):
    config = EngineConfig(threads=threads, seed=0, jitter=0.5)
    t0 = time.perf_counter()
    res = run(PageRank(epsilon=1e-3), graph, mode="nondeterministic",
              config=config, backend=backend,
              vectorized="require" if backend is None else False)
    elapsed = time.perf_counter() - t0
    assert res.converged
    return elapsed


def main() -> dict:
    from repro.experiments.benchtrack import run_bench

    written = run_bench(
        ("parallel",),
        progress=lambda m: print(f"{m} ...", flush=True),
    )
    payload = written["parallel"]
    print(f"wrote {OUTPUT} ({len(payload['entries'])} entries)")
    results = payload["entries"][-1]["results"]
    for scale, row in results["scales"].items():
        for name, cell in row["algorithms"].items():
            for p, stat in cell["workers"].items():
                print(f"  scale {scale} {name:9s} P={p}: "
                      f"vec {stat['vectorized']['seconds']:7.3f}s  "
                      f"proc {stat['process']['seconds']:7.3f}s  "
                      f"speedup {stat['speedup']:.2f}x")
            curve = "  ".join(f"P={p}: {s:.2f}" for p, s in
                              cell["scaling"].items())
            print(f"  scale {scale} {name:9s} scaling vs "
                  f"P={list(cell['scaling'])[0]}: {curve}")
    return payload


@pytest.mark.perfsmoke
def test_process_backend_overhead_bounded():
    """Tier-2 floor: process-backend overhead stays a bounded *ratio*.

    rmat-12 PageRank, 2 workers.  The baseline (single-process
    vectorized, same threads=2 schedule) is measured seconds earlier in
    the same process, so host load cancels out of the ratio — no
    absolute wall-clock term that would flake on a slow runner.  On a
    single-core host the backend pays fork + two barriers per fix-point
    round plus one (C) per iteration + shared-memory traffic with zero
    parallel win; measured ~2.7x there,
    so 8x headroom flags only a real regression (e.g. an accidental
    per-iteration segment rebuild), not scheduler noise.
    """
    graph = generators.rmat(12, 8.0, seed=3)
    t_vec = _timed(graph, threads=2)
    t_proc = _timed(graph, threads=2, backend="process")
    assert t_proc <= t_vec * 8.0, (
        f"process backend (P=2) took {t_proc:.3f}s vs {t_vec:.3f}s "
        f"single-process — overhead ratio {t_proc / t_vec:.1f}x exceeds "
        f"the 8x floor"
    )


@pytest.mark.perfsmoke
def test_out_of_core_solo_overhead_bounded(tmp_path):
    """Tier-2 floor: solo out-of-core PageRank ≤ 3.0x the in-memory run.

    rmat-12, threads=2, a 4-interval store; both walls measured in this
    process, so host load cancels out of the ratio.  Measured 1.45-1.63x
    (five runs, 2-vCPU host) with the kernels on mapped scratch views;
    2.64-2.85x when every interval load copied its slot ranges out of
    the scratch files with pread and wrote the owned ones back, and
    7.6-8.0x when it also re-sorted its edges into CSC order and every
    fix-point round rebuilt the Defs. 1-3 masks — the regressions the
    floor is there to catch.
    """
    from repro.storage import ShardStore

    graph = generators.rmat(12, 8.0, seed=3)
    store = ShardStore.build(graph, tmp_path / "g.shards", 4)
    try:
        t_vec = _timed(graph, threads=2)
        t_ooc = _timed(store, threads=2)
    finally:
        store.nondet_runner().close()
    assert t_ooc <= t_vec * 3.0, (
        f"out-of-core solo took {t_ooc:.3f}s vs {t_vec:.3f}s in memory — "
        f"ratio {t_ooc / t_vec:.1f}x exceeds the 3.0x floor"
    )


@pytest.mark.perfsmoke
def test_process_backend_reuses_pool_across_iterations():
    """The shared-memory segment and workers are created once per run.

    A per-iteration pool rebuild would put fork() on the iteration hot
    path; bound the cost of extra iterations relative to a short run in
    the same process.  PageRank at eps 1e-2 vs 1e-3 differ only in
    iteration count, so the ratio isolates per-iteration cost from
    startup cost.
    """
    graph = generators.rmat(10, 8.0, seed=3)

    def timed(eps):
        config = EngineConfig(threads=2, seed=0, jitter=0.5)
        t0 = time.perf_counter()
        res = run(PageRank(epsilon=eps), graph, mode="nondeterministic",
                  config=config, backend="process")
        elapsed = time.perf_counter() - t0
        assert res.converged
        return elapsed, res.num_iterations

    t_short, n_short = timed(1e-2)
    t_long, n_long = timed(1e-3)
    assert n_long > n_short
    # Startup (fork + segment create) amortises: the long run may cost
    # proportionally more iterations, but not more than ~2x the
    # per-iteration rate of the short run plus its startup.
    per_iter_short = t_short / n_short
    assert t_long <= t_short + per_iter_short * (n_long - n_short) * 2.0 + \
        per_iter_short * n_short, (
        f"long run ({n_long} iters, {t_long:.3f}s) cost far more per "
        f"iteration than the short run ({n_short} iters, {t_short:.3f}s): "
        f"is the pool being rebuilt per iteration?"
    )


@pytest.mark.perfsmoke
def test_warm_pool_reuse_across_runs_is_cheaper():
    """Tier-2 floor for cross-run pool reuse.

    A second ``run()`` on the same (graph, program, P) engine must hit
    the warm pool (``pool_reused=True``) and skip fork + segment
    creation: its wall time stays within 1.5x of the cold run's
    post-startup cost, i.e. strictly below the cold run itself plus a
    safety margin measured in the same process.
    """
    from repro.engine import ParallelEngine

    graph = generators.rmat(10, 8.0, seed=3)
    engine = ParallelEngine()
    try:
        config = EngineConfig(threads=2, seed=0, jitter=0.5)

        def timed():
            t0 = time.perf_counter()
            res = engine.run(PageRank(epsilon=1e-3), graph, config)
            return time.perf_counter() - t0, res

        t_cold, cold = timed()
        t_warm, warm = timed()
        assert cold.extra["pool_reused"] is False
        assert warm.extra["pool_reused"] is True
        assert t_warm <= t_cold * 1.5, (
            f"warm run took {t_warm:.3f}s vs {t_cold:.3f}s cold — pool "
            f"reuse should at minimum not cost more than a cold start"
        )
    finally:
        engine.close()


if __name__ == "__main__":
    main()
