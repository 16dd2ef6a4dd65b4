"""Benchmark suites with an append-only perf trajectory.

``BENCH_*.json`` files at the repo root record how fast the engines are
*over time*: every invocation of :func:`run_bench` (or ``repro bench``)
appends one timestamped entry per suite instead of overwriting the
file, so perf history accumulates across PRs and regressions show up as
a bend in the trajectory, not as silently replaced numbers.

Trajectory format (``bench-trajectory/v2``)::

    {"schema": "bench-trajectory/v2",
     "entries": [
        {"timestamp": "...", "suite": "parallel",
         "host": {"cpus": 1, ...}, "results": {...}},
        ...]}

Each timed cell carries a ``"phases"`` breakdown (seconds per
:data:`~repro.obs.metrics.PHASES` phase, summed over the run's
iterations).  :func:`append_trajectory` appends only to a file whose
header says ``bench-trajectory/v2`` (or to no file yet): one file never
holds entries of two shapes.

Two canonical suites:

* ``nondet`` — object engine vs the single-process vectorized fast
  path (the PR-1 speedup, kept honest over time);
* ``parallel`` — single-process vectorized vs the shared-memory process
  backend at 1/2/4/8 workers.  ``config.threads`` *is* the worker
  count, and changing it changes the racy schedule itself — so every
  cell compares the two execution strategies **under the same model
  configuration** (same bits out, see tests/test_nondet_parallel.py);
  cross-worker rows are different schedules and are reported as a
  scaling curve, not a like-for-like speedup.

Every entry embeds a host fingerprint (CPU count, platform): a scaling
curve measured on a single-core container documents backend overhead,
not hardware parallelism, and readers must be able to tell.
"""

from __future__ import annotations

import datetime
import itertools
import json
import os
import pathlib
import platform
import statistics
import tempfile
import time

from ..algorithms import BFS, SSSP, PageRank, SpMV, WeaklyConnectedComponents
from ..engine import EngineConfig, run
from ..graph import generators
from ..obs.metrics import peak_rss_bytes  # noqa: F401 - re-exported

__all__ = [
    "SCHEMA",
    "SUITES",
    "append_trajectory",
    "host_fingerprint",
    "peak_rss_bytes",
    "run_incremental_suite",
    "run_nondet_suite",
    "run_parallel_suite",
    "run_bench",
]

SCHEMA = "bench-trajectory/v2"

#: Repo root (the BENCH_*.json home) — three levels above this module.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]

ALGORITHMS = {
    "wcc": WeaklyConnectedComponents,
    "pagerank": lambda: PageRank(epsilon=1e-3),
    "sssp": lambda: SSSP(source=0),
    "bfs": lambda: BFS(source=0),
    "spmv": SpMV,
}

GRAPH_SPEC = "rmat(scale, 8.0, seed=3)"


def host_fingerprint() -> dict:
    # ``cpus`` is what the hardware has; ``effective_cpus`` is what this
    # process may actually run on (cgroup quotas, taskset, CI caps) —
    # the honest number for reading a scaling curve.  Platforms without
    # sched_getaffinity fall back to the hardware count.
    try:
        effective = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        effective = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "effective_cpus": effective,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def append_trajectory(path, entry: dict) -> dict:
    """Append ``entry`` to the trajectory at ``path`` (atomic).

    Returns the full payload written.  A missing file starts a fresh
    trajectory; a file that is not a :data:`SCHEMA` trajectory is
    refused, untouched.
    """
    path = pathlib.Path(path)
    payload = {"schema": SCHEMA, "entries": []}
    if path.exists():
        payload = json.loads(path.read_text())
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA:
            raise ValueError(
                f"{path} is not a {SCHEMA} trajectory; refusing to append "
                "(move it aside to start a fresh one)")
    entry = dict(entry)
    entry.setdefault(
        "timestamp",
        datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
    )
    entry.setdefault("host", host_fingerprint())
    payload["entries"].append(entry)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    os.replace(tmp, path)
    return payload


def _timed(factory, graph, config: EngineConfig, **run_kwargs) -> dict:
    from ..obs import Telemetry
    from ..storage.shards import ShardStore

    residency = "out-of-core" if isinstance(graph, ShardStore) else "in-memory"
    # A buffered (no trace file) sink turns on the engines' phase
    # clocks; the v2 cell sums the per-iteration phase dicts.  Within
    # one ``repro bench`` invocation ``peak_rss_bytes`` is "the peak so
    # far", not the cell's own footprint — the isolated bounded-RAM
    # measurement lives in the RLIMIT test and the EXPERIMENTS.md run.
    sink = Telemetry()
    t0 = time.perf_counter()
    res = run(factory(), graph, mode="nondeterministic", config=config,
              telemetry=sink, **run_kwargs)
    elapsed = time.perf_counter() - t0
    updates = sum(s.num_active for s in res.iterations)
    phases: dict[str, float] = {}
    for span in sink.spans:
        for name, seconds in (span.extra.get("phases") or {}).items():
            phases[name] = phases.get(name, 0.0) + float(seconds)
    out = {
        "seconds": elapsed,
        "iterations": res.num_iterations,
        "updates": updates,
        "updates_per_s": updates / elapsed if elapsed > 0 else float("inf"),
        "converged": res.converged,
        "residency": residency,
        "peak_rss_bytes": peak_rss_bytes(),
        "phases": phases,
    }
    # fixpoint_passes / repair_slice_passes split phases["repair_pass"]
    # into passes x per-pass cost and the share that ran on edge slices.
    for key in ("io", "pool_reused", "push_iterations", "fixpoint_passes",
                "repair_slice_passes"):
        if key in res.extra:
            out[key] = res.extra[key]
    return out


def run_nondet_suite(scales=(8, 10, 12), *, object_max_scale: int = 10,
                     direction=None, progress=None) -> dict:
    """Object engine vs vectorized fast path, per algorithm and scale.

    With ``direction="push"`` or ``"auto"``, push-eligible algorithms
    (MIN-combine kernels: wcc, sssp, bfs) additionally get a
    ``vectorized_<direction>`` cell timing the same run under the
    direction-optimizing fast path, plus ``direction_speedup`` —
    pull-time / hybrid-time, > 1 meaning the hybrid won.  Outputs are
    bit-identical across directions, so the cells measure strategy
    cost only.
    """
    from ..engine.nondet_core import push_fallback_reasons

    config = EngineConfig(threads=8, seed=0, jitter=0.5)
    results: dict = {"graph": GRAPH_SPEC,
                     "config": {"threads": 8, "seed": 0, "jitter": 0.5},
                     "scales": {}}
    if direction is not None:
        results["direction"] = direction
    for scale in scales:
        if progress:
            progress(f"nondet scale {scale}")
        graph = generators.rmat(scale, 8.0, seed=3)
        row = {"vertices": graph.num_vertices, "edges": graph.num_edges,
               "algorithms": {}}
        for name, factory in ALGORITHMS.items():
            cell = {"vectorized": _timed(factory, graph, config,
                                         vectorized="require")}
            if direction is not None and not push_fallback_reasons(factory()):
                hybrid = _timed(factory, graph, config,
                                vectorized="require", direction=direction)
                cell[f"vectorized_{direction}"] = hybrid
                cell["direction_speedup"] = (cell["vectorized"]["seconds"]
                                             / hybrid["seconds"])
            if scale <= object_max_scale:
                cell["object"] = _timed(factory, graph, config)
                cell["speedup"] = (cell["object"]["seconds"]
                                   / cell["vectorized"]["seconds"])
            row["algorithms"][name] = cell
        results["scales"][str(scale)] = row
    return results


def run_parallel_suite(scales=(10, 12), workers=(1, 2, 4, 8),
                       algorithms=("pagerank",), *, out_of_core=False,
                       num_intervals=8, store_dir=None,
                       progress=None) -> dict:
    """Vectorized fast path vs the process backend across worker counts.

    Per (scale, algorithm, P): wall time of ``vectorized=True`` and of
    ``backend="process"`` under the *same* ``threads=P`` configuration
    (bit-identical outputs), their ratio (``speedup`` > 1 means the
    backend won), and a ``scaling`` curve of backend throughput
    normalised to its own P=1 run.

    ``out_of_core=True`` points the process backend at a PSW
    :class:`~repro.storage.shards.ShardStore` built per scale (the
    interval-sliced runner), so the comparison becomes in-memory
    vectorized vs bounded-RAM sharded execution; the in-memory run
    stays the baseline.  Stores land in ``store_dir`` (a temp
    directory by default) and are removed afterwards unless
    ``store_dir`` is given.
    """
    workers = tuple(workers)
    results: dict = {"graph": GRAPH_SPEC,
                     "config": {"seed": 0, "jitter": 0.5},
                     "workers": list(workers),
                     "residency": "out-of-core" if out_of_core else "in-memory",
                     "scales": {}}
    if out_of_core:
        results["num_intervals"] = num_intervals
    for scale in scales:
        graph = generators.rmat(scale, 8.0, seed=3)
        row = {"vertices": graph.num_vertices, "edges": graph.num_edges,
               "algorithms": {}}
        store = tmp_dir = None
        target = graph
        if out_of_core:
            from ..storage.shards import ShardStore

            if store_dir is None:
                tmp_dir = tempfile.TemporaryDirectory(prefix="repro-bench-shards-")
                base = pathlib.Path(tmp_dir.name)
            else:
                base = pathlib.Path(store_dir)
                base.mkdir(parents=True, exist_ok=True)
            store = ShardStore.build(graph, base / f"scale{scale}.shards",
                                     num_intervals)
            target = store
        try:
            for name in algorithms:
                factory = ALGORITHMS[name]
                cell: dict = {"workers": {}}
                for p in workers:
                    if progress:
                        progress(f"parallel scale {scale} {name} P={p}")
                    config = EngineConfig(threads=p, seed=0, jitter=0.5)
                    vec = _timed(factory, graph, config, vectorized="require")
                    proc = _timed(factory, target, config, backend="process")
                    cell["workers"][str(p)] = {
                        "vectorized": vec,
                        "process": proc,
                        "speedup": vec["seconds"] / proc["seconds"],
                    }
                base_cell = cell["workers"][str(workers[0])]["process"]
                cell["scaling"] = {
                    str(p): (cell["workers"][str(p)]["process"]["updates_per_s"]
                             / base_cell["updates_per_s"])
                    for p in workers
                }
                row["algorithms"][name] = cell
        finally:
            if store is not None:
                store.nondet_runner().close()
            if tmp_dir is not None:
                tmp_dir.cleanup()
        results["scales"][str(scale)] = row
    return results


def run_incremental_suite(scales=(12, 14, 16),
                          algorithms=("pagerank", "wcc", "sssp"),
                          num_batches=3, batch_frac=0.001, fixed_edges=30,
                          large_frac=0.02, mutation_seed=7,
                          progress=None) -> dict:
    """Repair vs recompute: the dynamic-graph payoff number.

    Per (scale, algorithm): converge a standing delta result, stream
    ``num_batches`` seeded mutation batches (each touching
    ``batch_frac`` of the edges) through it, and compare each batch's
    *repair* cost — the splice and repair plus the reconvergence
    iterations it triggers — against two recomputes of the same mutated
    graph: the vectorized engine (``speedup``) and the delta engine from
    scratch (``delta_speedup``); > 1 means repairing won.
    ``fixed_batch`` streams batches of exactly ``fixed_edges`` edges
    instead, the same at every scale, so its cost shows whether a repair
    follows the batch or the graph; ``large_batch`` streams batches of
    ``large_frac`` of the edges, which the splice copies by masks.

    SSSP cells use endpoint-stable weights
    (:func:`repro.graph.mutations.stable_weights`): index-seeded weights
    would silently reshuffle under mutation and the comparison would be
    between different problems.
    """
    from ..graph.mutations import apply_batch, generate_batches, stable_weights
    from ..obs import Telemetry

    factories = {**ALGORITHMS, "sssp": lambda: SSSP(
        source=0, weight_fn=lambda g: stable_weights(g, seed=5))}
    config = EngineConfig(threads=8, seed=0)

    def stream(factory, graph, batches):
        """Run, wall, standing (iterations, seconds), and per batch (log
        entry, repair + reconvergence seconds, reconvergence iterations)."""
        sink = Telemetry()
        t0 = time.perf_counter()
        res = run(factory(), graph, mode="delta", config=config,
                  telemetry=sink, mutations=batches)
        total = time.perf_counter() - t0
        walls = {s_.iteration: s_.wall_time_s for s_ in sink.spans}
        ends = [m["at_iteration"] for m in res.extra["mutations"]]
        ends.append(res.num_iterations)
        per_batch = [(m, m["repair_seconds"] + sum(
            walls.get(it, 0.0) for it in range(lo, hi)), hi - lo)
            for m, lo, hi in zip(res.extra["mutations"], ends, ends[1:])]
        return (res, total, ends[0],
                sum(walls.get(it, 0.0) for it in range(ends[0])), per_batch)

    results: dict = {"graph": GRAPH_SPEC, "config": {"threads": 8, "seed": 0},
                     "num_batches": int(num_batches),
                     "batch_frac": float(batch_frac),
                     "fixed_edges": int(fixed_edges),
                     "large_frac": float(large_frac),
                     "mutation_seed": int(mutation_seed), "scales": {}}
    for scale in scales:
        graph = generators.rmat(scale, 8.0, seed=3)
        batches = generate_batches(graph, num_batches, batch_frac,
                                   mutation_seed)
        columns = {"fixed_batch": fixed_edges / graph.num_edges,
                   "large_batch": large_frac}
        snapshots = list(itertools.accumulate(
            batches, lambda g, b: apply_batch(g, b)[0], initial=graph))[1:]
        row = {"vertices": graph.num_vertices, "edges": graph.num_edges,
               "batch_edges": batches[0].size, "algorithms": {}}
        for name in algorithms:
            factory = factories[name]
            if progress:
                progress(f"incremental scale {scale} {name}")
            res, total, iters, standing, per_batch = stream(factory, graph,
                                                            batches)
            cells = []
            for (m, cost, reconverge), snap in zip(per_batch, snapshots):
                rec = _timed(factory, snap, config, vectorized="require")
                t0 = time.perf_counter()
                run(factory(), snap, mode="delta", config=config)
                scratch = time.perf_counter() - t0
                cells.append({
                    **{k: m[k] for k in ("inserted", "deleted", "repair_mode",
                                         "repaired_vertices")},
                    "reconverge_iterations": reconverge,
                    "repair_seconds": cost, "speedup": rec["seconds"] / cost,
                    "recompute_seconds": rec["seconds"],
                    "recompute_iterations": rec["iterations"],
                    "delta_scratch_seconds": scratch,
                    "delta_speedup": scratch / cost})
            mean = {f"{k}_mean_seconds": statistics.mean(
                c[f"{k}_seconds"] for c in cells)
                for k in ("repair", "recompute", "delta_scratch")}
            row["algorithms"][name] = {
                "standing": {"seconds": standing, "iterations": iters,
                             "total_seconds": total, "converged": res.converged,
                             "accumulation_identity":
                                 res.extra["delta"]["accumulation_identity"]},
                "batches": cells, **mean,
                "speedup": (mean["recompute_mean_seconds"]
                            / mean["repair_mean_seconds"]),
                "delta_speedup": (mean["delta_scratch_mean_seconds"]
                                  / mean["repair_mean_seconds"]),
            }
            for key, frac in columns.items():
                logs, costs, _ = zip(*stream(factory, graph, generate_batches(
                    graph, num_batches, frac, mutation_seed))[4])
                row["algorithms"][name][key] = {
                    "seconds": list(costs),
                    "median_seconds": statistics.median(costs),
                    **{k: [m[k] for m in logs] for k in (
                        "repair_seconds", "repaired_vertices",
                        "repair_mode")}}
        results["scales"][str(scale)] = row
    return results


SUITES = {
    "nondet": ("BENCH_nondet.json", run_nondet_suite),
    "parallel": ("BENCH_parallel.json", run_parallel_suite),
    "incremental": ("BENCH_incremental.json", run_incremental_suite),
}


def run_bench(suites=("nondet", "parallel"), *, out_dir=None,
              progress=None, **suite_kwargs) -> dict[str, dict]:
    """Run the named suites and append one trajectory entry each.

    Returns ``{suite: payload-written}``.  ``suite_kwargs`` (e.g.
    ``scales=``, ``workers=``) are forwarded to every suite that
    accepts them.
    """
    out_dir = pathlib.Path(out_dir) if out_dir is not None else REPO_ROOT
    out_dir.mkdir(parents=True, exist_ok=True)
    written: dict[str, dict] = {}
    for suite in suites:
        try:
            filename, runner = SUITES[suite]
        except KeyError:
            raise ValueError(
                f"unknown bench suite {suite!r}; choose from {sorted(SUITES)}"
            ) from None
        import inspect

        accepted = {
            k: v for k, v in suite_kwargs.items()
            if k in inspect.signature(runner).parameters
        }
        results = runner(progress=progress, **accepted)
        entry = {"suite": suite, "results": results}
        written[suite] = append_trajectory(out_dir / filename, entry)
    return written
