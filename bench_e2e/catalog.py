"""Metric names, units and the statistics every report uses.

``BENCHMARK.json`` (repo root) is the source of truth for the workloads,
the end-to-end metrics with their bounds, and the per-layer metrics the
driver tracks.  ``PER_LAYER_UNITS`` below is the full per-layer list a
traced run reports; the tracked ones are a subset of it (see README:
only metrics that are measured on every workload, or whose "layer not
used" value is an honest zero, are tracked).
"""

from __future__ import annotations

import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The phase names of ``repro.obs.metrics.PHASES``, fixed here because
#: they are metric names of this benchmark (and the parent process does
#: not import the program): a phase the program renames reads null.
PHASES = ("plan_build", "gather", "push_scatter", "repair_pass",
          "lemma2_commit", "barrier_wait", "shm_sync", "shard_io",
          "delta_commit", "delta_propagate", "mutate_repair")
ENGINE_JOBS = ("pagerank", "spmv", "wcc", "sssp", "bfs", "pagerank_shm",
               "pagerank_shards", "delta_pagerank", "delta_wcc", "delta_sssp")
LATENCY_PARTS = ("submit", "queue_wait", "engine", "result")

#: Counts a run reports that must repeat exactly for one seed: a change
#: in them is a semantic change, not a speed-up.  (On ``service_jobs``
#: they come from the in-process reference sample.)
EXACT_COUNTS = (
    "engine.iterations", "engine.updates", "engine.fixpoint_passes",
    "engine.plan_cache_hits", "engine.push_iterations",
    "engine.conflicts_rw", "engine.conflicts_ww", "engine.stale_reads",
    "engine.lost_writes", "delta.full_restarts", "storage.interval_loads",
    "storage.io_bytes_read", "storage.io_bytes_written",
    "storage.shard_bytes",
)


def _per_layer_units() -> dict[str, str]:
    units = {
        "graph.generate_s": "s", "graph.edges_per_s": "1/s",
        "graph.batch_generate_s": "s", "graph.apply_batch_s": "s",
        "engine.iteration_p50_ms": "ms", "engine.iteration_p95_ms": "ms",
        "engine.updates_per_s": "1/s", "engine.pool_reused": "count",
        "engine.phase.unaccounted_s": "s",
        "engine.phase_share.unaccounted": "ratio",
        "delta.standing_s": "s", "delta.repair_p50_s": "s",
        "engine.object_run_s.nondeterministic": "s",
        "engine.object_run_s.deterministic": "s",
        "experiments.figure3_s": "s", "experiments.table2_s": "s",
        "storage.shard_build_s": "s", "storage.io_s": "s",
        "storage.read_amplification": "ratio",
        "storage.checkpoint_save_s": "s", "storage.checkpoint_load_s": "s",
        "storage.checkpoint_bytes": "B",
        "robust.bare_run_s": "s", "robust.supervised_run_s": "s",
        "robust.supervised_overhead_ratio": "ratio",
        "service.start_s": "s", "service.submit_p50_s": "s",
        "service.wait_p50_s": "s", "service.result_p50_s": "s",
        "service.polls_per_job": "count", "service.engine_wall_p50_s": "s",
        "service.queue_wait_p50_s": "s", "service.overhead_ratio": "ratio",
        "service.journal_append_p50_s": "s", "service.journal_bytes": "B",
        "service.recover_s": "s", "job_latency_p95_s": "s",
        "obs.tracing_overhead_ratio": "ratio",
        "proc.cpu_user_s": "s", "proc.cpu_sys_s": "s",
        "proc.cpu_utilisation": "ratio", "host.calibration_s": "s",
    }
    for name in EXACT_COUNTS:
        units[name] = "B" if "bytes" in name else "count"
    for job in ENGINE_JOBS:
        units[f"engine.run_s.{job}"] = "s"
    for phase in PHASES:
        units[f"engine.phase.{phase}_s"] = "s"
        units[f"engine.phase_share.{phase}"] = "ratio"
    for part in LATENCY_PARTS:
        units[f"service.latency_share.{part}"] = "ratio"
    return units


PER_LAYER_UNITS = _per_layer_units()


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def summarise(samples: list[float]) -> dict:
    """Median, quartiles, count and the samples of one metric."""
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": list(samples)}
