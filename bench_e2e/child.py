"""Runs one workload in this interpreter and writes its result as JSON.

Started by ``run.py`` once per workload, so every workload gets a fresh
interpreter (imports, plan caches and worker pools of one never warm the
next) and its own ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_e2e import host  # noqa: E402  (needs the path set above)
from bench_e2e.catalog import percentile, summarise  # noqa: E402
from bench_e2e.spans import Tracer, self_time_by_name  # noqa: E402
from bench_e2e.workloads import (WORKLOADS, Context, Gate,  # noqa: E402
                                 shm_segments)

SETUPS = 3  #: set-ups per run; setup_s is their median


def execute(args) -> dict:
    traced = bool(args.trace)
    run_id = f"{args.workload}-s{args.seed}"
    tracer = Tracer(run_id, enabled=traced)
    ctx = Context(seed=args.seed, quick=args.quick, tracer=tracer,
                  scratch=args.scratch, out_dir=args.out_dir)
    gate = Gate(inject_failure=args.inject_failure)
    segments_before = shm_segments()
    layer: dict = {}

    with tracer.span("workload") as whole:
        setup_s = []
        for i in range(1 if args.quick else SETUPS):
            if i:
                with tracer.span("teardown"):
                    workload.teardown()
                    gc.collect()  # pools die with the graph they served
            workload = WORKLOADS[args.workload](ctx)
            with tracer.span("setup") as t:
                workload.setup()
            setup_s.append(t.duration)

        # The spin brackets the timed passes, not the cold set-up.
        with tracer.span("calibrate"):
            calibration = [host.calibration_s()]

        last: list = []

        def timed_pass(with_sinks: bool):
            # Only the last pass keeps its results and sinks, so memory
            # does not grow with the number of passes a run fits in.
            for record in last:
                record.result = record.sink = None
            with tracer.span("pass") as t:
                last[:] = workload.run_pass(with_sinks)
            return list(last), t.duration

        # A traced run spends its first pass without sinks: the wall of
        # that pass is the base of obs.tracing_overhead_ratio.
        deadline = time.perf_counter() + args.seconds
        reference = [timed_pass(False)] if traced else []
        timed = []
        while not timed or time.perf_counter() < deadline:
            timed.append(timed_pass(traced))
        passes = [records for records, _wall in timed]
        walls = [wall for _records, wall in timed]

        with tracer.span("calibrate"):
            calibration.append(host.calibration_s())
        with tracer.span("verify"):
            workload.verify([records for records, _wall in reference] + passes, gate)
        if traced:
            with tracer.span("probe"):
                layer.update(workload.probes())
            layer.update(workload.layer_metrics(passes))
        with tracer.span("teardown"):
            for problem in workload.teardown():
                gate.check(False, problem)
            gc.collect()
        segments = sorted(shm_segments() - segments_before)
        gate.check(not segments, f"shared memory left: {segments}")
        gate.check(not multiprocessing.active_children(),
                   "worker processes left running")
        files = os.listdir(ctx.scratch)
        gate.check(not files, f"temp files left: {files}")

    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # A failed job has no latency; the gate has counted it.
    latencies = [[r.wall_s for r in records if r.ok] for records in passes]
    jobs_per_s = [sum(r.ok for r in records) / wall
                  for records, wall in zip(passes, walls)]
    end_to_end = {
        "setup_s": summarise(setup_s),
        "solve_s": summarise(walls),
        "jobs_per_s": summarise(jobs_per_s),
        "peak_rss_mb": summarise(
            [max(own.ru_maxrss, children.ru_maxrss) / 1024.0]),
    }
    if all(latencies):
        # One sample per pass, so the quartiles show how far passes
        # disagree, not how far the job kinds of one pass differ.
        end_to_end["job_latency_p50_s"] = summarise(
            [statistics.median(of_pass) for of_pass in latencies])
    fingerprint = host.fingerprint()
    result = {
        "workload": args.workload, "seed": args.seed, "traced": traced,
        "quick": args.quick, "host": fingerprint,
        "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.failures, "passes": len(passes),
        "jobs_per_pass": len(passes[0]),
        "calibration_s": calibration,
        "noisy": abs(calibration[1] / calibration[0] - 1.0) > 0.10,
        "end_to_end": end_to_end,
    }
    if traced:
        cpu_user = own.ru_utime + children.ru_utime
        cpu_sys = own.ru_stime + children.ru_stime
        layer.update({
            "job_latency_p95_s": percentile(
                [wall for of_pass in latencies for wall in of_pass], 95)
            if any(latencies) else None,
            "obs.tracing_overhead_ratio":
                statistics.median(walls) / reference[0][1],
            "proc.cpu_user_s": cpu_user, "proc.cpu_sys_s": cpu_sys,
            "proc.cpu_utilisation": (cpu_user + cpu_sys) / (
                whole.duration * fingerprint["effective_cpus"]),
            "host.calibration_s": statistics.median(calibration),
        })
        spans_path = os.path.join(args.out_dir, f"{run_id}.spans.jsonl")
        tracer.write_jsonl(spans_path)
        result["per_layer"] = layer
        result["span_self_s"] = self_time_by_name(tracer.spans)
        result["spans_file"] = spans_path
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--inject-failure", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    result = execute(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
