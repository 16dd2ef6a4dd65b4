"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1`` / ``figure3`` / ``table2`` / ``table3`` / ``ablations``
    Regenerate the paper's evaluation artifacts at a chosen scale.
``eligibility [ALGORITHM ...]``
    Print the Theorem 1/2 (and push-mode) verdicts for the built-in
    algorithm zoo or a named subset.
``run ALGORITHM``
    Execute one algorithm on a stand-in dataset under a chosen executor
    and print the run summary (and optionally the conflict audit).
``speed ALGORITHM``
    Convergence-speed report (iterations vs threads/delay vs the DE and
    BSP baselines).
``trace {summarize,diff,explain,lint,stitch,merge} TRACE [TRACE]``
    Query recorded traces: condense one, align two, explain the first
    divergent race of a pair, validate structure/event orders, join
    a killed run's trace with its resumed continuation, or interleave
    per-worker trace segments with their master trace.
``top TRACE``
    Live monitor: tail a (possibly still-growing) trace and render the
    per-iteration phase breakdown, frontier size, conflicts, worker
    skew, and peak RSS; refreshes until the run ends.  ``--once``
    prints a single snapshot.
``report --phases TRACE``
    Render the phase breakdown of a finished trace as a table
    (``report`` without ``--phases`` regenerates the evaluation).
``serve --data-dir DIR``
    Run the always-on graph service: journaled job lifecycle, standing
    named graphs, supervised concurrent jobs, crash recovery with
    bit-identical resume.  SIGTERM drains to the next barrier
    checkpoint; ``kill -9`` loses nothing the journal recorded.
``client [--url URL] {submit,status,watch,result,cancel,jobs,graphs}``
    Talk to a running service over HTTP.

Examples
--------
::

    python -m repro table1 --scale 10
    python -m repro eligibility WCC PageRank AntiParity
    python -m repro run WCC --dataset web-google-mini --mode nondeterministic \
        --threads 8 --seed 3 --audit
    python -m repro run PageRank --record a.jsonl --run-seed 0
    python -m repro run PageRank --record b.jsonl --run-seed 1
    python -m repro trace explain a.jsonl b.jsonl
    python -m repro run PageRank --faults crash@3 --checkpoint pr.ckpt
    python -m repro run PageRank --resume pr.ckpt
    python -m repro figure3 --explain --scale 9
    python -m repro speed BFS --dataset cage15-mini --scale 9
    python -m repro run WCC --backend process --trace t.jsonl --trace-workers
    python -m repro trace merge t.jsonl -o merged.jsonl
    python -m repro report --phases merged.jsonl
    python -m repro top t.jsonl --once
    python -m repro serve --data-dir svc --port 0
    python -m repro client --url http://127.0.0.1:8750 graphs \
        --register web --spec '{"dataset":"web-google-mini","scale":12}'
    python -m repro client submit WCC --graph web --wait
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .algorithms import (
    BFS,
    SSSP,
    AntiParity,
    ConflictColoring,
    EdgeIncrementCounter,
    KCoreDecomposition,
    MaxLabelPropagation,
    PageRank,
    SpMV,
    WeaklyConnectedComponents,
)
from .engine import EngineConfig, run
from .engine.capabilities import FALLBACK_MODES, MODES, Refused, lookup
from .experiments import (
    format_table,
    run_delay_sweep,
    run_dispatch_study,
    run_figure3,
    run_table1,
    run_table2,
    run_table3,
    run_torn_study,
)
from .graph import load_dataset
from .graph.datasets import dataset_names
from .theory import audit_run, check_program, measure_convergence_speed

__all__ = ["main", "ALGORITHMS"]

#: Algorithm name -> zero-argument factory.
ALGORITHMS: dict[str, Callable] = {
    "PageRank": lambda: PageRank(epsilon=1e-3),
    "WCC": WeaklyConnectedComponents,
    "SSSP": lambda: SSSP(source=0),
    "BFS": lambda: BFS(source=0),
    "SpMV": lambda: SpMV(),
    "MaxLabel": MaxLabelPropagation,
    "EdgeIncrementCounter": lambda: EdgeIncrementCounter(target=3),
    "AntiParity": AntiParity,
    "ConflictColoring": ConflictColoring,  # Theorem-2 oscillator (matchings)
    "KCore": KCoreDecomposition,  # requires a symmetric graph (cage15-mini is)
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Is Your Graph Algorithm Eligible for "
        "Nondeterministic Execution?' (ICPP 2015)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scale(p):
        p.add_argument("--scale", type=int, default=9,
                       help="log2 of the stand-in graph size (default 9)")
        p.add_argument("--seed", type=int, default=7, help="dataset seed")

    p = sub.add_parser("table1", help="Table I: graphs used in the experiments")
    add_scale(p)

    p = sub.add_parser("figure3", help="Fig. 3: computing times DE vs NE")
    add_scale(p)
    p.add_argument("--threads", type=int, nargs="+", default=[4, 8, 16])
    p.add_argument("--explain", action="store_true",
                   help="attribute the NE panels' run-to-run ranking variance "
                        "to recorded races (two seeded runs per panel)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="with --explain: keep the per-panel provenance traces")

    p = sub.add_parser("table2", help="Table II: difference degrees, same config")
    add_scale(p)
    p.add_argument("--runs", type=int, default=5)

    p = sub.add_parser("table3", help="Table III: difference degrees, cross config")
    add_scale(p)
    p.add_argument("--runs", type=int, default=5)

    p = sub.add_parser("ablations", help="A1-A3 ablation studies")
    add_scale(p)

    p = sub.add_parser("eligibility", help="Theorem 1/2 verdicts")
    p.add_argument("algorithms", nargs="*", metavar="ALGORITHM",
                   help=f"subset of {', '.join(ALGORITHMS)} (default: all)")

    p = sub.add_parser("run", help="execute one algorithm")
    p.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p.add_argument("--dataset", default="web-google-mini", choices=dataset_names())
    add_scale(p)
    p.add_argument("--mode", default="nondeterministic", choices=MODES,
                   help="execution model; which flags compose with which "
                        "mode is README's 'What runs with what' table")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--backend", default=None, choices=["process"],
                   help="'process' executes the vectorized model across "
                        "--threads OS worker processes over shared memory "
                        "(bit-identical to the single-process fast path)")
    p.add_argument("--direction", default="pull",
                   choices=["pull", "push", "auto"],
                   help="per-iteration execution direction of the array "
                        "paths — 'pull' (dense whole-graph masks, the "
                        "default), 'push' (sparse frontier-driven scatter), "
                        "or 'auto' (Beamer-style hybrid); all three are "
                        "bit-identical for push-eligible algorithms")
    p.add_argument("--out-of-core", default=None, metavar="DIR",
                   help="preprocess the graph into a PSW shard store under "
                        "DIR (reused if already built) and execute "
                        "interval-by-interval in bounded RAM — bit-identical "
                        "to the in-memory fast path")
    p.add_argument("--num-intervals", type=int, default=8, metavar="K",
                   help="with --out-of-core: vertex intervals / shards "
                        "(default 8)")
    p.add_argument("--delay", type=float, default=2.0)
    p.add_argument("--run-seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=100_000)
    p.add_argument("--audit", action="store_true",
                   help="cross-check conflicts against declared traits")
    p.add_argument("--trace-workers", action="store_true",
                   help="with --trace and a process backend: stream each "
                        "OS worker's trace segment into PATH.workers/ "
                        "(merge with `repro trace merge`, watch with "
                        "`repro top`)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="stream a JSONL telemetry trace of the run to PATH")
    p.add_argument("--telemetry", action="store_true",
                   help="print the per-iteration telemetry table after the run")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="stream a JSONL race-provenance trace (flight recorder) "
                        "to PATH")
    p.add_argument("--record-policy", default="conflicts",
                   choices=["conflicts", "all", "reservoir"],
                   help="recorder sampling policy (default: conflicts)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="fault-injection plan, e.g. 'crash@3;torn@5:weight' "
                        "(kinds: crash, stall, torn, lost, delay)")
    p.add_argument("--watchdog", action="store_true",
                   help="arm the convergence watchdog (stall + Theorem-2 "
                        "oscillation detection with graceful degradation)")
    p.add_argument("--deadline-s", type=float, default=None, metavar="S",
                   help="wall-clock budget; a breach triggers the "
                        "degradation policy")
    p.add_argument("--fallback", default=None, choices=FALLBACK_MODES,
                   help="deterministic engine the watchdog falls back to "
                        "(default chromatic)")
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write a barrier checkpoint to PATH (atomically, "
                        "last one wins)")
    p.add_argument("--checkpoint-every", type=int, default=1, metavar="N",
                   help="checkpoint every N iterations (default 1)")
    p.add_argument("--resume", default=None, metavar="PATH",
                   help="resume from a checkpoint written by --checkpoint; "
                        "continues bit-identically to the uninterrupted run")
    p.add_argument("--worker-timeout-s", type=float, default=60.0, metavar="S",
                   help="--backend process and shard stores: how long an "
                        "iteration barrier waits for the workers before "
                        "WorkerTimeout (default 60; 0 = wait forever)")
    p.add_argument("--delta-threshold", type=float, default=None, metavar="T",
                   help="delta mode: residual magnitude below which a vertex "
                        "is left unscheduled (default: the kernel's)")
    p.add_argument("--delta-scheduling", default="frontier",
                   choices=["frontier", "priority"],
                   help="delta mode: dispatch every above-threshold vertex "
                        "('frontier') or only the largest residuals "
                        "('priority', Maiter-style)")
    p.add_argument("--mutate", action="store_true",
                   help="delta mode: after convergence, stream seeded edge "
                        "insert/delete batches through the engine and repair "
                        "the standing result incrementally")
    p.add_argument("--mutate-batches", type=int, default=3, metavar="K",
                   help="with --mutate: number of mutation batches (default 3)")
    p.add_argument("--mutate-frac", type=float, default=0.001, metavar="F",
                   help="with --mutate: fraction of edges touched per batch "
                        "(default 0.001)")
    p.add_argument("--mutate-seed", type=int, default=7,
                   help="with --mutate: seed of the mutation draw (part of "
                        "the data, like SSSP's weight seed)")

    p = sub.add_parser(
        "bench",
        help="run the canonical benchmark suites and append to the "
             "BENCH_*.json perf trajectories")
    p.add_argument("--suite", default="all",
                   choices=["nondet", "parallel", "incremental", "all"],
                   help="which suite to run (default: all)")
    p.add_argument("--scales", type=int, nargs="+", default=None,
                   metavar="N", help="rmat scales to measure")
    p.add_argument("--workers", type=int, nargs="+", default=None,
                   metavar="P",
                   help="worker counts for the parallel suite")
    p.add_argument("--direction", default=None,
                   choices=["push", "auto"],
                   help="nondet suite: additionally time the vectorized "
                        "engine in this direction for push-eligible "
                        "algorithms and record the hybrid speedup")
    p.add_argument("--out-of-core", action="store_true",
                   help="parallel suite: run the process backend against a "
                        "PSW shard store (bounded-RAM interval-sliced "
                        "execution) instead of the in-memory graph")
    p.add_argument("--num-intervals", type=int, default=8, metavar="K",
                   help="with --out-of-core: vertex intervals / shards "
                        "(default 8)")
    p.add_argument("--out-dir", default=None, metavar="DIR",
                   help="directory of the BENCH_*.json files "
                        "(default: the repo root)")

    p = sub.add_parser("report", help="regenerate the full evaluation as markdown")
    add_scale(p)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", default=None, help="write to file instead of stdout")
    p.add_argument("--phases", default=None, metavar="TRACE",
                   help="instead of the evaluation: render the phase "
                        "breakdown of a recorded trace (worker segments "
                        "in TRACE.workers/ are merged in automatically)")

    p = sub.add_parser(
        "top",
        help="live phase monitor over a (possibly still-growing) trace")
    p.add_argument("trace", help="master JSONL trace path (e.g. the "
                                 "--trace target of a running repro run)")
    p.add_argument("--workers", default=None, metavar="DIR",
                   help="worker segment directory "
                        "(default: TRACE.workers/ when it exists)")
    p.add_argument("--once", action="store_true",
                   help="print a single snapshot and exit")
    p.add_argument("--refresh", type=float, default=1.0, metavar="S",
                   help="refresh interval in seconds (default 1.0)")
    p.add_argument("--last", type=int, default=12, metavar="N",
                   help="show only the trailing N iterations (default 12)")

    p = sub.add_parser("speed", help="convergence-speed report")
    p.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p.add_argument("--dataset", default="web-google-mini", choices=dataset_names())
    add_scale(p)
    p.add_argument("--threads", type=int, nargs="+", default=[2, 4, 8])
    p.add_argument("--delays", type=float, nargs="+", default=[1.0, 4.0])

    p = sub.add_parser("trace", help="query recorded JSONL traces")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    t = tsub.add_parser("summarize", help="condense one trace to headline numbers")
    t.add_argument("trace")
    t = tsub.add_parser("diff", help="first divergent provenance event of a pair")
    t.add_argument("trace_a")
    t.add_argument("trace_b")
    t = tsub.add_parser("explain",
                        help="explain a pair's divergence: first race, forward "
                             "taint, difference-degree verdict")
    t.add_argument("trace_a")
    t.add_argument("trace_b")
    t = tsub.add_parser("lint", help="validate trace structure and event orders")
    t.add_argument("trace")
    t = tsub.add_parser("stitch",
                        help="join a killed run's trace with its resumed "
                             "continuation, trimming the partial iteration "
                             "the resume replays")
    t.add_argument("trace_killed")
    t.add_argument("trace_resumed")
    t.add_argument("-o", "--out", required=True, metavar="PATH",
                   help="write the stitched JSONL trace to PATH")
    t = tsub.add_parser("merge",
                        help="interleave per-worker trace segments with "
                             "the master trace on (iteration, barrier "
                             "epoch) into one coherent JSONL stream")
    t.add_argument("trace", help="master JSONL trace")
    t.add_argument("--workers", default=None, metavar="DIR",
                   help="worker segment directory "
                        "(default: TRACE.workers/)")
    t.add_argument("-o", "--out", required=True, metavar="PATH",
                   help="write the merged JSONL trace to PATH")

    p = sub.add_parser(
        "serve",
        help="run the always-on graph service (journaled, crash-safe)")
    p.add_argument("--data-dir", required=True, metavar="DIR",
                   help="journal, graph registry, and job scratch root")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="TCP port (0 binds an ephemeral port and prints it)")
    p.add_argument("--max-concurrent", type=int, default=2,
                   help="jobs running at once (default 2)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission control: max queued+running jobs")
    p.add_argument("--retain-age-s", type=float, default=None, metavar="S",
                   help="retention: at startup, sweep terminal jobs whose "
                        "artifacts are older than S seconds")
    p.add_argument("--retain-count", type=int, default=None, metavar="N",
                   help="retention: at startup, keep only the N newest "
                        "terminal jobs")

    p = sub.add_parser("client", help="talk to a running repro service")
    p.add_argument("--url", default="http://127.0.0.1:8750",
                   help="service base URL")
    csub = p.add_subparsers(dest="client_command", required=True)
    c = csub.add_parser("submit", help="submit a job and print its id")
    c.add_argument("algorithm", help="algorithm name (see 'repro run')")
    c.add_argument("--graph", required=True,
                   help="registered graph name, or dataset name with --scale")
    c.add_argument("--scale", type=int, default=None,
                   help="treat --graph as a generator dataset at this scale")
    c.add_argument("--seed", type=int, default=7, help="dataset seed")
    c.add_argument("--mode", default="nondeterministic", choices=MODES)
    c.add_argument("--threads", type=int, default=None)
    c.add_argument("--run-seed", type=int, default=None,
                   help="engine seed (config.seed)")
    c.add_argument("--checkpoint-every", type=int, default=1)
    c.add_argument("--record", default=None,
                   choices=["conflicts", "all", "reservoir"],
                   help="recorder provenance policy")
    c.add_argument("--deadline-s", type=float, default=None)
    c.add_argument("--throttle-s", type=float, default=0.0,
                   help="pacing sleep per iteration barrier (demos/tests)")
    c.add_argument("--mutate", action="store_true",
                   help="with --mode delta: stream seeded mutation batches "
                        "(the service generates them against its graph)")
    c.add_argument("--mutate-batches", type=int, default=3)
    c.add_argument("--mutate-frac", type=float, default=0.001)
    c.add_argument("--mutate-seed", type=int, default=7)
    c.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    c = csub.add_parser("status", help="print one job's status as JSON")
    c.add_argument("job_id")
    c = csub.add_parser("watch", help="follow a job until it is terminal")
    c.add_argument("job_id")
    c.add_argument("--timeout", type=float, default=300.0)
    c = csub.add_parser("result", help="print a finished job's result")
    c.add_argument("job_id")
    c = csub.add_parser("cancel", help="request cancellation of a job")
    c.add_argument("job_id")
    c = csub.add_parser("jobs", help="list all jobs")
    c = csub.add_parser(
        "gc",
        help="sweep terminal jobs: forget them and delete their artifacts")
    c.add_argument("--max-age-s", type=float, default=None, metavar="S",
                   help="sweep terminal jobs older than S seconds")
    c.add_argument("--max-count", type=int, default=None, metavar="N",
                   help="keep only the N newest terminal jobs")
    c = csub.add_parser("graphs", help="list or register named graphs")
    c.add_argument("--register", default=None, metavar="NAME",
                   help="register NAME with the spec in --spec")
    c.add_argument("--spec", default=None, metavar="JSON",
                   help='graph spec, e.g. \'{"dataset":"web-google-mini",'
                        '"scale":12}\'')

    return parser


def _cmd_trace(args) -> int:
    from .analysis.explain import explain_trace_files, first_divergence
    from .obs import lint_trace, read_trace, stitch_traces, summarize_trace

    if args.trace_command == "summarize":
        summary = summarize_trace(read_trace(args.trace))
        width = max(len(k) for k in summary)
        for key, value in summary.items():
            print(f"{key:<{width}}  {value}")
        return 0
    if args.trace_command == "lint":
        issues = lint_trace(read_trace(args.trace))
        for issue in issues:
            print(issue)
        errors = sum(1 for i in issues if i.severity == "error")
        print(f"{errors} error(s), {len(issues) - errors} warning(s)")
        return 1 if errors else 0
    if args.trace_command == "diff":
        events = [
            [r for r in read_trace(p) if r.get("type") == "provenance"]
            for p in (args.trace_a, args.trace_b)
        ]
        div = first_divergence(*events)
        if div is None:
            print("traces agree on every aligned provenance event")
            return 0
        print(f"agreed on {div.agreed_events} aligned events, then:")
        print(div.describe())
        return 3
    if args.trace_command == "stitch":
        import json

        stitched, info = stitch_traces(
            read_trace(args.trace_killed), read_trace(args.trace_resumed)
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            for rec in stitched:
                json.dump(rec, fh, separators=(",", ":"))
                fh.write("\n")
        at = (f" at the resume boundary (iteration {info['boundary']})"
              if info["boundary"] is not None else "")
        print(f"stitched {len(stitched)} records to {args.out} "
              f"(dropped {info['dropped']} replayed/torn records{at})")
        return 0
    if args.trace_command == "merge":
        from .obs import merge_worker_traces

        merged = merge_worker_traces(args.trace, args.workers,
                                     out_path=args.out)
        spans = sum(1 for r in merged if r.get("type") == "worker_span")
        torn = sum(1 for r in merged
                   if r.get("type") == "event"
                   and r.get("name") == "worker_segment_truncated")
        note = f", {torn} truncated segment(s)" if torn else ""
        print(f"merged {len(merged)} records ({spans} worker spans{note}) "
              f"to {args.out}")
        return 0
    # explain
    report = explain_trace_files(args.trace_a, args.trace_b)
    print(report.render())
    return 0 if report.first is None else 3


def _cmd_client(args) -> int:
    import json as _json
    import time

    from .service.client import ServiceClient, ServiceError
    from .service.jobs import JobState

    client = ServiceClient(args.url)

    def show(payload) -> None:
        print(_json.dumps(payload, indent=2, sort_keys=True))

    try:
        if args.client_command == "submit":
            graph: str | dict = args.graph
            if args.scale is not None:
                graph = {"dataset": args.graph, "scale": args.scale,
                         "seed": args.seed}
            config = {}
            if args.threads is not None:
                config["threads"] = args.threads
            if args.run_seed is not None:
                config["seed"] = args.run_seed
            spec = {"algorithm": args.algorithm, "graph": graph,
                    "config": config, "mode": args.mode,
                    "checkpoint_every": args.checkpoint_every,
                    "record": args.record, "deadline_s": args.deadline_s,
                    "throttle_s": args.throttle_s}
            if args.mutate:
                spec["mutations"] = {"num_batches": args.mutate_batches,
                                     "frac": args.mutate_frac,
                                     "seed": args.mutate_seed}
            job_id = client.submit(spec)
            print(job_id)
            if args.wait:
                status = client.wait(job_id)
                show(status)
                return 0 if status["state"] == "done" else 4
        elif args.client_command == "status":
            show(client.status(args.job_id))
        elif args.client_command == "watch":
            # Not client.wait(): a long-poll answers early only for a
            # terminal state, and watch shows the barriers on the way —
            # so it asks for short holds itself.
            deadline = time.monotonic() + args.timeout
            last = None
            while True:
                status = client.status(args.job_id, wait=0.5)
                line = (f"{status['job_id']} {status['state']} "
                        f"iter={status['iteration']} "
                        f"ckpt={status['checkpoint_iteration']}")
                if line != last:
                    print(line, flush=True)
                    last = line
                if status["state"] in JobState.TERMINAL:
                    return 0 if status["state"] == "done" else 4
                if time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"job {args.job_id} still {status['state']} after "
                        f"{args.timeout:.0f}s")
        elif args.client_command == "result":
            show(client.result(args.job_id))
        elif args.client_command == "cancel":
            show(client.cancel(args.job_id))
        elif args.client_command == "jobs":
            show(client.jobs())
        elif args.client_command == "gc":
            show(client.gc(max_age_s=args.max_age_s,
                           max_count=args.max_count))
        elif args.client_command == "graphs":
            if args.register is not None:
                if not args.spec:
                    print("--register needs --spec JSON", file=sys.stderr)
                    return 2
                client.register_graph(args.register,
                                      _json.loads(args.spec))
            show(client.graphs())
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    return 0


def _load_trace_with_workers(trace: str, worker_dir: str | None):
    """Read ``trace``, merging worker segments when a directory exists."""
    import os

    from .obs import merge_worker_traces, read_trace

    if worker_dir is None:
        worker_dir = trace + ".workers"
    if os.path.isdir(worker_dir):
        return merge_worker_traces(trace, worker_dir)
    return read_trace(trace)


def _cmd_top(args) -> int:
    """Live phase monitor: re-renders the trailing phase table.

    Re-reads the trace at every refresh — ``read_trace``'s torn-final-
    line tolerance makes reading mid-write safe, so the monitor can tail
    a trace another process is still appending to.  Exits when the trace
    gains a terminal ``run_end``/``truncated`` record (or on Ctrl-C).
    """
    import time as _time

    from .obs import phase_report, phase_table

    try:
        while True:
            try:
                records = _load_trace_with_workers(args.trace, args.workers)
            except FileNotFoundError:
                records = []
            done = any(r.get("type") in ("run_end", "truncated")
                       for r in records)
            report = phase_report(records)
            rows = report["iterations"]
            meta = report["meta"]
            status = "finished" if done else ("waiting for trace"
                                              if not records else "live")
            head = [f"repro top — {args.trace} [{status}]"]
            if meta:
                head.append(
                    "  ".join(f"{k}={meta[k]}" for k in
                              ("mode", "threads", "seed", "backend")
                              if k in meta))
            if rows:
                last = rows[-1]
                rss = last.get("peak_rss_bytes")
                wall = report["totals"]["wall_time_s"]
                rate = (report["totals"]["conflicts"] / wall
                        if wall > 0 else 0.0)
                head.append(
                    f"iteration {last['iteration']}  "
                    f"frontier {last['frontier_size']}  "
                    f"conflicts/s {rate:,.0f}"
                    + (f"  peak_rss {rss / 2**20:,.1f} MiB"
                       if rss else ""))
            body = "\n".join(head) + "\n\n" + phase_table(report,
                                                          last=args.last)
            if args.once:
                print(body)
                return 0
            # Stdlib-only live view: clear screen, home cursor, redraw.
            sys.stdout.write("\x1b[2J\x1b[H" + body + "\n")
            sys.stdout.flush()
            if done:
                return 0
            _time.sleep(args.refresh)
    except KeyboardInterrupt:
        print()
        return 130


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _main(args)
    except Refused as exc:
        print(f"error: {exc.reason}", file=sys.stderr)
        return 2


def _main(args) -> int:
    if args.command == "table1":
        print(run_table1(scale=args.scale, seed=args.seed).render())
    elif args.command == "figure3":
        if args.explain:
            from .experiments import run_figure3_explain

            print(run_figure3_explain(scale=args.scale, seed=args.seed,
                                      threads=max(args.threads),
                                      trace_dir=args.trace_dir))
        else:
            result = run_figure3(scale=args.scale, seed=args.seed,
                                 threads_list=tuple(args.threads))
            print(result.render())
    elif args.command == "table2":
        print(run_table2(scale=args.scale, seed=args.seed, runs=args.runs).render())
    elif args.command == "table3":
        print(run_table3(scale=args.scale, seed=args.seed, runs=args.runs).render())
    elif args.command == "ablations":
        for driver in (run_torn_study, run_delay_sweep, run_dispatch_study):
            print(driver(scale=args.scale, seed=args.seed).render())
            print()
    elif args.command == "eligibility":
        names = args.algorithms or list(ALGORITHMS)
        unknown = [n for n in names if n not in ALGORITHMS]
        if unknown:
            print(f"unknown algorithm(s): {', '.join(unknown)}; "
                  f"choose from {', '.join(ALGORITHMS)}", file=sys.stderr)
            return 1
        for name in names:
            print(check_program(ALGORITHMS[name]()).render())
            print("-" * 72)
    elif args.command == "run":
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        mutations = None
        if args.mutate:
            from .graph.mutations import generate_batches

            mutations = generate_batches(graph, args.mutate_batches,
                                         args.mutate_frac, args.mutate_seed)
        if args.out_of_core is not None:
            import pathlib

            from .storage import ShardStore

            lookup(args.mode, residency="ShardStore")  # before building one
            store_path = (pathlib.Path(args.out_of_core)
                          / f"{args.dataset}-s{args.scale}-k{args.num_intervals}.shards")
            if store_path.exists():
                graph = ShardStore.open(store_path)
            else:
                store_path.parent.mkdir(parents=True, exist_ok=True)
                print(f"building shard store {store_path} "
                      f"(K={args.num_intervals})", file=sys.stderr)
                graph = ShardStore.build(graph, store_path, args.num_intervals)
        config = EngineConfig(
            threads=args.threads,
            delay=args.delay,
            seed=args.run_seed,
            max_iterations=args.max_iterations,
            worker_timeout_s=args.worker_timeout_s or None,
        )
        if args.resume and all(
            getattr(args, name) == default
            for name, default in (
                ("threads", 4), ("delay", 2.0), ("run_seed", 0),
                ("max_iterations", 100_000), ("worker_timeout_s", 60.0),
            )
        ):
            # No engine knob was changed from its default: adopt the
            # checkpointed config so the resumed run matches the original.
            config = None
        robust_kwargs = {}
        if args.faults is not None:
            robust_kwargs["faults"] = args.faults
        if args.watchdog:
            from .robust import ConvergenceWatchdog

            robust_kwargs["watchdog"] = ConvergenceWatchdog(
                deadline_s=args.deadline_s)
        elif args.deadline_s is not None:
            robust_kwargs["deadline_s"] = args.deadline_s
        if args.fallback is not None:
            from .robust import DegradationPolicy

            robust_kwargs["policy"] = DegradationPolicy(
                fallback_mode=args.fallback)
        if args.checkpoint is not None:
            robust_kwargs["checkpoint"] = args.checkpoint
            robust_kwargs["checkpoint_every"] = args.checkpoint_every
        if args.resume is not None:
            robust_kwargs["resume_from"] = args.resume
        if args.trace_workers and not args.trace:
            print("--trace-workers requires --trace PATH", file=sys.stderr)
            return 1
        sink = None
        if args.trace or args.telemetry:
            from .obs import Telemetry

            sink = Telemetry(
                trace_path=args.trace,
                worker_dir=(args.trace + ".workers"
                            if args.trace_workers else None))
        recorder = None
        if args.record:
            from .obs import Recorder

            recorder = Recorder(policy=args.record_policy, trace_path=args.record)
        result = run(ALGORITHMS[args.algorithm](), graph, mode=args.mode,
                     config=config, backend=args.backend,
                     direction=args.direction,
                     telemetry=sink, record=recorder, mutations=mutations,
                     delta_threshold=args.delta_threshold,
                     delta_scheduling=args.delta_scheduling,
                     **robust_kwargs)
        print(format_table([{"dataset": args.dataset, **result.summary()}],
                           title=f"{args.algorithm} on {args.dataset}"))
        if args.direction != "pull":
            trace = result.extra.get("direction_trace", [])
            glyphs = "".join("P" if t == "push" else "-" for t in trace)
            print(f"direction={args.direction}: "
                  f"{result.extra.get('push_iterations', 0)}/{len(trace)} "
                  f"push iterations [{glyphs}] (P=push, -=pull)",
                  file=sys.stderr)
        if args.out_of_core is not None:
            io = result.extra.get("io", {})
            print(f"out-of-core: K={result.extra.get('num_intervals')}, "
                  f"read {io.get('bytes_read', 0):,} B, "
                  f"wrote {io.get('bytes_written', 0):,} B",
                  file=sys.stderr)
            graph.nondet_runner().close()
        if args.mode == "delta":
            d = result.extra.get("delta", {})
            print(f"delta: op={d.get('op')} threshold={d.get('threshold')} "
                  f"scheduling={d.get('scheduling')} "
                  f"accumulation_identity={d.get('accumulation_identity')}",
                  file=sys.stderr)
            for m in result.extra.get("mutations", ()):
                print(f"mutation batch {m['batch']}: +{m['inserted']} "
                      f"-{m['deleted']} edges, repair={m['repair_mode']} "
                      f"({m['repaired_vertices']} vertices, "
                      f"{m['repair_seconds']:.4f}s) at iteration "
                      f"{m['at_iteration']}", file=sys.stderr)
        for event in result.extra.get("degradations", ()):
            detail = ", ".join(f"{k}={v}" for k, v in event.items())
            print(f"degradation: {detail}", file=sys.stderr)
        for fired in result.extra.get("faults_fired", ()):
            detail = ", ".join(f"{k}={v}" for k, v in fired.items())
            print(f"fault injected: {detail}", file=sys.stderr)
        if args.telemetry:
            print()
            print(sink.summary())
        if args.trace:
            print(f"trace written to {args.trace}", file=sys.stderr)
        if args.trace_workers:
            print(f"worker segments in {args.trace}.workers/ — merge with "
                  f"`repro trace merge {args.trace} -o merged.jsonl`",
                  file=sys.stderr)
        if args.record:
            print(
                f"provenance trace written to {args.record} "
                f"({len(recorder.events)} events)",
                file=sys.stderr,
            )
        if args.audit:
            issues = audit_run(result)
            print("audit:", "CLEAN" if not issues else "; ".join(issues))
            if issues:
                return 1
        if not result.converged:
            return 2
    elif args.command == "bench":
        from .experiments.benchtrack import SUITES, run_bench

        suites = list(SUITES) if args.suite == "all" else [args.suite]
        kwargs = {}
        if args.scales is not None:
            kwargs["scales"] = tuple(args.scales)
        if args.workers is not None:
            kwargs["workers"] = tuple(args.workers)
        if args.out_of_core:
            kwargs["out_of_core"] = True
            kwargs["num_intervals"] = args.num_intervals
        if args.direction is not None:
            kwargs["direction"] = args.direction
        try:
            written = run_bench(
                suites, out_dir=args.out_dir,
                progress=lambda m: print(f"... {m}", file=sys.stderr),
                **kwargs)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        for suite, payload in written.items():
            filename = SUITES[suite][0]
            print(f"{filename}: {len(payload['entries'])} trajectory "
                  f"entr{'y' if len(payload['entries']) == 1 else 'ies'}")
            results = payload["entries"][-1]["results"]
            for scale, row in results["scales"].items():
                for name, cell in row["algorithms"].items():
                    if "workers" in cell:  # parallel suite
                        for p, stat in cell["workers"].items():
                            print(f"  scale {scale} {name:9s} P={p}: "
                                  f"vec {stat['vectorized']['seconds']:7.3f}s  "
                                  f"proc {stat['process']['seconds']:7.3f}s  "
                                  f"speedup {stat['speedup']:.2f}x")
                    elif "batches" in cell:  # incremental suite
                        modes = ",".join(sorted({b["repair_mode"]
                                                 for b in cell["batches"]}))
                        print(f"  scale {scale} {name:9s} "
                              f"repair {cell['repair_mean_seconds']:7.4f}s  "
                              f"recompute {cell['recompute_mean_seconds']:7.4f}s  "
                              f"speedup {cell['speedup']:.2f}x  [{modes}]")
                    else:  # nondet suite
                        spd = cell.get("speedup")
                        spd_txt = f"{spd:8.1f}x" if spd is not None else "   -"
                        hybrid = ""
                        dspd = cell.get("direction_speedup")
                        if dspd is not None:
                            d = results.get("direction", "auto")
                            hcell = cell[f"vectorized_{d}"]
                            hybrid = (f"  {d} {hcell['seconds']:7.3f}s "
                                      f"({hcell.get('push_iterations', 0)} "
                                      f"push it., {dspd:.2f}x)")
                        print(f"  scale {scale} {name:9s} "
                              f"vec {cell['vectorized']['seconds']:7.3f}s"
                              f" {spd_txt}{hybrid}")
    elif args.command == "report" and args.phases:
        from .obs import phase_report, phase_table

        records = _load_trace_with_workers(args.phases, None)
        print(phase_table(phase_report(records)))
    elif args.command == "report":
        from .experiments import generate_report

        text = generate_report(scale=args.scale, seed=args.seed, runs=args.runs,
                               progress=lambda m: print(f"... {m}", file=sys.stderr))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
    elif args.command == "speed":
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        report = measure_convergence_speed(
            ALGORITHMS[args.algorithm],
            graph,
            threads_list=tuple(args.threads),
            delays=tuple(args.delays),
        )
        print(format_table(report.rows(),
                           title=f"Convergence speed: {report.algorithm} on {args.dataset}"))
        print(f"chain bound (NE <= SYNC + 1, RW-only): {report.check_chain_bound()}")
        print(f"recovery ratio (max NE / SYNC): {report.recovery_ratio():.2f}")
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "top":
        return _cmd_top(args)
    elif args.command == "serve":
        from .service.http import serve

        return serve(args.data_dir, host=args.host, port=args.port,
                     max_concurrent=args.max_concurrent,
                     max_queue=args.max_queue,
                     retain_age_s=args.retain_age_s,
                     retain_count=args.retain_count)
    elif args.command == "client":
        return _cmd_client(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
