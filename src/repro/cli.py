"""Command-line interface: ``python -m repro <command>``.

``python -m repro --help`` lists the commands (paper artifacts, ``run``,
trace queries, the live monitor, the service and its client); each
command's ``--help`` lists its flags.

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

from .algorithms import (BFS, SSSP, AntiParity, ConflictColoring,
                         EdgeIncrementCounter, KCoreDecomposition,
                         MaxLabelPropagation, PageRank, SpMV,
                         WeaklyConnectedComponents)
from .engine import EngineConfig, run
from .engine.capabilities import (DIRECTIONS, FALLBACK_MODES, MODES,
                                  SCHEDULINGS, Refused, lookup)
from .engine.spec import RunSpec
from .experiments import (format_table, run_delay_sweep, run_dispatch_study,
                          run_figure3, run_table1, run_table2, run_table3,
                          run_torn_study)
from .graph import load_dataset
from .graph.datasets import dataset_names
from .graph.mutations import BATCH_SPEC
from .obs.recorder import RECORD_POLICIES
from .robust import ConvergenceWatchdog, DegradationPolicy
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


#: EngineConfig field -> the flag that sets it
_CONFIG_FLAGS = {"threads": "--threads", "delay": "--delay",
                 "jitter": "--jitter", "seed": "--run-seed",
                 "max_iterations": "--max-iterations",
                 "worker_timeout_s": "--worker-timeout-s"}


def _switch_flags() -> argparse.ArgumentParser:
    """The switch flags ``run`` and ``client submit`` share.  Each one
    defaults to ``None`` (not given), so the defaults stay RunSpec's,
    EngineConfig's and JobSpec's; :func:`_switches` collects them."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--mode", choices=MODES,
                   help=f"execution model (default {RunSpec.mode}); README's "
                        "'What runs with what' says which flags compose")
    p.add_argument("--vectorized", nargs="?", const=True, metavar="require",
                   choices=(True, "require"),
                   help="take the NumPy array path when the program is "
                        "eligible, else the object engine; 'require' "
                        "refuses instead")
    p.add_argument("--backend", choices=["process"],
                   help="'process' runs the vectorized model across "
                        "--threads OS worker processes over shared memory")
    for key, flag in _CONFIG_FLAGS.items():
        default = getattr(EngineConfig, key)
        p.add_argument(flag, dest=f"config_{key}", type=type(default),
                       metavar=key.upper(),
                       help=f"EngineConfig.{key} (default {default})" + (
                           "; 0 waits forever" if key == "worker_timeout_s"
                           else ""))
    p.add_argument("--faults", metavar="SPEC",
                   help="fault-injection plan, e.g. 'crash@3;torn@5:weight' "
                        "(kinds: crash, stall, torn, lost, delay)")
    p.add_argument("--deadline-s", type=float, metavar="S",
                   help="wall-clock budget; a breach degrades the run")
    p.add_argument("--checkpoint-every", type=int, metavar="N",
                   help="checkpoint every N iterations "
                        f"(default {RunSpec.checkpoint_every})")
    p.add_argument("--max-restarts", type=int, metavar="N",
                   help="crash restarts before giving up "
                        f"(default {DegradationPolicy.max_restarts})")
    p.add_argument("--mutate", action="store_true",
                   help="delta mode: after convergence, repair the result "
                        "through seeded edge insert/delete batches")
    for key in BATCH_SPEC:
        p.add_argument(f"--mutate-{key.split('_')[-1]}", dest=f"mutate_{key}",
                       type=type(BATCH_SPEC[key]), metavar=key.upper(),
                       help=f"with --mutate: {key} of the seeded draw "
                            f"(default {BATCH_SPEC[key]})")
    return p


def _given(args, names, prefix: str = "") -> dict:
    """The flags among ``names`` (dests ``prefix + name``) that were given."""
    return {k: getattr(args, prefix + k) for k in names
            if getattr(args, prefix + k) is not None}


def _switches(args) -> dict:
    """The shared flags given, as a job spec's flat fields (the RunSpec
    wire subset, :func:`~repro.service.jobs.wire_run_spec`): what
    ``client submit`` sends and ``run`` runs."""
    from .service.jobs import WIRE_FIELDS

    wire = _given(args, (*WIRE_FIELDS, "max_restarts"))
    config = _given(args, _CONFIG_FLAGS, "config_")
    if config.get("worker_timeout_s") == 0:
        config["worker_timeout_s"] = None  # wait forever
    if config:
        wire["config"] = config
    if args.mutate:
        wire["mutations"] = {**BATCH_SPEC, **_given(args, BATCH_SPEC,
                                                    "mutate_")}
    return wire


def _job_spec(args) -> dict:
    """``client submit``'s job spec: the shared switches plus its own
    flags."""
    spec = {"algorithm": args.algorithm, "graph": args.graph,
            **_switches(args), **_given(args, ("record", "throttle_s"))}
    if args.scale is not None:
        spec["graph"] = {"dataset": args.graph, "scale": args.scale,
                         "seed": args.seed}
    return spec


def _run_spec(args, graph) -> RunSpec:
    """``repro run``'s spec: the shared switches plus its own flags."""
    from .obs import Recorder, Telemetry
    from .service.jobs import wire_run_spec

    live = _given(args, ("direction", "checkpoint", "resume_from",
                         "delta_threshold", "delta_scheduling"))
    policy = _given(args, ("fallback_mode", "max_restarts"))
    if policy:
        live["policy"] = DegradationPolicy(**policy)
    if args.watchdog:
        live["watchdog"] = ConvergenceWatchdog()
    if args.trace or args.telemetry:
        live["telemetry"] = Telemetry(trace_path=args.trace, worker_dir=(
            args.trace + ".workers" if args.trace_workers else None))
    if args.record:
        live["record"] = Recorder(policy=args.record_policy,
                                  trace_path=args.record)
    return wire_run_spec(_switches(args), graph, **live)


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
    p.add_argument("--trace-dir", metavar="DIR",
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

    switches = _switch_flags()
    p = sub.add_parser("run", parents=[switches],
                       help="execute one algorithm")
    p.add_argument("algorithm", choices=sorted(ALGORITHMS))
    p.add_argument("--dataset", default="web-google-mini", choices=dataset_names())
    add_scale(p)
    p.add_argument("--direction", choices=DIRECTIONS,
                   help="array-path direction per iteration (default pull; "
                        "bit-identical for push-eligible algorithms)")
    p.add_argument("--out-of-core", metavar="DIR",
                   help="build (or reuse) a PSW shard store under DIR and "
                        "run interval by interval in bounded RAM")
    p.add_argument("--num-intervals", type=int, default=8, metavar="K",
                   help="with --out-of-core: vertex intervals / shards "
                        "(default 8)")
    p.add_argument("--audit", action="store_true",
                   help="cross-check conflicts against declared traits")
    p.add_argument("--trace", metavar="PATH",
                   help="stream a JSONL telemetry trace of the run to PATH")
    p.add_argument("--trace-workers", action="store_true",
                   help="with --trace and a process backend: stream each "
                        "worker's trace segment into PATH.workers/")
    p.add_argument("--telemetry", action="store_true",
                   help="print the per-iteration telemetry table after the run")
    p.add_argument("--record", metavar="PATH",
                   help="stream a JSONL race-provenance trace (flight "
                        "recorder) to PATH")
    p.add_argument("--record-policy", default="conflicts", choices=RECORD_POLICIES,
                   help="recorder sampling policy (default: conflicts)")
    p.add_argument("--watchdog", action="store_true",
                   help="arm the convergence watchdog (stall + Theorem-2 "
                        "oscillation detection with graceful degradation)")
    p.add_argument("--fallback", dest="fallback_mode", choices=FALLBACK_MODES,
                   help="deterministic engine the watchdog falls back to "
                        f"(default {DegradationPolicy.fallback_mode})")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="write barrier checkpoints to PATH (last one wins)")
    p.add_argument("--resume", dest="resume_from", metavar="PATH",
                   help="resume from a --checkpoint file, bit-identically; "
                        "with no engine flag, in its config")
    p.add_argument("--delta-threshold", type=float, metavar="T",
                   help="delta mode: residual magnitude below which a vertex "
                        "is left unscheduled (default: the kernel's)")
    p.add_argument("--delta-scheduling", choices=SCHEDULINGS,
                   help="delta mode: every above-threshold vertex (default "
                        "frontier) or the largest residuals (priority)")

    p = sub.add_parser("bench", help="run the canonical benchmark suites and "
                                     "append to the BENCH_*.json trajectories")
    p.add_argument("--suite", default="all",
                   choices=["nondet", "parallel", "incremental", "all"],
                   help="which suite to run (default: all)")
    p.add_argument("--scales", type=int, nargs="+", metavar="N",
                   help="rmat scales to measure")
    p.add_argument("--workers", type=int, nargs="+", metavar="P",
                   help="worker counts for the parallel suite")
    p.add_argument("--direction", choices=["push", "auto"],
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
    p.add_argument("--out-dir", metavar="DIR",
                   help="directory of the BENCH_*.json files "
                        "(default: the repo root)")

    p = sub.add_parser("report", help="regenerate the full evaluation as markdown")
    add_scale(p)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out", help="write to file instead of stdout")
    p.add_argument("--phases", metavar="TRACE",
                   help="instead of the evaluation: render the phase "
                        "breakdown of a recorded trace (worker segments "
                        "in TRACE.workers/ are merged in automatically)")

    p = sub.add_parser("top", help="live phase monitor over a (possibly "
                                   "still-growing) trace")
    p.add_argument("trace", help="master JSONL trace path (e.g. the "
                                 "--trace target of a running repro run)")
    p.add_argument("--workers", metavar="DIR",
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
    for name, text in (("diff", "first divergent provenance event of a pair"),
                       ("explain", "explain a pair's divergence: first race, "
                                   "forward taint, difference-degree verdict")):
        t = tsub.add_parser(name, help=text)
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
    t.add_argument("--workers", metavar="DIR",
                   help="worker segment directory "
                        "(default: TRACE.workers/)")
    t.add_argument("-o", "--out", required=True, metavar="PATH",
                   help="write the merged JSONL trace to PATH")

    p = sub.add_parser("serve", help="run the always-on graph service "
                                     "(journaled, crash-safe)")
    p.add_argument("--data-dir", required=True, metavar="DIR",
                   help="journal, graph registry, and job scratch root")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="TCP port (0 binds an ephemeral port and prints it)")
    p.add_argument("--max-concurrent", type=int, default=2,
                   help="jobs running at once (default 2)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission control: max queued+running jobs")
    p.add_argument("--retain-age-s", type=float, metavar="S",
                   help="retention: at startup, sweep terminal jobs whose "
                        "artifacts are older than S seconds")
    p.add_argument("--retain-count", type=int, metavar="N",
                   help="retention: at startup, keep the N newest terminal jobs")

    p = sub.add_parser("client", help="talk to a running repro service")
    p.add_argument("--url", default="http://127.0.0.1:8750",
                   help="service base URL")
    csub = p.add_subparsers(dest="client_command", required=True)
    c = csub.add_parser("submit", parents=[switches],
                        help="submit a job and print its id")
    c.add_argument("algorithm", help="algorithm name (see 'repro run')")
    c.add_argument("--graph", required=True,
                   help="registered graph name, or dataset name with --scale")
    c.add_argument("--scale", type=int,
                   help="treat --graph as a generator dataset at this scale")
    c.add_argument("--seed", type=int, default=7, help="dataset seed")
    c.add_argument("--record", choices=RECORD_POLICIES,
                   help="recorder provenance policy")
    c.add_argument("--throttle-s", type=float,
                   help="pacing sleep per iteration barrier (demos/tests)")
    c.add_argument("--wait", action="store_true",
                   help="block until the job is terminal")
    for name, text in (("status", "print one job's status as JSON"),
                       ("watch", "follow a job until it is terminal"),
                       ("result", "print a finished job's result"),
                       ("cancel", "request cancellation of a job")):
        csub.add_parser(name, help=text).add_argument("job_id")
    csub.choices["watch"].add_argument("--timeout", type=float, default=300.0)
    c = csub.add_parser("jobs", help="list all jobs")
    c = csub.add_parser("gc", help="sweep terminal jobs: forget them and "
                                   "delete their artifacts")
    c.add_argument("--max-age-s", type=float, metavar="S",
                   help="sweep terminal jobs older than S seconds")
    c.add_argument("--max-count", type=int, metavar="N",
                   help="keep only the N newest terminal jobs")
    c = csub.add_parser("graphs", help="list or register named graphs")
    c.add_argument("--register", metavar="NAME",
                   help="register NAME with the spec in --spec")
    c.add_argument("--spec", metavar="JSON",
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
            job_id = client.submit(_job_spec(args))
            print(job_id)
            if args.wait:
                status = client.wait(job_id)
                show(status)
                return 0 if status["state"] == "done" else 4
        elif args.client_command in ("status", "result", "cancel"):
            show(getattr(client, args.client_command)(args.job_id))
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
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5 if isinstance(exc, TimeoutError) else 1
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
            print(run_figure3(scale=args.scale, seed=args.seed,
                              threads_list=tuple(args.threads)).render())
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
        if args.trace_workers and not args.trace:
            print("--trace-workers requires --trace PATH", file=sys.stderr)
            return 1
        graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
        spec = _run_spec(args, graph)  # mutations drawn on the in-RAM graph
        if args.out_of_core is not None:
            import pathlib

            from .storage import ShardStore

            lookup(spec.mode, residency="ShardStore")  # before building one
            store_path = (pathlib.Path(args.out_of_core)
                          / f"{args.dataset}-s{args.scale}-k{args.num_intervals}.shards")
            if store_path.exists():
                graph = ShardStore.open(store_path)
            else:
                store_path.parent.mkdir(parents=True, exist_ok=True)
                print(f"building shard store {store_path} "
                      f"(K={args.num_intervals})", file=sys.stderr)
                graph = ShardStore.build(graph, store_path, args.num_intervals)
        result = run(ALGORITHMS[args.algorithm](), graph, **vars(spec))
        print(format_table([{"dataset": args.dataset, **result.summary()}],
                           title=f"{args.algorithm} on {args.dataset}"))
        if spec.direction != "pull":
            trace = result.extra.get("direction_trace", [])
            glyphs = "".join("P" if t == "push" else "-" for t in trace)
            print(f"direction={spec.direction}: "
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
        if spec.mode == "delta":
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
        for key, label in (("degradations", "degradation"),
                           ("faults_fired", "fault injected")):
            for event in result.extra.get(key, ()):
                print(f"{label}: " + ", ".join(
                    f"{k}={v}" for k, v in event.items()), file=sys.stderr)
        if args.telemetry:
            print()
            print(spec.telemetry.summary())
        if args.trace:
            print(f"trace written to {args.trace}", file=sys.stderr)
        if args.trace_workers:
            print(f"worker segments in {args.trace}.workers/ — merge with "
                  f"`repro trace merge {args.trace} -o merged.jsonl`",
                  file=sys.stderr)
        if args.record:
            print(f"provenance trace written to {args.record} "
                  f"({len(spec.record.events)} events)", file=sys.stderr)
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
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in (
            ("scales", args.scales), ("workers", args.workers),
            ("direction", args.direction)) if v is not None}
        if args.out_of_core:
            kwargs.update(out_of_core=True, num_intervals=args.num_intervals)
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
                              f"speedup {cell['speedup']:.2f}x (vectorized), "
                              f"{cell['delta_speedup']:.2f}x (delta)  [{modes}]")
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
            ALGORITHMS[args.algorithm], graph,
            threads_list=tuple(args.threads), delays=tuple(args.delays))
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

        return serve(**{k: v for k, v in vars(args).items()
                        if k != "command"})
    elif args.command == "client":
        return _cmd_client(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
