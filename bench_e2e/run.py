"""Run the end-to-end benchmark: each workload in a fresh interpreter.

    python3 bench_e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace {0,1} | --traced] [--quick] [--out FILE]

Prints every metric by name with its unit, verifies the outputs, writes
the result file, and exits non-zero if any verification failed.  After
each run it prints one JSON line ``{"correct", "attempted", "failed",
"metrics"}`` holding the metrics ``BENCHMARK.json`` names: the
end-to-end ones of an untraced run, the per-layer ones of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench_e2e.catalog import PER_LAYER_UNITS, load_benchmark  # noqa: E402

#: A workload's child is killed after this long and every operation it
#: still owed counts as failed.
HARD_TIMEOUT_S = 170


def run_child(name: str, args, trace: int, run_dir: str) -> dict:
    """One workload in a child interpreter; its result, or a failure."""
    scratch = os.path.join(run_dir, "tmp", name)
    os.makedirs(scratch)
    result_path = os.path.join(run_dir, f"{name}-trace{trace}.json")
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = scratch
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scratch", scratch, "--out-dir", run_dir,
               "--result", result_path]
    if args.quick:
        command.append("--quick")
    if args.inject_failure:
        command.append("--inject-failure")
    # Its own session, so a timeout can stop the server and pool workers
    # the child started along with it.
    child = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = child.wait(timeout=HARD_TIMEOUT_S)
        problem = f"child exited with code {code}" if code else None
    except subprocess.TimeoutExpired:
        problem = f"hard timeout after {HARD_TIMEOUT_S} s"
    finally:
        try:
            os.killpg(child.pid, 9)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if problem is None:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    return {"workload": name, "traced": bool(trace), "crashed": True,
            "attempted": 1, "failed": 1, "failures": [problem],
            "end_to_end": {}, "per_layer": {}}


def with_units(result: dict, bench: dict) -> dict:
    """The child's result with a unit on every metric and null for the
    per-layer metrics the workload does not have."""
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    result["end_to_end"] = {name: {**stats, "unit": units[name]}
                            for name, stats in result["end_to_end"].items()}
    result["failed_share"] = result["failed"] / result["attempted"]
    if result["traced"]:
        measured = result["per_layer"]
        result["per_layer"] = {name: {"value": measured.get(name), "unit": unit}
                               for name, unit in PER_LAYER_UNITS.items()}
    return result


def report(result: dict) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} ({mode}) ==")
    for name, m in result["end_to_end"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}  "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    print(f"  {'failed_share':<40} {result['failed_share']:.6g} ratio  "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if result.get("noisy"):
        print("  noisy: host calibration drifted by more than 10% "
              f"({result['calibration_s']})")
    for name, m in result.get("per_layer", {}).items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<40} {value} {m['unit']}")


def contract_line(result: dict, bench: dict) -> str:
    if result["traced"]:
        # Tracked per-layer metrics are the ones for which "this workload
        # does not use the layer" is an honest zero.
        metrics = {m["name"]: {
            "value": result["per_layer"][m["name"]]["value"] or 0,
            "unit": m["unit"]} for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {
            "value": result["end_to_end"][m["name"]]["value"],
            "unit": m["unit"]} for m in bench["end_to_end"]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the timed passes of one run last "
                             f"(default {bench['run_seconds']}; 1 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run, reporting per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="run each workload untraced, then traced")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs (the harness self-test)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result file (default bench_e2e/out/"
                             "<timestamp>-<seed>.json)")
    parser.add_argument("--inject-failure", action="store_true",
                        help="self-test: corrupt one reference digest")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.quick else bench["run_seconds"]

    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{args.seed}"
    out_file = args.out or os.path.join(HERE, "out", f"{stamp}.json")
    run_dir = os.path.join(HERE, "out", f"{stamp}-{os.getpid()}")
    os.makedirs(run_dir)

    document = {"schema": "bench-e2e/1", "seed": args.seed,
                "quick": args.quick, "seconds": args.seconds,
                "host": None, "workloads": {}}
    failed = crashed = False
    for name in args.workload or names:
        for trace in ((0, 1) if args.traced else (args.trace,)):
            result = with_units(run_child(name, args, trace, run_dir), bench)
            report(result)
            failed = failed or result["failed"] > 0
            entry = document["workloads"].setdefault(name, {})
            entry["traced" if trace else "untraced"] = result
            if result.get("crashed"):
                crashed = True
                continue
            document["host"] = result.pop("host")
            print(contract_line(result, bench), flush=True)
    os.makedirs(os.path.dirname(os.path.abspath(out_file)), exist_ok=True)
    with open(out_file, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
    print(f"result file: {out_file}", file=sys.stderr)
    return 1 if failed or crashed else 0


if __name__ == "__main__":
    sys.exit(main())
