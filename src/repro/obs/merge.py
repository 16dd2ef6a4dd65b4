"""Merging per-worker trace segments into one coherent trace.

The process backends (:class:`~repro.engine.nondet_parallel.ParallelEngine`
and the out-of-core pool) run one OS process per worker.  The
master's :class:`~repro.obs.telemetry.Telemetry` sink sees every
iteration span, but wall-clock timestamps taken *inside* the workers are
incomparable across processes — each process has its own
``perf_counter`` origin and scheduling jitter, so "sort by time" would
produce a different interleaving on every run.

What *is* totally ordered and shared is the barrier protocol: every
worker crosses the same iteration barriers in the same order, and both
sides can count crossings independently — the master from the fix-point
rounds it drove, each worker from the waits it performed.  That count is
the **barrier epoch**, and ``(iteration, epoch, worker)`` is a merge key
every participant computes identically with no clocks involved.  Sorting
worker spans on it yields one canonical interleaving: merging the same
segments twice gives byte-identical output (the determinism row in
DESIGN.md).

Worker segments are ordinary JSONL streams read through
:func:`~repro.obs.trace.read_trace`, so the torn-final-line tolerance
applies to them too: a SIGKILLed worker's half-written last record
becomes a ``{"type": "truncated"}`` marker, which the merge converts to
a ``worker_segment_truncated`` event (the *merged* trace reserves a
trailing ``truncated`` marker for the master stream).

The merged trace stays valid for every existing reader: ``worker_span``
records are an unknown type to ``stats_from_trace`` /
``summarize_trace`` / ``lint_trace``, which pass them through untouched,
and the master's iteration spans keep their original relative order.
"""

from __future__ import annotations

import json
import os
import re

from .metrics import PHASES
from .trace import read_trace

__all__ = [
    "merge_worker_traces",
    "phase_report",
    "phase_table",
    "worker_segment_path",
]

_SEGMENT_RE = re.compile(r"^worker-(\d+)\.jsonl$")


def worker_segment_path(worker_dir: str, worker: int) -> str:
    """The canonical segment path for OS worker ``worker``."""
    return os.path.join(worker_dir, f"worker-{worker}.jsonl")


def find_worker_segments(worker_dir: str) -> list[tuple[int, str]]:
    """``(worker_id, path)`` pairs for every segment in ``worker_dir``."""
    if not os.path.isdir(worker_dir):
        return []
    out = []
    for name in os.listdir(worker_dir):
        m = _SEGMENT_RE.match(name)
        if m:
            out.append((int(m.group(1)), os.path.join(worker_dir, name)))
    out.sort()
    return out


def merge_worker_traces(
    master_path: str,
    worker_dir: str | None = None,
    out_path: str | None = None,
) -> list[dict]:
    """Interleave worker segments with the master trace.

    Parameters
    ----------
    master_path:
        The master JSONL trace written by the run's telemetry sink.
    worker_dir:
        Directory of ``worker-<w>.jsonl`` segments.  Defaults to
        ``master_path + ".workers"`` — the layout ``--trace-workers``
        produces.
    out_path:
        When given, the merged record list is also written there as
        JSONL.

    Returns the merged record list.  Worker records for iteration *i*
    (sorted by ``(epoch, worker)``) precede the master's iteration-*i*
    span, mirroring execution order: workers finish their barrier
    rounds before the master commits the span.  Worker records beyond
    the master's last span (a crashed master) and truncation events are
    placed before the master's terminal ``run_end``/``truncated``
    record.
    """
    if worker_dir is None:
        worker_dir = master_path + ".workers"
    master = read_trace(master_path)

    by_iter: dict[int, list[tuple]] = {}
    preamble: list[dict] = []
    tail: list[dict] = []
    for wid, seg_path in find_worker_segments(worker_dir):
        for rec in read_trace(seg_path):
            kind = rec.get("type")
            if kind == "worker_span":
                key = (int(rec.get("epoch", 0)), int(rec.get("worker", wid)))
                by_iter.setdefault(int(rec.get("iteration", 0)), []).append(
                    (key, rec))
            elif kind == "truncated":
                # A torn final line in a worker segment (SIGKILL mid
                # write).  The merged trace keeps a trailing
                # ``truncated`` marker exclusively for the master
                # stream, so surface the worker's as an event.
                tail.append({"type": "event",
                             "name": "worker_segment_truncated",
                             "worker": wid, "line": rec.get("line")})
            else:
                preamble.append(rec)

    merged: list[dict] = []
    emitted: set[int] = set()

    def flush_iteration(i: int) -> None:
        emitted.add(i)
        for _, rec in sorted(by_iter.get(i, ()), key=lambda kr: kr[0]):
            merged.append(rec)

    for rec in master:
        kind = rec.get("type")
        if kind == "iteration":
            flush_iteration(int(rec["iteration"]))
        elif kind in ("run_end", "truncated"):
            # Leftovers: iterations the master never recorded a span
            # for (it died first), then worker truncation events.
            for i in sorted(by_iter):
                if i not in emitted:
                    flush_iteration(i)
            merged.extend(tail)
            tail = []
        merged.append(rec)
        if kind == "run_start" and preamble:
            merged.extend(preamble)
            preamble = []
    # Master trace with no terminal record at all (still live, or torn
    # exactly at a line boundary): append whatever remains.
    merged.extend(preamble)
    for i in sorted(by_iter):
        if i not in emitted:
            flush_iteration(i)
    merged.extend(tail)

    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            for rec in merged:
                json.dump(rec, fh, separators=(",", ":"))
                fh.write("\n")
    return merged


# ---------------------------------------------------------------------------
# Phase reporting (shared by `repro top` and `repro report --phases`)
# ---------------------------------------------------------------------------

def phase_report(records) -> dict:
    """Condense a (merged or master-only) trace into a phase breakdown.

    Returns ``{"meta", "iterations", "totals", "phases", "workers"}``
    where ``iterations`` is a list of per-iteration rows::

        {"iteration", "wall_time_s", "num_active", "frontier_size",
         "conflicts", "phases": {phase: s}, "peak_rss_bytes",
         "fixpoint_passes", "repair_slice_passes",
         "workers": {wid: {phase: s}}}

    ``totals`` splits the ``repair_pass`` phase into ``repair_passes``
    (every fix-point pass after an iteration's first) and, where the
    engine reports it, ``repair_slice_passes`` — how many of them ran on
    the dirty set's edge slices instead of all ``m`` edges.

    Per-worker rows come from ``worker_span`` records when present
    (merged trace) and fall back to the span's folded
    ``extra["worker_phases"]`` (master-only trace), so both inputs
    yield per-worker ``barrier_wait``.
    """
    meta: dict = {}
    rows: list[dict] = []
    by_iter: dict[int, dict] = {}
    worker_ids: set[int] = set()

    for rec in records:
        kind = rec.get("type")
        if kind == "run_start":
            meta = {k: v for k, v in rec.items() if k != "type"}
        elif kind == "worker_span":
            wid = int(rec.get("worker", 0))
            worker_ids.add(wid)
            row = by_iter.setdefault(int(rec.get("iteration", 0)),
                                     {"workers": {}})
            row["workers"][wid] = {
                k: float(v) for k, v in (rec.get("phases") or {}).items()}
        elif kind == "iteration":
            i = int(rec["iteration"])
            extra = rec.get("extra") or {}
            row = by_iter.setdefault(i, {"workers": {}})
            row.update(
                iteration=i,
                wall_time_s=float(rec.get("wall_time_s", 0.0)),
                num_active=int(rec.get("num_active", 0)),
                frontier_size=int(rec.get("frontier_size", 0)),
                conflicts=(int(rec.get("read_write", 0))
                           + int(rec.get("write_write", 0))),
                phases={k: float(v)
                        for k, v in (extra.get("phases") or {}).items()},
                peak_rss_bytes=extra.get("peak_rss_bytes"),
                fixpoint_passes=extra.get("fixpoint_passes"),
                repair_slice_passes=extra.get("repair_slice_passes"),
            )
            folded = extra.get("worker_phases")
            if folded:
                for wid, phases in enumerate(folded):
                    worker_ids.add(wid)
                    row["workers"].setdefault(
                        wid, {k: float(v) for k, v in phases.items()})

    for i in sorted(by_iter):
        row = by_iter[i]
        if "iteration" not in row:  # worker spans with no master span
            row.update(iteration=i, wall_time_s=0.0, num_active=0,
                       frontier_size=0, conflicts=0, phases={},
                       peak_rss_bytes=None, fixpoint_passes=None,
                       repair_slice_passes=None)
        rows.append(row)

    phase_names = [p for p in PHASES
                   if any(p in r["phases"] or
                          any(p in w for w in r["workers"].values())
                          for r in rows)]
    # Every pass of an iteration after its first is a stale-read repair
    # pass; engines without a fix-point loop report no pass counts.
    counted = [r for r in rows if r["fixpoint_passes"] is not None]
    sliced = [r["repair_slice_passes"] for r in counted
              if r["repair_slice_passes"] is not None]
    totals = {
        "wall_time_s": sum(r["wall_time_s"] for r in rows),
        "conflicts": sum(r["conflicts"] for r in rows),
        "repair_passes": (sum(max(int(r["fixpoint_passes"]) - 1, 0)
                              for r in counted) if counted else None),
        "repair_slice_passes": sum(sliced) if sliced else None,
        "phases": {p: sum(r["phases"].get(p, 0.0) for r in rows)
                   for p in phase_names},
        "worker_phases": {
            w: {p: sum(r["workers"].get(w, {}).get(p, 0.0) for r in rows)
                for p in phase_names}
            for w in sorted(worker_ids)
        },
    }
    return {"meta": meta, "iterations": rows, "totals": totals,
            "phases": phase_names, "workers": sorted(worker_ids)}


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def phase_table(report: dict, *, last: int | None = None) -> str:
    """Render a :func:`phase_report` as a fixed-width text table.

    ``last`` keeps only the trailing *n* iteration rows (the live
    ``repro top`` view); totals always cover the whole report.
    """
    phases = report["phases"]
    rows = report["iterations"]
    if last is not None and len(rows) > last:
        rows = rows[-last:]
    cols = (["iter", "active", "frontier", "conf", "wall_ms"]
            + [f"{p}_ms" for p in phases])
    table = []
    for r in rows:
        table.append([str(r["iteration"]), str(r["num_active"]),
                      str(r["frontier_size"]), str(r["conflicts"]),
                      _ms(r["wall_time_s"])]
                     + [_ms(r["phases"].get(p, 0.0)) for p in phases])
    tot = report["totals"]
    table.append(["total", "", "", str(tot["conflicts"]),
                  _ms(tot["wall_time_s"])]
                 + [_ms(tot["phases"].get(p, 0.0)) for p in phases])

    widths = [max(len(c), *(len(r[i]) for r in table))
              for i, c in enumerate(cols)]
    lines = ["  ".join(c.rjust(widths[i]) for i, c in enumerate(cols)),
             "  ".join("-" * w for w in widths)]
    lines.extend("  ".join(cell.rjust(widths[i])
                           for i, cell in enumerate(row)) for row in table)

    repairs = tot.get("repair_passes")
    wtot = tot.get("worker_phases") or {}
    # A process master holds no repair time: its workers repair in
    # parallel, barrier-paced, so the slowest one is the cost.
    repair_s = tot["phases"].get("repair_pass") or max(
        (w.get("repair_pass", 0.0) for w in wtot.values()), default=0.0)
    if repairs and repair_s:
        # ROADMAP 2(c): repair_pass = passes x per-pass cost.
        line = (f"repair: {repairs} passes x {_ms(repair_s / repairs)} ms "
                f"mean = {_ms(repair_s)} ms")
        sliced = tot.get("repair_slice_passes")
        if sliced is not None and wtot:  # summed over the workers
            line += f"; {sliced} worker passes took the slice path"
        elif sliced is not None:
            line += (f"; {sliced} ({sliced / repairs:.1%}) "
                     f"took the slice path")
        lines.append("")
        lines.append(line)

    if wtot:
        lines.append("")
        lines.append("per-worker totals (ms):")
        wcols = ["worker"] + phases
        wtable = [[f"w{w}"] + [_ms(wtot[w].get(p, 0.0)) for p in phases]
                  for w in sorted(wtot)]
        wwidths = [max(len(c), *(len(r[i]) for r in wtable))
                   for i, c in enumerate(wcols)]
        lines.append("  ".join(c.rjust(wwidths[i])
                               for i, c in enumerate(wcols)))
        lines.append("  ".join("-" * w for w in wwidths))
        lines.extend("  ".join(cell.rjust(wwidths[i])
                               for i, cell in enumerate(row))
                     for row in wtable)
        busy = [(w, sum(v for p, v in wtot[w].items()
                        if p != "barrier_wait")) for w in sorted(wtot)]
        if busy and max(b for _, b in busy) > 0:
            avg = sum(b for _, b in busy) / len(busy)
            peak = max(b for _, b in busy)
            lines.append(f"worker skew (max busy / mean busy): "
                         f"{peak / avg:.2f}x" if avg > 0 else "")
    return "\n".join(lines)
