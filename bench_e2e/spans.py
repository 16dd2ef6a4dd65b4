"""In-memory spans recorded by the benchmark around its own calls.

A span is ``{id, name, start, end, parent, run_id}``.  Spans sharing a
``run_id`` form one tree; a thread that works concurrently with the main
thread (a service client) records under its own ``run_id``, so siblings
of one tree never overlap and self times add up to the root's duration.

``Tracer.span`` always times its block -- the end-to-end timings come
from the returned :class:`Timing` -- but keeps the span only when the
tracer is enabled, so an untraced run holds no spans at all.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Timing:
    """Start/end of one timed block (``time.perf_counter`` seconds)."""

    __slots__ = ("start", "end")

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, *, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, *, run_id: str | None = None):
        """Time a block; nest it under the calling thread's open span.

        ``run_id`` starts a separate tree (used by client threads)."""
        timing = Timing()
        if not self.enabled:
            try:
                yield timing
            finally:
                timing.end = time.perf_counter()
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if run_id is None:
            run_id = stack[-1]["run_id"] if stack else self.run_id
        record = {"id": None, "name": name, "start": timing.start, "end": None,
                  "parent": stack[-1]["id"] if stack else None,
                  "run_id": run_id}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield timing
        finally:
            stack.pop()
            timing.end = record["end"] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus the part children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += own[s["id"]]
    return dict(out)


def tree_problems(spans: list[dict], *, tolerance: float = 1e-6) -> list[str]:
    """Violations of the span-tree invariants; empty when well formed.

    Per ``run_id``: exactly one root, every child inside its parent and
    in the same tree, self time >= 0, and self times summing to the
    root's duration."""
    problems = []
    by_id = {s["id"]: s for s in spans}
    own = self_times(spans)
    trees: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        trees[s["run_id"]].append(s)
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {s['name']}#{s['id']} never ended")
    for run_id, members in trees.items():
        roots = [s for s in members if s["parent"] is None]
        if len(roots) != 1:
            problems.append(f"{run_id}: {len(roots)} roots")
            continue
        for s in members:
            parent = by_id.get(s["parent"]) if s["parent"] is not None else None
            if s["parent"] is not None and (
                    parent is None or parent["run_id"] != run_id):
                problems.append(f"{run_id}: {s['name']}#{s['id']} has a "
                                "parent outside its tree")
            elif parent is not None and (
                    s["start"] < parent["start"] - tolerance
                    or s["end"] > parent["end"] + tolerance):
                problems.append(f"{run_id}: {s['name']}#{s['id']} is not "
                                f"inside {parent['name']}#{parent['id']}")
            if own[s["id"]] < -tolerance:
                problems.append(f"{run_id}: {s['name']}#{s['id']} has "
                                f"self time {own[s['id']]:.6f}")
        total = sum(own[s["id"]] for s in members)
        duration = roots[0]["end"] - roots[0]["start"]
        if abs(total - duration) > tolerance * max(1, len(members)):
            problems.append(f"{run_id}: self times sum to {total:.6f}, "
                            f"root lasts {duration:.6f}")
    return problems
