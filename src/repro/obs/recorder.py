"""Race-provenance flight recorder: *which* racy interleaving happened.

:class:`~repro.obs.telemetry.Telemetry` (PR 2) answers *how much* two
nondeterministic runs differ — per-iteration aggregates.  This module
answers *where and why*: when enabled via ``run(..., record=...)``, a
:class:`Recorder` logs each contended edge access as a **provenance
event** — the iteration, the edge, the writer/reader labels and threads,
the Definitions 1–3 classification of the racing pair (``before`` /
``after`` / ``concurrent``), the Lemma-1/Lemma-2 rule that resolved it,
the value committed, and the value(s) lost.  Two traces of the same
workload can then be aligned event by event and the first divergent race
walked forward to the final rankings it explains
(:mod:`repro.analysis.explain`).

Event kinds
-----------
``commit``
    One barrier commit of one edge field (Lemma 2): the winning writer,
    the committed value, and one ``lost`` entry per losing writer with
    its value and its Defs. 1–3 relation to the winner.
``read``
    One (reader task, writer task) pair racing on one edge field
    (Lemma 1), aggregated over the reader's ``count`` reads (all reads
    of one update task share its effective timestamp, so they classify
    identically): ``lemma1-fresh`` (writer ``≺`` reader — the new value
    was observed), ``lemma1-stale`` (concurrent — the old value was
    observed), or ``lemma1-old`` (reader ``≺`` writer — ordinary old
    read, no race).
``write``
    A single committed write from engines whose executions admit no
    observable race resolution: the deterministic engines record their
    in-place writes (policy ``"all"`` only), and the real-thread backend
    records each write as it lands with ``order="unobserved"`` —
    classifying a real race would require watching it, which would
    change it.

Sampling policies
-----------------
``"conflicts"`` (default)
    Keep only events whose racing pair spans two threads — the actual
    nondeterminism.  Uncontended commits and same-thread pairs drop.
``"all"``
    Keep every event (uncontended commits carry ``rule="uncontended"``).
``"reservoir"``
    Per-``(field, edge)`` reservoir of at most ``reservoir_k`` events
    (Algorithm R, seeded), so a hot edge cannot flood the trace; sampled
    events are flushed, in deterministic order, at ``end_run``.

Cost contract (matches the PR 2 telemetry contract): a disabled
recorder (``record=None``) costs the engines one pointer check per
*barrier* — the simulated engines emit provenance from access records
they already keep, recomputing visibility at commit time instead of
hooking the read path.  Only the always-direct stores (Gauss–Seidel,
chromatic, threads, pure-async) pay one pointer comparison per write
when disabled.
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from .telemetry import JsonlTrace

__all__ = ["Recorder", "RECORD_POLICIES"]

#: Valid sampling policies, in documentation order.
RECORD_POLICIES = ("conflicts", "all", "reservoir")

#: Largest vertex count for which ``end_run`` embeds the final ranking.
_MAX_RANKING = 65_536


class Recorder(JsonlTrace):
    """Event-level provenance sink for one engine run.

    Parameters
    ----------
    policy:
        Sampling policy, one of :data:`RECORD_POLICIES`.
    reservoir_k:
        Per-edge sample size under ``policy="reservoir"``.
    reads:
        Record Lemma-1 read provenance (pairs of reader/writer tasks) in
        addition to Lemma-2 commits.  Requires the nondeterministic
        engine to keep its detailed access log for the run.
    trace_path:
        Stream records to this JSONL file as they are emitted (reservoir
        samples are flushed at ``end_run``).
    seed:
        Seed of the reservoir-sampling stream; with identical event
        streams (e.g. the object engine vs the vectorized fast path on
        one schedule) identical seeds keep identical samples.

    Like a :class:`~repro.obs.telemetry.Telemetry` sink, a recorder is
    one-run-scoped; call :meth:`reset` before reuse.
    """

    def __init__(
        self,
        *,
        policy: str = "conflicts",
        reservoir_k: int = 32,
        reads: bool = True,
        trace_path: str | None = None,
        seed: int = 0,
    ):
        if policy not in RECORD_POLICIES:
            raise ValueError(
                f"unknown recorder policy {policy!r}; choose from {RECORD_POLICIES}"
            )
        if reservoir_k < 1:
            raise ValueError("reservoir_k must be >= 1")
        self.policy = policy
        self.reservoir_k = int(reservoir_k)
        self._reads = bool(reads)
        super().__init__(trace_path)
        self._seed = seed
        # The real-thread backend emits from racing workers.
        self._lock = threading.Lock()
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
        self.events: list[dict] = []  #: the provenance subset of ``records``
        self.dropped = 0  #: events rejected by the sampling policy
        self.offered = 0  #: events offered by the engines before sampling
        self.run_meta: dict | None = None
        self.run_summary: dict | None = None
        # policy="reservoir": (field, eid) -> [(seq, event), ...] samples.
        self._reservoir: dict[tuple[str, int], list[tuple[int, dict]]] = {}
        self._seen: dict[tuple[str, int], int] = {}
        self._seq = 0

    # -- engine-facing configuration ------------------------------------
    @property
    def wants_reads(self) -> bool:
        """Should engines derive Lemma-1 read provenance for this run?"""
        return self._reads

    @property
    def records_writes(self) -> bool:
        """Should per-write provenance (deterministic/threads stores) flow?"""
        return self.policy != "conflicts"

    # -- record emission ------------------------------------------------
    def _emit(self, record: dict) -> None:
        if record.get("type") == "provenance":
            self.events.append(record)
        super()._emit(record)

    def begin_run(self, **meta: Any) -> None:
        """Mark the start of a run; ``meta`` is free-form."""
        self.run_meta = meta
        self._emit(
            {
                "type": "run_start",
                **meta,
                "recorder_policy": self.policy,
                "recorder_reads": self._reads,
            }
        )

    # -- provenance event entry points ----------------------------------
    def commit_event(
        self,
        *,
        iteration: int,
        field: str,
        eid: int,
        writer: int,
        writer_thread: int,
        value: float,
        lost: tuple[dict, ...] | list[dict] = (),
        rule: str = "lemma2",
    ) -> None:
        """One barrier commit of one edge field (Lemma 2).

        ``lost`` carries one ``{"vid", "thread", "value", "order"}`` dict
        per losing writer; ``order`` is the loser's Defs. 1–3 relation to
        the winner (``before`` = the winner could see the loser's write,
        ``after`` = vice versa, ``concurrent`` = neither).
        """
        event = {
            "type": "provenance",
            "kind": "commit",
            "iteration": iteration,
            "field": field,
            "eid": eid,
            "writer": writer,
            "writer_thread": writer_thread,
            "value": value,
            "rule": rule,
            "lost": list(lost),
        }
        conflict = any(entry["thread"] != writer_thread for entry in event["lost"])
        self._offer(event, conflict)

    def read_event(
        self,
        *,
        iteration: int,
        field: str,
        eid: int,
        reader: int,
        reader_thread: int,
        writer: int,
        writer_thread: int,
        count: int,
        order: str,
        rule: str,
        value: float,
    ) -> None:
        """One racing (reader, writer) task pair on one edge field (Lemma 1)."""
        event = {
            "type": "provenance",
            "kind": "read",
            "iteration": iteration,
            "field": field,
            "eid": eid,
            "reader": reader,
            "reader_thread": reader_thread,
            "writer": writer,
            "writer_thread": writer_thread,
            "count": count,
            "order": order,
            "rule": rule,
            "value": value,
        }
        self._offer(event, reader_thread != writer_thread)

    def write_event(
        self,
        *,
        iteration: int,
        field: str,
        eid: int,
        writer: int,
        writer_thread: int,
        value: float,
        rule: str,
        order: str = "unobserved",
    ) -> None:
        """A single committed write (deterministic engines, threads backend)."""
        event = {
            "type": "provenance",
            "kind": "write",
            "iteration": iteration,
            "field": field,
            "eid": eid,
            "writer": writer,
            "writer_thread": writer_thread,
            "value": value,
            "order": order,
            "rule": rule,
        }
        self._offer(event, False)

    def event(self, name: str, **fields: Any) -> None:
        """Ad-hoc named observation (mirrors ``Telemetry.event``)."""
        with self._lock:
            self._emit({"type": "event", "name": name, **fields})

    def repair_event(
        self,
        *,
        iteration: int,
        batch: int,
        repair_mode: str,
        inserted: int,
        deleted: int,
        repaired_vertices: int,
        seeds=(),
        region_capped: bool = False,
    ) -> None:
        """One mutation batch repaired into a standing delta result.

        Provenance for the dynamic-graph workload: *which* conclusions a
        mutation invalidated.  ``seeds`` names (a bounded prefix of) the
        vertices whose values lost their support; ``repair_mode`` says
        how the engine recovered — ``reseed`` (invertible ⊕, pure delta
        adjustment), ``taint`` (bounded affected-region re-expansion),
        or ``full_restart`` (region exceeded the cap; honest recompute).
        """
        with self._lock:
            self._emit({
                "type": "repair",
                "iteration": iteration,
                "batch": batch,
                "repair_mode": repair_mode,
                "inserted": inserted,
                "deleted": deleted,
                "repaired_vertices": repaired_vertices,
                "seeds": [int(v) for v in seeds],
                "region_capped": bool(region_capped),
            })

    # -- sampling -------------------------------------------------------
    def _offer(self, event: dict, conflict: bool) -> None:
        with self._lock:
            self.offered += 1
            if self.policy == "conflicts" and not conflict:
                self.dropped += 1
                return
            if self.policy == "reservoir":
                self._offer_reservoir(event)
                return
            self._emit(event)

    def _offer_reservoir(self, event: dict) -> None:
        """Algorithm R per (field, eid): every event of a key has equal
        probability ``k / seen`` of surviving, so a hot edge's trace is a
        uniform sample of its history instead of a prefix."""
        key = (event["field"], event["eid"])
        seen = self._seen.get(key, 0) + 1
        self._seen[key] = seen
        samples = self._reservoir.setdefault(key, [])
        self._seq += 1
        if len(samples) < self.reservoir_k:
            samples.append((self._seq, event))
            return
        j = int(self._rng.integers(0, seen))
        if j < self.reservoir_k:
            self.dropped += 1  # the displaced sample
            samples[j] = (self._seq, event)
        else:
            self.dropped += 1

    def _flush_reservoir(self) -> None:
        if not self._reservoir:
            return
        kept = [item for samples in self._reservoir.values() for item in samples]
        kept.sort(key=lambda item: item[0])  # emission order, deterministic
        for _, event in kept:
            self._emit(event)
        self._reservoir = {}
        self._seen = {}

    # -- run end --------------------------------------------------------
    def end_run(self, result: Any = None) -> None:
        """Flush reservoir samples, append the run summary, close the trace.

        When ``result`` is a :class:`~repro.engine.result.RunResult` of a
        modestly sized graph, the summary embeds the final vertex
        ``ranking`` (descending score, the :func:`repro.analysis.ranking`
        order) — the hook the divergence explainer uses to connect
        recorded races to the paper's difference-degree metric.
        """
        with self._lock:
            self._flush_reservoir()
            summary: dict = {
                "type": "run_end",
                "provenance_events": len(self.events),
                "events_offered": self.offered,
                "events_dropped": self.dropped,
            }
            if result is not None:
                summary.update(
                    mode=result.mode,
                    converged=result.converged,
                    iterations=result.num_iterations,
                )
                ranking = _final_ranking(result)
                if ranking is not None:
                    summary["ranking"] = ranking
            self.run_summary = summary
            self._emit(summary)
            self.close()

    def reset(self) -> None:
        """Forget everything recorded; keep configuration (policy, path)."""
        self.close()
        self._trace_opened = False
        self.records = []
        self.events = []
        self.dropped = 0
        self.offered = 0
        self.run_meta = None
        self.run_summary = None
        self._reservoir = {}
        self._seen = {}
        self._seq = 0
        self._rng = np.random.default_rng(np.random.SeedSequence([self._seed, 5]))

    # -- consumption ----------------------------------------------------
    def commits(self) -> list[dict]:
        """The recorded Lemma-2 commit events, in emission order."""
        return [e for e in self.events if e["kind"] == "commit"]


def _final_ranking(result: Any) -> list[int] | None:
    """Vertex ids of ``result`` ordered by descending score, or ``None``
    when the program has no primary output or the graph is too large to
    embed in a trace line."""
    from ..analysis.difference import ranking  # local: avoid package cycle

    try:
        scores = result.result()
    except Exception:
        return None
    if scores.ndim != 1 or scores.size > _MAX_RANKING:
        return None
    return [int(v) for v in ranking(scores)]
