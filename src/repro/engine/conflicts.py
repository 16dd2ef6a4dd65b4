"""Conflict detection and accounting (§III, Lemmas 1 and 2).

The paper calls competing same-iteration operations on one edge a
*conflict* and distinguishes two kinds:

* **read–write** — one update reads the edge while another writes it; by
  Lemma 1 (given individual-access atomicity) the reader sees either the
  old or the new value, never garbage.
* **write–write** — two updates write the edge; by Lemma 2 exactly one
  of the two values is committed at the end of the iteration.

The nondeterministic engine's edge store
(:class:`~repro.engine.edge_history.EdgeHistory`) keeps every
same-iteration write and a per-reader summary of the reads, and asks
:func:`classify_access_counts` to classify them after the barrier.  The resulting
:class:`ConflictLog` is part of every run result: it is how the library
*verifies* an algorithm's declared conflict profile instead of trusting
it (see :func:`repro.theory.eligibility.audit_run`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

__all__ = ["ConflictEvent", "ConflictLog", "classify_access_counts"]


@dataclass(frozen=True)
class ConflictEvent:
    """One detected conflict on one edge field in one iteration."""

    iteration: int
    eid: int
    field: str
    kind: str  #: "read-write" or "write-write"
    first_vid: int
    second_vid: int


@dataclass
class ConflictLog:
    """Aggregated conflict statistics for a run.

    ``read_write`` / ``write_write`` count conflicting *pairs* of update
    tasks; ``contended_edges`` counts distinct (iteration, edge, field)
    triples that saw at least one conflict; ``lost_writes`` counts writes
    whose value was overwritten by a competing same-iteration write
    (Lemma 2's losing value); ``stale_reads`` counts reads that raced a
    write and observed the old value (one side of Lemma 1).
    """

    read_write: int = 0
    write_write: int = 0
    contended_edges: int = 0
    lost_writes: int = 0
    stale_reads: int = 0
    per_iteration: Counter = field(default_factory=Counter)
    events: list[ConflictEvent] = field(default_factory=list)
    keep_events: bool = False
    max_events: int = 10_000

    @property
    def total(self) -> int:
        return self.read_write + self.write_write

    def record(self, event: ConflictEvent) -> None:
        if event.kind == "read-write":
            self.read_write += 1
        elif event.kind == "write-write":
            self.write_write += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown conflict kind {event.kind!r}")
        self.per_iteration[event.iteration] += 1
        if self.keep_events and len(self.events) < self.max_events:
            self.events.append(event)

    def summary(self) -> dict:
        return {
            "read_write": self.read_write,
            "write_write": self.write_write,
            "contended_edges": self.contended_edges,
            "lost_writes": self.lost_writes,
            "stale_reads": self.stale_reads,
        }


def classify_access_counts(
    log: ConflictLog,
    iteration: int,
    eid: int,
    fieldname: str,
    write_records: list[tuple[int, int]],
    readers: Mapping[int, list],
    winner_vid: int | None,
) -> None:
    """Classify all same-iteration accesses to one edge field.

    ``write_records`` are the edge's writes as ``(vid, thread)`` pairs in
    issue order; ``readers`` is its read summary ``{vid: [time, thread,
    n_reads]}`` in first-read order; ``winner_vid`` is the update whose
    write was committed at the barrier (None when nothing was written).

    Following the race definition the paper builds on (Netzer & Miller:
    competing accesses with no predefined order), a pair only counts as
    a conflict when the two accesses come from *different threads* —
    same-thread accesses are program-ordered and therefore deterministic,
    and a read and write by the same update task (e.g. WCC reading then
    re-writing an incident edge) is never a conflict.  A single-threaded
    nondeterministic run consequently logs zero conflicts, matching its
    value-equivalence with the Gauss–Seidel sweep.

    Each read counts once per racing writer.  With ``log.keep_events``
    every pair is also a :class:`ConflictEvent`, in access order: a
    task's reads of one edge are contiguous (it runs to completion), so
    each read against each writer in first-write order, then the
    write–write pairs by vid.
    """
    if not write_records:
        return
    writer_by_vid: dict[int, int] = {}
    for w_vid, w_thread in write_records:
        writer_by_vid.setdefault(w_vid, w_thread)
    read_write = 0
    for r_vid, (_, r_thread, n_reads) in readers.items():
        for w_vid, w_thread in writer_by_vid.items():
            if w_vid != r_vid and w_thread != r_thread:
                read_write += n_reads
    distinct = sorted(writer_by_vid)
    ww = [(a, b) for i, a in enumerate(distinct) for b in distinct[i + 1:]
          if writer_by_vid[a] != writer_by_vid[b]] if len(distinct) > 1 else ()
    if read_write + len(ww):
        log.contended_edges += 1
        if log.keep_events:
            for r_vid, (_, r_thread, n_reads) in readers.items():
                racing = [w_vid for w_vid, w_thread in writer_by_vid.items()
                          if w_vid != r_vid and w_thread != r_thread]
                for w_vid in racing * n_reads:
                    log.record(ConflictEvent(iteration, eid, fieldname,
                                             "read-write", w_vid, r_vid))
            for a, b in ww:
                log.record(ConflictEvent(iteration, eid, fieldname,
                                         "write-write", a, b))
        else:
            log.read_write += read_write
            log.write_write += len(ww)
            log.per_iteration[iteration] += read_write + len(ww)
    if winner_vid is not None and winner_vid in writer_by_vid:
        winner_thread = writer_by_vid[winner_vid]
        log.lost_writes += sum(
            1
            for w_vid, w_thread in write_records
            if w_vid != winner_vid and w_thread != winner_thread
        )
