"""The telemetry sink and its primitives.

Design constraints, in order:

1. **Near-zero cost when disabled.**  Engines hold a ``telemetry``
   reference that is ``None`` by default; every recording site sits
   behind one ``if sink is not None`` per *iteration* (never per update
   or per edge access), so a disabled run pays one pointer comparison
   per barrier.
2. **The trace is the accounting.**  An iteration record carries exactly
   the fields of :class:`~repro.engine.result.IterationStats` (plus
   observability extras), so a JSONL trace re-read reconstructs the run
   profile bit for bit — the experiment drivers price *that*, which is
   how the paper tables and the telemetry agree by construction.
3. **Streaming.**  With ``trace_path`` set, records are appended (and
   flushed) as they happen, so a crashed or killed run leaves a usable
   partial trace.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import IO, Any, Callable, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.result import IterationStats, RunResult

__all__ = ["Counter", "Gauge", "IterationSpan", "JsonlTrace", "Telemetry"]


@dataclass
class Counter:
    """Monotonically increasing named count."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """Named point-in-time measurement (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass(frozen=True)
class IterationSpan:
    """Everything observed about one engine iteration.

    The first five fields mirror
    :class:`~repro.engine.result.IterationStats`; the rest are the
    observability surface: wall time of the iteration body, the size of
    the frontier it scheduled (``|S_{n+1}|``), the iteration's conflict
    deltas split by the paper's two classes — ``read_write`` (Lemma 1)
    and ``write_write`` (Lemma 2) — and engine-specific ``extra`` facts
    (e.g. ``fixpoint_passes`` from the vectorized engine, ``num_colors``
    from the chromatic one).
    """

    iteration: int
    num_active: int
    updates_per_thread: tuple[int, ...]
    reads_per_thread: tuple[int, ...]
    writes_per_thread: tuple[int, ...]
    frontier_size: int
    wall_time_s: float = 0.0
    read_write: int = 0
    write_write: int = 0
    extra: dict = field(default_factory=dict)

    # -- conversions ---------------------------------------------------
    def to_record(self) -> dict:
        rec = {
            "type": "iteration",
            "iteration": self.iteration,
            "num_active": self.num_active,
            "updates_per_thread": list(self.updates_per_thread),
            "reads_per_thread": list(self.reads_per_thread),
            "writes_per_thread": list(self.writes_per_thread),
            "frontier_size": self.frontier_size,
            "wall_time_s": self.wall_time_s,
            "read_write": self.read_write,
            "write_write": self.write_write,
        }
        if self.extra:
            rec["extra"] = dict(self.extra)
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "IterationSpan":
        if rec.get("type") != "iteration":
            raise ValueError(f"not an iteration record: {rec.get('type')!r}")
        return cls(
            iteration=int(rec["iteration"]),
            num_active=int(rec["num_active"]),
            updates_per_thread=tuple(int(x) for x in rec["updates_per_thread"]),
            reads_per_thread=tuple(int(x) for x in rec["reads_per_thread"]),
            writes_per_thread=tuple(int(x) for x in rec["writes_per_thread"]),
            frontier_size=int(rec["frontier_size"]),
            wall_time_s=float(rec.get("wall_time_s", 0.0)),
            read_write=int(rec.get("read_write", 0)),
            write_write=int(rec.get("write_write", 0)),
            extra=dict(rec.get("extra", {})),
        )

    def to_stats(self) -> "IterationStats":
        from ..engine.result import IterationStats

        return IterationStats(
            iteration=self.iteration,
            num_active=self.num_active,
            updates_per_thread=list(self.updates_per_thread),
            reads_per_thread=list(self.reads_per_thread),
            writes_per_thread=list(self.writes_per_thread),
        )


class JsonlTrace:
    """A sink's records: kept in order in :attr:`records` and, with a
    ``trace_path``, streamed to that JSONL file as they are emitted.
    The base of :class:`Telemetry` and
    :class:`~repro.obs.recorder.Recorder`."""

    def __init__(self, trace_path: str | None):
        self._trace_path = trace_path
        self._fh: IO[str] | None = None
        self._trace_opened = False
        self.records: list[dict] = []

    def _emit(self, record: dict) -> None:
        self.records.append(record)
        if self._trace_path is not None:
            if self._fh is None:
                # First open truncates; later reopens append so a
                # supervised restart extends the trace of the attempt it
                # recovers instead of erasing it.
                self._fh = open(self._trace_path,
                                "a" if self._trace_opened else "w",
                                encoding="utf-8")
                self._trace_opened = True
            json.dump(record, self._fh, separators=(",", ":"), default=_jsonable)
            self._fh.write("\n")
            # Flush per record (iteration granularity): a killed run
            # still leaves a readable partial trace.
            self._fh.flush()

    def begin_engine_run(self, mode: str, program: Any, config: Any) -> None:
        """:meth:`begin_run` with the standard engine metadata fields."""
        self.begin_run(
            mode=mode,
            program=type(program).__name__,
            threads=config.threads,
            seed=config.seed,
            delay=config.delay,
            jitter=config.jitter,
            atomicity=config.atomicity.value,
            dispatch=config.dispatch.value,
            max_iterations=config.max_iterations,
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def export(self, path: str) -> None:
        """Write all buffered records to ``path`` as JSONL (post-hoc)."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                json.dump(rec, fh, separators=(",", ":"), default=_jsonable)
                fh.write("\n")


class Telemetry(JsonlTrace):
    """Structured sink for one engine run.

    Parameters
    ----------
    trace_path:
        When given, every record is appended to this JSONL file as it is
        emitted (one JSON object per line) and flushed immediately.
    on_iteration:
        Optional progress callback ``on_iteration(span)`` fired after
        each iteration is recorded — the opt-in progress-bar hook.  It
        runs on the engine's thread; keep it cheap.
    worker_dir:
        When given alongside ``trace_path``, process-backend engines
        (``backend="process"``, out-of-core pools) direct each OS worker
        to stream its own JSONL segment (``worker-<w>.jsonl``) into this
        directory.  ``repro trace merge`` (:mod:`repro.obs.merge`)
        interleaves the segments with the master trace on
        (iteration, barrier-epoch) keys.  Single-process engines ignore
        it.

    A sink may be reused across runs only after :meth:`reset`; passing a
    fresh sink per run is the normal pattern.
    """

    def __init__(
        self,
        *,
        trace_path: str | None = None,
        on_iteration: Callable[[IterationSpan], None] | None = None,
        worker_dir: str | None = None,
    ):
        super().__init__(trace_path)
        self._on_iteration = on_iteration
        self.worker_dir = worker_dir
        self.spans: list[IterationSpan] = []
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.run_meta: dict | None = None
        self.run_summary: dict | None = None

    # -- primitives ----------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    @staticmethod
    def now() -> float:
        """Monotonic timestamp engines use to bracket an iteration."""
        return time.perf_counter()

    # -- record emission -----------------------------------------------
    def begin_run(self, **meta: Any) -> None:
        """Mark the start of an engine run; ``meta`` is free-form."""
        self.run_meta = meta
        self._emit({"type": "run_start", **meta})

    def event(self, name: str, **fields: Any) -> None:
        """Ad-hoc observation (e.g. vectorized-dispatch fallback reasons)."""
        self._emit({"type": "event", "name": name, **fields})

    def iteration(
        self,
        *,
        iteration: int,
        num_active: int,
        updates_per_thread,
        reads_per_thread,
        writes_per_thread,
        frontier_size: int,
        wall_time_s: float = 0.0,
        read_write: int = 0,
        write_write: int = 0,
        **extra: Any,
    ) -> None:
        """Record one iteration span (engines call this at each barrier)."""
        span = IterationSpan(
            iteration=iteration,
            num_active=num_active,
            updates_per_thread=tuple(int(x) for x in updates_per_thread),
            reads_per_thread=tuple(int(x) for x in reads_per_thread),
            writes_per_thread=tuple(int(x) for x in writes_per_thread),
            frontier_size=int(frontier_size),
            wall_time_s=float(wall_time_s),
            read_write=int(read_write),
            write_write=int(write_write),
            extra=extra,
        )
        self.spans.append(span)
        self._emit(span.to_record())
        if self._on_iteration is not None:
            # A progress callback is an observer, not a participant: a
            # bug in user code must not abort the engine iteration.  The
            # failure is recorded in the trace instead of propagating.
            try:
                self._on_iteration(span)
            except Exception as exc:
                self._emit(
                    {
                        "type": "event",
                        "name": "callback_error",
                        "iteration": span.iteration,
                        "error": repr(exc),
                    }
                )

    def metrics_snapshot(self, registry: Any) -> None:
        """Embed a metrics-registry snapshot in the trace stream.

        Engines call this just before :meth:`end_run` when a
        :class:`~repro.obs.metrics.MetricsRegistry` is attached, so the
        trace carries the run's standing totals as a
        ``{"type": "metrics"}`` record.  Trace readers treat unknown
        record types as pass-through, so the record is invisible to
        ``stats_from_trace`` and clean under ``lint_trace``.
        """
        self._emit(registry.snapshot())

    def end_run(self, result: "RunResult | None" = None) -> None:
        """Mark the end of a run, dump counters/gauges, close the trace."""
        summary: dict = {"type": "run_end"}
        if result is not None:
            summary.update(
                mode=result.mode,
                converged=result.converged,
                iterations=result.num_iterations,
                total_updates=result.total_updates,
                conflicts=result.conflicts.summary(),
            )
        if self.counters:
            summary["counters"] = {n: c.value for n, c in self.counters.items()}
        if self.gauges:
            summary["gauges"] = {n: g.value for n, g in self.gauges.items()}
        self.run_summary = summary
        self._emit(summary)
        self.close()

    def reset(self) -> None:
        """Forget everything recorded; keep configuration (path, callback)."""
        self.close()
        self._trace_opened = False
        self.records = []
        self.spans = []
        self.counters = {}
        self.gauges = {}
        self.run_meta = None
        self.run_summary = None

    # -- consumption ---------------------------------------------------
    def iteration_stats(self) -> "list[IterationStats]":
        """The recorded spans as engine :class:`IterationStats` rows.

        For a completed run these equal ``result.iterations`` exactly —
        the property the round-trip tests assert and the experiment
        drivers rely on.
        """
        return [s.to_stats() for s in self.spans]

    def summary(self) -> str:
        """Human-readable per-iteration table of the recorded run."""
        header = ""
        if self.run_meta:
            parts = [f"{k}={v}" for k, v in self.run_meta.items()]
            header = "run: " + " ".join(parts)
        cols = ["iter", "active", "upd", "reads", "writes",
                "rw_conf", "ww_conf", "frontier", "wall_ms"]
        rows = []
        for s in self.spans:
            rows.append([
                str(s.iteration),
                str(s.num_active),
                str(sum(s.updates_per_thread)),
                str(sum(s.reads_per_thread)),
                str(sum(s.writes_per_thread)),
                str(s.read_write),
                str(s.write_write),
                str(s.frontier_size),
                f"{s.wall_time_s * 1e3:.3f}",
            ])
        totals = [
            "total",
            str(sum(s.num_active for s in self.spans)),
            str(sum(sum(s.updates_per_thread) for s in self.spans)),
            str(sum(sum(s.reads_per_thread) for s in self.spans)),
            str(sum(sum(s.writes_per_thread) for s in self.spans)),
            str(sum(s.read_write for s in self.spans)),
            str(sum(s.write_write for s in self.spans)),
            "",
            f"{sum(s.wall_time_s for s in self.spans) * 1e3:.3f}",
        ]
        table = rows + [totals] if rows else rows
        widths = [
            max(len(c), *(len(r[i]) for r in table)) if table else len(c)
            for i, c in enumerate(cols)
        ]
        lines = []
        if header:
            lines.append(header)
        lines.append("  ".join(c.rjust(widths[i]) for i, c in enumerate(cols)))
        lines.append("  ".join("-" * w for w in widths))
        lines.extend(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(r))
            for r in table
        )
        if not rows:
            lines.append("(no iterations recorded)")
        return "\n".join(lines)


def _jsonable(obj: Any):
    """JSON fallback: enums by value, NumPy scalars by item."""
    value = getattr(obj, "value", None)
    if value is not None and isinstance(value, (str, int, float)):
        return value
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    return str(obj)
