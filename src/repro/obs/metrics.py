"""Labeled metrics registry and the phase-timer clock.

:class:`~repro.obs.telemetry.Telemetry` answers "what happened during
*this* run" — a span per iteration, buffered or streamed.  This module
answers the complementary operational questions: *where does the time
go* (fixed phase timers, see :data:`PHASES`) and *what are the standing
totals* across runs and across processes (labeled counters, gauges, and
fixed-bucket histograms, Prometheus-style).

Design constraints, matching the telemetry contract:

1. **Near-zero cost when disabled.**  Engines hold a ``metrics``
   reference that is ``None`` by default; every recording site runs at
   iteration granularity (never per update or per edge), behind one
   ``if metrics is not None``.  A perfsmoke floor bounds the attached
   cost at ≤ 1.05× of a bare run.
2. **Mergeable across processes.**  A registry serializes to a plain
   JSON :meth:`~MetricsRegistry.snapshot` and merges snapshots from
   other processes with well-defined semantics: counters and histogram
   buckets are **summed** (they carry deltas/totals), gauges are
   **last-write-wins** (they carry point-in-time readings) — so
   per-worker gauges should carry a ``worker`` label instead of relying
   on merge order.  The process-backend master applies exactly these
   semantics when it folds worker counter deltas at the commit barrier.
3. **Exposition, not enforcement.**  :meth:`to_prometheus` renders the
   standard text format; :meth:`to_json` the same data as JSON; and
   :meth:`Telemetry.metrics_snapshot` embeds a ``{"type": "metrics"}``
   record in a JSONL trace stream, which every trace reader
   (``read_trace`` / ``stats_from_trace`` / ``lint_trace``) passes
   through untouched — unknown record types are forward-compatible by
   design.

Phase timers
------------
The engines account each iteration's wall time to a fixed phase
vocabulary (:data:`PHASES`) via a :class:`PhaseClock` — contiguous laps
of one monotonic clock, so the per-iteration phase dict sums to the
span's wall time up to a handful of uninstrumented statements (the
acceptance bound is 5%).  ``shard_io`` is the out-of-core runner's lap
zeroing the mapped outputs at every barrier.
"""

from __future__ import annotations

import bisect
import json
import resource
import sys
import time

__all__ = [
    "DEFAULT_TIME_BUCKETS",
    "PHASES",
    "Histogram",
    "LabeledCounter",
    "LabeledGauge",
    "MetricsRegistry",
    "PhaseClock",
    "peak_rss_bytes",
    "record_iteration_metrics",
]

#: The fixed phase vocabulary, in canonical display order.
#:
#: ``plan_build``    dispatch plan / Defs. 1–3 predicate construction
#: ``gather``        dense pull pass(es): kernel over the active set
#: ``push_scatter``  sparse push pass(es): kernel over frontier edges
#: ``repair_pass``   fix-point repairs: seen recompute + dirty re-runs
#: ``lemma2_commit`` commit barrier: Lemma-2 winners, conflict totals
#: ``barrier_wait``  blocked on an inter-process iteration barrier
#: ``shm_sync``      publishing plan/state into the shared segment
#: ``shard_io``      out-of-core scratch traffic outside the kernel passes
#: ``delta_commit``  delta engine: fold pending Δ into (x, accum)
#: ``delta_propagate`` delta engine: scatter g(Δ) to neighbour residuals
#: ``mutate_repair`` delta engine: incremental repair of a mutation batch
PHASES = (
    "plan_build",
    "gather",
    "push_scatter",
    "repair_pass",
    "lemma2_commit",
    "barrier_wait",
    "shm_sync",
    "shard_io",
    "delta_commit",
    "delta_propagate",
    "mutate_repair",
)

#: Default histogram buckets for phase seconds (upper bounds; +Inf is
#: implicit).  Log-ish spacing from 0.1 ms to 30 s covers everything
#: from a scale-8 iteration to a scale-20 out-of-core sweep.
DEFAULT_TIME_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)


def peak_rss_bytes() -> int:
    """Process-lifetime resident-set high-water mark, in bytes.

    ``ru_maxrss`` is monotone over the process life, so a per-iteration
    reading is "the peak so far", not the iteration's own footprint.
    Darwin reports bytes; Linux reports KiB.
    """
    ru = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(ru) * (1 if sys.platform == "darwin" else 1024)


class PhaseClock:
    """Contiguous phase laps of one monotonic clock.

    ``lap(phase)`` charges everything since the previous lap (or
    :meth:`start`) to ``phase``; because laps are contiguous, the drained
    dict sums to the bracketed wall time exactly.  ``split`` moves a
    separately-measured sub-interval (file I/O) from the phase that
    contained it into its own phase without breaking that invariant.
    """

    __slots__ = ("_t", "_t0", "acc")

    def __init__(self):
        self.acc: dict[str, float] = {}
        self._t = self._t0 = time.perf_counter()

    def start(self) -> None:
        """Reset the lap and wall origins (at the top of an iteration)."""
        self._t = self._t0 = time.perf_counter()

    def elapsed(self) -> float:
        """Wall seconds since :meth:`start`, less any :meth:`exclude`."""
        return time.perf_counter() - self._t0

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` just spent out of the next lap and of
        :meth:`elapsed`: work another iteration's span is charged."""
        self._t += seconds
        self._t0 += seconds

    def lap(self, phase: str) -> None:
        now = time.perf_counter()
        self.acc[phase] = self.acc.get(phase, 0.0) + (now - self._t)
        self._t = now

    def add(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` measured elsewhere (no lap-origin change)."""
        self.acc[phase] = self.acc.get(phase, 0.0) + seconds

    def split(self, phase: str, sub_phase: str, seconds: float) -> None:
        """Re-assign ``seconds`` of the last ``phase`` lap to ``sub_phase``."""
        if seconds <= 0.0:
            return
        self.acc[phase] = self.acc.get(phase, 0.0) - seconds
        self.acc[sub_phase] = self.acc.get(sub_phase, 0.0) + seconds

    def drain(self) -> dict[str, float]:
        """Return the accumulated phase dict and reset the accumulator."""
        out = self.acc
        self.acc = {}
        self._t = time.perf_counter()
        return out


class NoClock(PhaseClock):
    """The clock of an unprofiled run: its laps record nothing, and it
    tests False, so work done only for a profile asks ``if clock:``."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def _untimed(self, *args) -> None:
        pass

    start = exclude = lap = add = split = _untimed


#: The one :class:`NoClock`.
NO_CLOCK = NoClock()


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class LabeledCounter:
    """Monotone counter for one ``(name, labels)`` series."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {n})")
        self.value += n


class LabeledGauge:
    """Point-in-time measurement for one ``(name, labels)`` series."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram for one ``(name, labels)`` series.

    ``buckets`` are upper bounds in strictly increasing order; a final
    +Inf bucket is implicit.  ``counts[i]`` is the number of
    observations with ``value <= buckets[i]`` **exclusive of smaller
    buckets** (per-bucket, not cumulative — exposition cumulates).
    """

    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, labels: dict, buckets):
        bs = tuple(float(b) for b in buckets)
        if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError(
                f"histogram {name} buckets must be strictly increasing "
                f"and non-empty: {bs}")
        self.name = name
        self.labels = labels
        self.buckets = bs
        self.counts = [0] * (len(bs) + 1)  # last slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        self.counts[bisect.bisect_left(self.buckets, v)] += 1
        self.sum += v
        self.count += 1

    def cumulative(self) -> list[int]:
        """Prometheus-style cumulative bucket counts (ends at ``count``)."""
        out, running = [], 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """A process-local set of labeled metric series.

    ``counter("x", mode="ne").inc()`` creates/looks up the series on
    first use; the ``(name, sorted-labels)`` pair is the identity.  A
    name must keep one metric kind (and, for histograms, one bucket
    layout) for its whole life — mixing kinds raises.
    """

    def __init__(self):
        self._series: dict[tuple, object] = {}
        self._kinds: dict[str, str] = {}
        self._buckets: dict[str, tuple] = {}

    # -- series access -------------------------------------------------
    def _get(self, kind: str, name: str, labels: dict, factory):
        seen = self._kinds.get(name)
        if seen is None:
            self._kinds[name] = kind
        elif seen != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {seen}, "
                f"requested as a {kind}")
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = factory()
        return series

    def counter(self, name: str, **labels) -> LabeledCounter:
        return self._get("counter", name, labels,
                         lambda: LabeledCounter(name, labels))

    def gauge(self, name: str, **labels) -> LabeledGauge:
        return self._get("gauge", name, labels,
                         lambda: LabeledGauge(name, labels))

    def histogram(self, name: str, *, buckets=DEFAULT_TIME_BUCKETS,
                  **labels) -> Histogram:
        bs = tuple(float(b) for b in buckets)
        seen = self._buckets.get(name)
        if seen is None:
            self._buckets[name] = bs
        elif seen != bs:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{seen}, requested {bs}")
        return self._get("histogram", name, labels,
                         lambda: Histogram(name, labels, bs))

    def series(self):
        """All registered series, in deterministic (name, labels) order."""
        return [self._series[k] for k in sorted(self._series)]

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """The registry as one JSON-safe ``{"type": "metrics"}`` record.

        Embedding this in a JSONL trace is safe for every reader:
        ``stats_from_trace`` / ``summarize_trace`` / ``lint_trace`` pass
        unknown record types through untouched.
        """
        counters, gauges, histograms = [], [], []
        for s in self.series():
            if isinstance(s, LabeledCounter):
                counters.append({"name": s.name, "labels": dict(s.labels),
                                 "value": s.value})
            elif isinstance(s, LabeledGauge):
                gauges.append({"name": s.name, "labels": dict(s.labels),
                               "value": s.value})
            else:
                histograms.append({
                    "name": s.name, "labels": dict(s.labels),
                    "buckets": list(s.buckets), "counts": list(s.counts),
                    "sum": s.sum, "count": s.count,
                })
        return {"type": "metrics", "counters": counters, "gauges": gauges,
                "histograms": histograms}

    def merge(self, other: "MetricsRegistry | dict") -> None:
        """Fold another registry (or its snapshot) into this one.

        Counters and histogram buckets are summed; gauges are
        last-write-wins (the merged-in value overwrites).  This is the
        cross-process contract: workers ship snapshots (or the engines
        ship shared-array deltas), the master folds them, and per-worker
        series stay distinguishable only through labels.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for rec in snap.get("counters", ()):
            self.counter(rec["name"], **rec["labels"]).inc(rec["value"])
        for rec in snap.get("gauges", ()):
            self.gauge(rec["name"], **rec["labels"]).set(rec["value"])
        for rec in snap.get("histograms", ()):
            h = self.histogram(rec["name"], buckets=rec["buckets"],
                               **rec["labels"])
            counts = rec["counts"]
            if len(counts) != len(h.counts):
                raise ValueError(
                    f"histogram {rec['name']!r} snapshot has "
                    f"{len(counts)} buckets, registry has {len(h.counts)}")
            for i, c in enumerate(counts):
                h.counts[i] += int(c)
            h.sum += float(rec["sum"])
            h.count += int(rec["count"])

    # -- exposition ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def to_prometheus(self) -> str:
        """Render the Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        typed: set[str] = set()
        for s in self.series():
            kind = self._kinds[s.name]
            if s.name not in typed:
                lines.append(f"# TYPE {s.name} {kind}")
                typed.add(s.name)
            if isinstance(s, Histogram):
                cum = s.cumulative()
                for ub, c in zip(s.buckets, cum):
                    lines.append(
                        f"{s.name}_bucket"
                        f"{_prom_labels(s.labels, le=_prom_float(ub))} {c}")
                lines.append(
                    f"{s.name}_bucket{_prom_labels(s.labels, le='+Inf')} "
                    f"{s.count}")
                lines.append(
                    f"{s.name}_sum{_prom_labels(s.labels)} {_prom_float(s.sum)}")
                lines.append(
                    f"{s.name}_count{_prom_labels(s.labels)} {s.count}")
            else:
                lines.append(
                    f"{s.name}{_prom_labels(s.labels)} {_prom_float(s.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _prom_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _prom_escape(v: str) -> str:
    return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _prom_labels(labels: dict, **extra: str) -> str:
    items = sorted({**{k: str(v) for k, v in labels.items()}, **extra}.items())
    if not items:
        return ""
    body = ",".join(f'{k}="{_prom_escape(v)}"' for k, v in items)
    return "{" + body + "}"


def record_iteration_metrics(metrics: MetricsRegistry, mode: str, *,
                             phases: dict | None, num_active: int,
                             frontier_size: int, read_write: int,
                             write_write: int,
                             wall_time_s: float) -> None:
    """One engine iteration's standing totals, at iteration granularity.

    Shared by all four nondeterministic backends so the series names
    stay uniform: phase seconds land in the
    ``repro_phase_seconds_total`` counters and the
    ``repro_phase_seconds`` histograms (labeled by phase and mode),
    iteration/update/conflict totals in ``repro_*_total``, the live
    frontier size and RSS peak in gauges.
    """
    metrics.counter("repro_iterations_total", mode=mode).inc()
    metrics.counter("repro_updates_total", mode=mode).inc(num_active)
    metrics.counter("repro_conflicts_total", mode=mode,
                    kind="read_write").inc(read_write)
    metrics.counter("repro_conflicts_total", mode=mode,
                    kind="write_write").inc(write_write)
    metrics.histogram("repro_iteration_seconds", mode=mode).observe(wall_time_s)
    metrics.gauge("repro_frontier_size", mode=mode).set(frontier_size)
    metrics.gauge("repro_peak_rss_bytes", mode=mode).set(peak_rss_bytes())
    if phases:
        for phase, dt in phases.items():
            metrics.counter("repro_phase_seconds_total", mode=mode,
                            phase=phase).inc(max(dt, 0.0))
            metrics.histogram("repro_phase_seconds", mode=mode,
                              phase=phase).observe(dt)
