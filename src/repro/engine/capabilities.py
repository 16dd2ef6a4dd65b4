"""What runs with what: the one table of ``run()`` switch combinations.

Whether a *program* may take an execution path is the paper's question
(``fallback_reasons``, ``push_fallback_reasons``, ``check_delta_program``).
This module states which switches each mode accepts — one frozen
:class:`Row` per mode, one :class:`Cell` per axis, a few rules across
axes — and :func:`check` applies it before any engine starts, for
``run()``, service admission and the CLI, refusing with :class:`Refused`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from types import MappingProxyType

__all__ = ["MODES", "FALLBACK_MODES", "DIRECTIONS", "SCHEDULINGS", "ROWS",
           "Cell", "Row", "Refused", "check", "lookup", "positive",
           "residency_of", "render"]

#: every execution model ``run(mode=...)`` knows
MODES = ("sync", "deterministic", "chromatic", "nondeterministic",
         "pure-async", "delta")
#: the deterministic engines a degradation policy may finish on
FALLBACK_MODES = ("chromatic", "sync", "deterministic")
DIRECTIONS = ("pull", "push", "auto")
#: how the delta engine dispatches residuals
SCHEDULINGS = ("frontier", "priority")


class Refused(ValueError):
    """A request the capability table refuses; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class Cell:
    """The values of one axis a mode accepts; others get ``reason``."""

    accepts: tuple
    reason: str


@dataclass(frozen=True)
class Row:
    """One mode's cells, one per axis (``None`` accepts every value), in
    the order :func:`lookup` checks them; README explains the values."""

    service: Cell | None = None
    vectorized: Cell | None = None
    backend: Cell | None = None
    direction: Cell | None = None
    residency: Cell | None = None
    robustness: Cell | None = None
    metrics: Cell | None = None
    observer: Cell | None = None
    state: Cell | None = None
    delta_knobs: Cell | None = None


_AXES = tuple(f.name for f in fields(Row))

_VECTORIZED = Cell((False,), "vectorized= applies to mode='nondeterministic', "
                             "'sync', 'chromatic' or 'deterministic' only")
_BACKEND = Cell((None,), "backend='process' applies to "
                         "mode='nondeterministic' only")
_PULL = Cell(("pull",), "direction= applies to mode='nondeterministic', "
                        "'sync', 'chromatic' or 'deterministic' only")
_IN_RAM = Cell(("DiGraph",), "out-of-core execution (a ShardStore graph) "
               "supports mode='nondeterministic' only (a degradation "
               "fallback to another mode needs an in-memory graph)")
_NO_DELTA_KNOBS = Cell((False,), "mutations=, delta_threshold= and "
                       "delta_scheduling= apply to mode='delta' only (the "
                       "incremental engine repairs the standing result; "
                       "other modes recompute)")
_RACE_FREE = Row(backend=_BACKEND, residency=_IN_RAM,
                 delta_knobs=_NO_DELTA_KNOBS)
#: EngineConfig switches mode='delta' has nothing to apply to
_DELTA_REFUSES = {
    "fp_noise": "fp_noise does not apply to mode='delta': it permutes "
                "the gather order of update(), and delta runs no update()",
    "keep_conflict_events": "keep_conflict_events does not apply to "
                            "mode='delta': it counts racing combines but "
                            "records no individual conflict events",
    "validate_scope": "validate_scope does not apply to mode='delta': it "
                      "checks update()'s edge accesses, and delta runs no "
                      "update()",
}

#: mode -> its row; the table itself
ROWS = MappingProxyType({
    "sync": _RACE_FREE,
    "deterministic": _RACE_FREE,
    "chromatic": _RACE_FREE,
    "nondeterministic": Row(delta_knobs=_NO_DELTA_KNOBS),
    "pure-async": Row(
        service=Cell((False,), "pure-async is barrier-free: no consistent "
                     "cut to checkpoint, so the service cannot make it "
                     "crash-safe"),
        vectorized=_VECTORIZED, backend=_BACKEND, direction=_PULL,
        residency=_IN_RAM,
        robustness=Cell(("none", "interrupt", "faults"), "the pure-async "
                        "engine is barrier-free: there is no consistent cut "
                        "to checkpoint or resume from"),
        metrics=Cell((False,), "metrics= does not apply to "
                     "mode='pure-async': it has no iteration barrier to "
                     "take per-iteration samples at"),
        delta_knobs=_NO_DELTA_KNOBS),
    "delta": Row(
        vectorized=_VECTORIZED, backend=_BACKEND, direction=_PULL,
        residency=_IN_RAM,
        state=Cell((False,), "mode='delta' builds its own (x, Δ, accum) "
                             "state; state= is not supported")),
})


def lookup(mode: str, **values) -> None:
    """Raise :class:`Refused` for an unknown ``mode``, or for the first
    axis (in :class:`Row` order) whose value ``mode``'s row refuses."""
    row = ROWS.get(mode)
    if row is None:
        raise Refused(f"unknown mode {mode!r}; choose from {sorted(MODES)}")
    for axis in filter(values.__contains__, _AXES):
        cell = getattr(row, axis)
        if cell is not None and values[axis] not in cell.accepts:
            raise Refused(cell.reason)


def residency_of(graph) -> str:
    """The ``residency`` axis value of ``graph``."""
    from ..storage.shards import ShardStore  # lazy: pulls the container

    return "ShardStore" if isinstance(graph, ShardStore) else "DiGraph"


def positive(name: str, value) -> None:
    """Refuse a run bound that is not a positive number (an integer but
    for ``deadline_s``) before it confuses an engine loop."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise Refused(f"{name} must be a positive number, got {value!r} "
                      f"({type(value).__name__})")
    if value != value or value <= 0:  # NaN or non-positive
        raise Refused(f"{name} must be > 0, got {value!r}")
    if name != "deadline_s" and float(value) != int(value):
        raise Refused(f"{name} must be a positive integer, got {value!r}")


def check(program, graph, spec, *, service: bool = False):
    """``spec`` (a :class:`~repro.engine.spec.RunSpec`) normalized, or
    :class:`Refused`; ``service`` judges it as a service job.  Given
    ``program``, an array path without object-engine fallback
    (``vectorized="require"``, the process backend, a ShardStore,
    ``direction="push"``) is also refused for the program/config
    eligibility reasons."""
    if spec.vectorized == "" or spec.backend == "":
        spec = replace(spec, vectorized=(False if spec.vectorized == ""
                                         else spec.vectorized),
                       backend=None if spec.backend == "" else spec.backend)
    for name, values in (("vectorized", (False, True, "require")),
                         ("backend", (None, "process")),
                         ("direction", DIRECTIONS),
                         ("delta_scheduling", SCHEDULINGS)):
        if getattr(spec, name) not in values:
            raise Refused(f"{name}={getattr(spec, name)!r} not understood: "
                          "use " + ", ".join(map(repr, values)))
    record = spec.record
    if not (record is None or record is True or isinstance(record, (
            str, bytes)) or hasattr(record, "begin_engine_run")
            or hasattr(record, "__fspath__")):
        raise Refused(f"record={record!r} not understood: use a Recorder, "
                      "a trace path, or True")
    if spec.supervisor is not None \
            and replace(spec, supervisor=None).robustness != "none":
        raise Refused("pass either supervisor= or the fault-tolerance "
                      "kwargs (faults=/watchdog=/policy=/checkpoint=/"
                      "resume_from=/deadline_s=/interrupt=), not both")
    residency = residency_of(graph)
    lookup(spec.mode, service=bool(service), vectorized=spec.vectorized,
           backend=spec.backend, direction=spec.direction,
           residency=residency, robustness=spec.robustness,
           metrics=spec.metrics is not None,
           observer=spec.observer is not None, state=spec.state is not None,
           delta_knobs=(spec.mutations is not None
                        or spec.delta_threshold is not None
                        or spec.delta_scheduling != "frontier"))
    for name, reason in _DELTA_REFUSES.items():
        if spec.mode == "delta" and getattr(spec.config, name, False):
            raise Refused(reason)
    if spec.backend is not None and spec.vectorized:
        raise Refused("pass either backend='process' or vectorized=, not "
                      "both (the process backend runs the vectorized "
                      "kernels already)")
    for name, value in (("max_iterations", getattr(spec.config,
                                                   "max_iterations", 1)),
                        ("deadline_s", 1 if spec.deadline_s is None
                         else spec.deadline_s),
                        ("checkpoint_every", spec.checkpoint_every)):
        positive(name, value)
    # Direction is a fast-path concept: the interpreting object engine
    # has no dense/sparse distinction, so a non-default direction must
    # not silently run it.
    if spec.direction != "pull" and spec.backend is None \
            and not spec.vectorized:
        spec = replace(spec, vectorized="require")
    path = ("the process backend" if spec.backend is not None
            else "a ShardStore graph" if residency == "ShardStore"
            else "vectorized='require'" if spec.vectorized == "require"
            else None)
    if program is not None and spec.mode != "delta" \
            and (path or spec.vectorized):
        from .config import EngineConfig
        from .nondet_core import check_eligible, fallback_reasons

        config = spec.config or EngineConfig()
        if path or not fallback_reasons(program, config, spec.mode, record):
            check_eligible(program, config, spec.direction,
                           path or "the vectorized fast path", spec.mode,
                           record, fp_noise=not spec.backend
                           and residency == "DiGraph")
    return spec


def render() -> str:
    """The table as markdown, one row per mode (README's "What runs with
    what" block): ``yes`` accepts every value, ``no`` only the default,
    a list only the values listed."""
    def show(cell: Cell | None) -> str:
        if cell is None or cell.accepts in ((False,), (None,)):
            return "yes" if cell is None else "no"
        return ", ".join(str(v) for v in cell.accepts)

    lines = ["| mode | " + " | ".join(_AXES) + " |",
             "|---" * (len(_AXES) + 1) + "|"]
    lines += [f"| `{mode}` | " + " | ".join(
        show(getattr(ROWS[mode], a)) for a in _AXES) + " |"
        for mode in MODES]
    return "\n".join(lines)
