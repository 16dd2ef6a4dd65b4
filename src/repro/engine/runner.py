"""Unified front-end for executing a program with any of the engines."""

from __future__ import annotations

from ..graph import DiGraph
from .capabilities import check, residency_of
from .config import EngineConfig
from .chromatic import ChromaticEngine
from .gauss_seidel import DeterministicEngine
from .nondet_engine import NondeterministicEngine
from .pure_async import PureAsyncEngine
from .program import VertexProgram
from .result import RunResult
from .state import State
from .sync_engine import SynchronousEngine

__all__ = ["run", "dispatch", "ENGINES"]

#: mode -> object engine, for every mode but ``"delta"`` (``run_delta``)
ENGINES = {engine.mode: engine for engine in (
    SynchronousEngine, DeterministicEngine, ChromaticEngine,
    NondeterministicEngine, PureAsyncEngine)}


def run(
    program: VertexProgram,
    graph: DiGraph,
    *,
    mode: str = "nondeterministic",
    config: EngineConfig | None = None,
    state: State | None = None,
    observer=None,
    vectorized: bool | str = False,
    backend: str | None = None,
    direction: str = "pull",
    telemetry=None,
    metrics=None,
    record=None,
    supervisor=None,
    faults=None,
    watchdog=None,
    policy=None,
    checkpoint=None,
    checkpoint_every: int = 1,
    resume_from=None,
    deadline_s: float | None = None,
    interrupt=None,
    mutations=None,
    delta_threshold: float | None = None,
    delta_scheduling: str = "frontier",
    **config_kwargs,
) -> RunResult:
    """Execute ``program`` on ``graph`` under the chosen execution model.

    Which switches compose with which mode is the capability table's
    (:mod:`repro.engine.capabilities`, README "What runs with what"),
    checked once before any engine starts: a refused combination raises
    :class:`~repro.engine.capabilities.Refused` (a ``ValueError``)
    carrying the reason.

    Parameters
    ----------
    mode:
        ``"sync"`` — BSP (Theorem 1's premise); ``"deterministic"`` —
        sequential asynchronous Gauss–Seidel, the paper's DE baseline;
        ``"chromatic"`` — deterministic parallel execution by color
        classes; ``"nondeterministic"`` — the simulated racy parallel
        executor (the paper's NE); ``"pure-async"`` — barrier-free
        autonomous scheduling (the paper's future-work model);
        ``"delta"`` — the delta-accumulative incremental engine.
    config:
        Full :class:`EngineConfig`, or its fields as keyword arguments.
    state:
        Resume from an existing state instead of the program's initial one.
    observer:
        ``observer(iteration, state, next_schedule)``, called at every
        iteration barrier with the same trajectory on every path.
    vectorized:
        ``True`` takes the NumPy array path
        (:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine`,
        on the mode's plan) when the program/config is eligible, else the
        bit-identical object engine with a ``vectorized_fallback`` event;
        ``"require"`` refuses instead, listing the reasons.
    backend:
        ``"process"`` runs the vectorized model across ``config.threads``
        OS worker processes over shared memory
        (:class:`~repro.engine.nondet_parallel.ParallelEngine`),
        bit-identical at any worker count.  Worker death raises
        :class:`~repro.robust.errors.WorkerDied`, which the supervised
        retry loop recovers like a worker timeout.
    direction:
        Strategy of the array paths, bit-identical in every value:
        ``"pull"`` runs the dense whole-graph masks, ``"push"`` each
        iteration over the frontier's touched edges (the kernel's
        ``push_combines`` must pass the §IV push-eligibility check),
        ``"auto"`` picks per iteration (Beamer heuristic,
        ``config.direction_alpha`` / ``direction_beta``; pull for
        push-ineligible programs).
    telemetry:
        Optional :class:`~repro.obs.Telemetry` sink: one span per
        iteration (per-thread work, conflict classes, frontier size, wall
        time) plus run metadata and fallback events.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`: per-iteration phase
        timers, conflict/update counters and iteration-latency histograms
        labelled ``mode="object"`` / ``"vectorized"`` / ``"delta"``,
        accumulated across runs and processes.  With ``telemetry=`` too,
        a ``{"type": "metrics"}`` snapshot precedes ``run_end``.
    record:
        Flight recorder of race provenance — per contended edge access
        ``(iteration, edge, writer, committer, Def. 1–3 order, Lemma-1/2
        rule, value committed, values lost)``: a
        :class:`~repro.obs.Recorder`, a path to stream JSONL to, or
        ``True`` for an in-memory conflicts-only recorder.
    supervisor:
        A pre-built :class:`~repro.robust.Supervisor`, for callers
        driving the fault-tolerance layer manually.
    faults:
        A :class:`~repro.robust.FaultPlan`, a list of
        :class:`~repro.robust.Fault`, or a spec such as ``"crash@3;torn@5"``.
    watchdog:
        A :class:`~repro.robust.ConvergenceWatchdog` (stalls, Theorem-2
        oscillation, deadline breaches).
    policy:
        A :class:`~repro.robust.DegradationPolicy`: restart budget,
        backoff, atomicity escalation, deterministic fallback engine.
    checkpoint / checkpoint_every:
        Path of the barrier checkpoint written every ``checkpoint_every``
        iterations (atomically, last one wins).
    resume_from:
        Checkpoint to continue from, bit-identically; with no explicit
        ``config`` the checkpointed one is adopted.
    deadline_s:
        Wall-clock budget; a breach goes through the degradation policy.
    interrupt:
        Zero-argument callable polled at every barrier after its
        checkpoint: a truthy return (the reason) raises
        :class:`~repro.robust.RunInterrupted`, so resuming continues
        bit-identically (the service's drain and cancel).

    ``None`` sinks cost one pointer check per iteration.  Any of
    ``faults``/``watchdog``/``policy``/``checkpoint``/``resume_from``/
    ``deadline_s``/``interrupt`` routes the run through
    :func:`repro.robust.supervised_run` (the retry loop); a bare
    ``supervisor=`` only installs the hooks.

    Examples
    --------
    >>> from repro.graph import generators
    >>> from repro.algorithms import WeaklyConnectedComponents
    >>> g = generators.path_graph(8)
    >>> res = run(WeaklyConnectedComponents(), g, mode="nondeterministic",
    ...           threads=4, seed=1)
    >>> res.converged
    True
    """
    vectorized, backend, supervised = check(
        program, graph, mode=mode, config=config, state=state,
        observer=observer, vectorized=vectorized, backend=backend,
        direction=direction, metrics=metrics, record=record,
        supervisor=supervisor, faults=faults, watchdog=watchdog,
        policy=policy, checkpoint=checkpoint,
        checkpoint_every=checkpoint_every, resume_from=resume_from,
        deadline_s=deadline_s, interrupt=interrupt, mutations=mutations,
        delta_threshold=delta_threshold, delta_scheduling=delta_scheduling,
        **config_kwargs)
    # record=True: an in-memory recorder; a path: stream JSONL there.
    if record is not None and not hasattr(record, "begin_engine_run"):
        from ..obs import Recorder

        record = Recorder() if record is True else Recorder(trace_path=record)
    explicit_config = config is not None or bool(config_kwargs)
    config = config or EngineConfig(**config_kwargs)
    if mode == "delta":
        from .nondet_delta import run_delta

        return run_delta(
            program, graph, config, telemetry=telemetry, record=record,
            metrics=metrics, scheduling=delta_scheduling,
            threshold=delta_threshold, mutations=mutations, interrupt=interrupt,
        )
    if supervised:
        # Imported lazily: the robust layer pulls in the storage package.
        from ..robust.supervisor import supervised_run

        return supervised_run(
            program, graph, mode=mode,
            # With no explicit config, let resume adopt the checkpointed
            # one instead of silently overriding it with defaults.
            config=config if explicit_config else None,
            state=state, observer=observer, vectorized=vectorized,
            backend=backend, direction=direction, telemetry=telemetry,
            metrics=metrics, record=record,
            faults=faults, watchdog=watchdog, policy=policy,
            checkpoint=checkpoint, checkpoint_every=checkpoint_every,
            resume_from=resume_from, deadline_s=deadline_s,
            interrupt=interrupt,
        )
    return dispatch(
        program, graph, mode=mode, config=config, state=state,
        observer=observer, vectorized=vectorized, backend=backend,
        direction=direction, telemetry=telemetry, metrics=metrics,
        record=record, supervisor=supervisor,
    )


def dispatch(program: VertexProgram, graph, *, mode: str,
             config: EngineConfig, state=None, observer=None,
             vectorized: bool | str = False, backend: str | None = None,
             direction: str = "pull", telemetry=None, metrics=None,
             record=None, supervisor=None) -> RunResult:
    """One attempt on the engine the (already checked and normalized)
    switches pick: ShardStore → process backend → vectorized fast path →
    object engine.

    Shared by :func:`run` and every attempt of
    :func:`repro.robust.supervised_run`, so a supervised run reaches
    exactly the engines — and the ``direction=`` / ``metrics=`` plumbing
    — a bare one does.
    """
    # Out-of-core dispatch: a ShardStore stands in for the graph and
    # routes the run through its interval-sliced runner (always the
    # vectorized execution model; backend="process" fans the intervals
    # out to its worker pool).
    if residency_of(graph) == "ShardStore":
        return graph.nondet_runner().run(
            program, config, state=state, observer=observer,
            telemetry=telemetry, record=record, supervisor=supervisor,
            backend=backend, metrics=metrics,
        )
    if backend == "process":
        # Imported lazily: the backend pulls in multiprocessing + shm.
        from .nondet_parallel import ParallelEngine

        return ParallelEngine().run(
            program, graph, config, state=state, observer=observer,
            telemetry=telemetry, record=record, supervisor=supervisor,
            direction=direction, metrics=metrics,
        )
    if vectorized:
        # Imported lazily: the fast path pulls in the kernel registry.
        from .nondet_vectorized import VectorizedNondetEngine, fallback_reasons

        reasons = fallback_reasons(program, config, mode, record)
        # "require" was checked up front; an ineligible config only
        # arrives here adopted from a checkpoint, and the engine refuses it.
        if not reasons or vectorized == "require":
            return VectorizedNondetEngine().run(
                program, graph, config, state=state, observer=observer,
                telemetry=telemetry, record=record, supervisor=supervisor,
                direction=direction, metrics=metrics, mode=mode,
            )
        if telemetry is not None:
            telemetry.event("vectorized_fallback", reasons=reasons)
    return ENGINES[mode]().run(
        program, graph, config, state=state, observer=observer,
        telemetry=telemetry, record=record, supervisor=supervisor,
        metrics=metrics)
