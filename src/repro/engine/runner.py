"""Unified front-end for executing a program with any of the engines."""

from __future__ import annotations

from typing import Literal

from ..graph import DiGraph
from .config import EngineConfig
from .chromatic import ChromaticEngine
from .gauss_seidel import DeterministicEngine
from .nondet_engine import NondeterministicEngine
from .pure_async import PureAsyncEngine
from .program import VertexProgram
from .result import RunResult
from .state import State
from .sync_engine import SynchronousEngine

__all__ = ["Mode", "run", "dispatch", "ENGINES"]

Mode = Literal[
    "sync", "deterministic", "chromatic", "nondeterministic", "pure-async",
    "delta"
]

ENGINES = {
    "sync": SynchronousEngine,
    "deterministic": DeterministicEngine,
    "chromatic": ChromaticEngine,
    "nondeterministic": NondeterministicEngine,
    "pure-async": PureAsyncEngine,
}


def _require_positive(name: str, value, *, integer: bool = False) -> None:
    """Reject non-numeric and <= 0 values with a clear error, up front.

    Without this, a bad ``max_iterations``/``deadline_s``/
    ``checkpoint_every`` surfaces as a confusing comparison error deep
    inside an engine loop (or worse, silently never checkpoints).
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"{name} must be a positive number, got {value!r} "
            f"({type(value).__name__})"
        )
    if value != value or value <= 0:  # NaN or non-positive
        raise ValueError(f"{name} must be > 0, got {value!r}")
    if integer and float(value) != int(value):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def run(
    program: VertexProgram,
    graph: DiGraph,
    *,
    mode: Mode = "nondeterministic",
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

    Parameters
    ----------
    mode:
        ``"sync"`` — BSP (Theorem 1's premise);
        ``"deterministic"`` — sequential asynchronous Gauss–Seidel, the
        paper's DE baseline (external deterministic scheduler);
        ``"chromatic"`` — deterministic *parallel* asynchronous execution
        via color classes (the related-work chromatic scheduler);
        ``"nondeterministic"`` — the simulated racy parallel executor
        (the paper's NE);
        ``"pure-async"`` — barrier-free asynchronous executor with
        autonomous scheduling (the paper's future-work model);
        ``"delta"`` — the delta-accumulative incremental engine.
    config:
        Full :class:`EngineConfig`; alternatively pass individual fields
        as keyword arguments (``threads=8, seed=3, ...``).
    state:
        Resume from an existing state instead of the program's initial
        one (used by the convergence-chain tracer).
    observer:
        Optional callback ``observer(iteration, state, next_schedule)``
        invoked at every iteration barrier, with the same trajectory on
        every path.
    vectorized:
        Nondeterministic, sync or deterministic mode.  ``True`` takes the
        NumPy array path
        (:class:`~repro.engine.nondet_vectorized.VectorizedNondetEngine`;
        the mode picks its plan: NE's ``P`` threads, BSP's barrier plan,
        DE's one thread) when the program has a registered kernel and the
        configuration is eligible, else the object engine — the oracle —
        with a ``vectorized_fallback`` telemetry event; both are
        bit-identical.  ``"require"`` raises instead, listing the
        reasons.  ``False`` (default) or ``""`` use the object engine in
        every mode; any other string is rejected.
    backend:
        Nondeterministic mode only.  ``"process"`` executes the
        vectorized model across ``config.threads`` OS worker processes
        over shared memory
        (:class:`~repro.engine.nondet_parallel.ParallelEngine`),
        bit-identical at any worker count; an ineligible program/config
        raises, listing the reasons (no fallback).  Mutually exclusive
        with ``vectorized=``; ``None``/``""`` mean in-process engines.
        Worker death raises :class:`~repro.robust.errors.WorkerDied`,
        which the supervised retry loop recovers like a worker timeout.
    direction:
        The direction-optimizing execution strategy of the array paths
        (``vectorized=`` in any of its modes, process backend).
        ``"pull"`` (default) runs the dense whole-graph masks;
        ``"push"`` runs every iteration sparsely over the frontier's
        touched edges (out-edges ∪ in-edges of the active set), which
        requires the program's kernel to declare atomic-combine scatter
        semantics (``push_combines``) that pass the §IV push-eligibility
        check — otherwise the run raises, listing the reasons;
        ``"auto"`` picks per iteration with the Beamer-style heuristic
        (``config.direction_alpha`` / ``direction_beta``), pinning pull
        for push-ineligible programs.  Every direction executes the
        *same* iteration, bit for bit (state, trajectory, conflicts,
        provenance): a pure performance knob.  Without
        ``backend="process"``, ``"push"`` / ``"auto"`` imply
        ``vectorized="require"``.  Not composable with ShardStore graphs.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` sink.  Every engine
        (including the vectorized fast path) records one span per
        iteration — per-thread work profile,
        conflict classes, frontier size, wall time — plus run metadata;
        when the vectorized dispatch falls back, the reasons are
        recorded as a ``vectorized_fallback`` event.  ``None`` (the
        default) costs one pointer check per iteration.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`, nondeterministic
        and delta modes only: per-iteration phase timers, conflict/update
        counters and iteration-latency histograms, accumulated *across*
        runs and merged across processes.  With ``telemetry=`` too, a
        ``{"type": "metrics"}`` snapshot precedes ``run_end``.  ``None``
        (the default) costs one pointer check per iteration.
    record:
        Optional flight recorder capturing event-level race provenance:
        every contended edge access becomes a provenance event —
        ``(iteration, edge, writer, committer, Def. 1–3 order,
        Lemma-1/2 rule, value committed, values lost)``.  Accepts a
        :class:`~repro.obs.Recorder` instance, a path (``str`` /
        ``os.PathLike``) to stream JSONL provenance to, or ``True`` for
        an in-memory recorder with the default conflicts-only policy.
        ``None`` (the default) costs one pointer check per commit
        barrier, matching the ``telemetry=`` contract.
    supervisor:
        A pre-built :class:`~repro.robust.Supervisor` hook object, for
        callers driving the fault-tolerance layer manually.  ``None``
        (the default) costs one pointer check per iteration.  Mutually
        exclusive with the convenience kwargs below, which build one.
    faults:
        Fault-injection plan: a :class:`~repro.robust.FaultPlan`, a list
        of :class:`~repro.robust.Fault`, or a spec string such as
        ``"crash@3;torn@5"`` (see :meth:`FaultPlan.from_spec`).
    watchdog:
        A :class:`~repro.robust.ConvergenceWatchdog` monitoring every
        iteration barrier for stalls, Theorem-2 oscillation, and
        deadline breaches.
    policy:
        A :class:`~repro.robust.DegradationPolicy` controlling how
        crashes and watchdog alarms are recovered (restart budget,
        backoff, atomicity escalation, deterministic fallback engine).
    checkpoint / checkpoint_every:
        Path to write a barrier checkpoint to every ``checkpoint_every``
        iterations (atomically, last one wins).
    resume_from:
        Path of a checkpoint to restart from; the run continues
        bit-identically to the uninterrupted execution.  When no
        explicit ``config`` is given the checkpointed one is adopted.
    deadline_s:
        Wall-clock budget for the run; breaches raise through the
        degradation policy.
    interrupt:
        Zero-argument callable polled at every iteration barrier, after
        that barrier's checkpoint and restart token are taken.  A truthy
        return value (the reason string) stops the run by raising
        :class:`~repro.robust.RunInterrupted` — the cooperative stop the
        always-on service uses for graceful drain and job cancellation:
        because the raise happens after the checkpoint, resuming from it
        continues bit-identically.  Routes the run through the
        supervised loop like the other fault-tolerance kwargs.

    Passing any of ``faults``/``watchdog``/``policy``/``checkpoint``/
    ``resume_from``/``deadline_s`` routes the run through
    :func:`repro.robust.supervised_run` (the retry loop); a bare
    ``supervisor=`` only installs the hooks without retry semantics.

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
    # Normalize vectorized= once, up front: booleans pass through, the
    # empty string is a falsy pass-through equivalent to False (and so
    # must be valid for every mode), and the only meaningful string is
    # "require".  Everything downstream sees only False/True/"require".
    if isinstance(vectorized, str):
        if vectorized == "":
            vectorized = False
        elif vectorized != "require":
            raise ValueError(
                f"vectorized={vectorized!r} not understood: use True, False or 'require'"
            )
    # Normalize backend= the same way: None/"" mean in-process engines.
    if backend == "":
        backend = None
    if backend is not None:
        if backend != "process":
            raise ValueError(
                f"backend={backend!r} not understood: use 'process' or None"
            )
        if mode != "nondeterministic":
            raise ValueError(
                "backend='process' applies to mode='nondeterministic' only"
            )
        if vectorized:
            raise ValueError(
                "pass either backend='process' or vectorized=, not both "
                "(the process backend runs the vectorized kernels already)"
            )
    # Normalize record= the same way: None passes through untouched, a
    # Recorder instance is used as-is, True means "in-memory recorder with
    # defaults", and a path means "stream JSONL provenance there".
    if record is not None and not hasattr(record, "begin_engine_run"):
        from ..obs import Recorder

        if record is True:
            record = Recorder()
        elif isinstance(record, (str, bytes)) or hasattr(record, "__fspath__"):
            record = Recorder(trace_path=record)
        else:
            raise ValueError(
                f"record={record!r} not understood: use a Recorder, a trace "
                "path, or True"
            )
    if direction not in ("pull", "push", "auto"):
        raise ValueError(
            f"direction={direction!r} not understood: use 'pull', 'push' or 'auto'"
        )
    if metrics is not None and mode not in ("nondeterministic", "delta"):
        raise ValueError(
            "metrics= applies to mode='nondeterministic' or 'delta' only")
    if direction != "pull" and mode not in (
            "nondeterministic", "sync", "deterministic", "delta"):
        raise ValueError("direction= applies to mode='nondeterministic', "
                         "'sync', 'deterministic' or 'delta' only")
    if mode != "delta":
        if mutations is not None:
            raise ValueError("mutations= applies to mode='delta' only "
                             "(the incremental engine repairs the standing "
                             "result; other modes recompute)")
        if delta_threshold is not None or delta_scheduling != "frontier":
            raise ValueError(
                "delta_threshold=/delta_scheduling= apply to mode='delta' only")
    if direction != "pull" and mode != "delta" and backend is None and not vectorized:
        # Direction is a fast-path concept — the interpreting object
        # engine has no dense/sparse distinction, so a non-default
        # direction must not silently run it.
        vectorized = "require"
    if config is not None and config_kwargs:
        raise ValueError("pass either config= or individual config kwargs, not both")
    # Up-front validation: catch bad run bounds before any engine (or a
    # long supervised retry loop) starts working with them.
    if "max_iterations" in config_kwargs:
        _require_positive("max_iterations", config_kwargs["max_iterations"],
                          integer=True)
    elif config is not None:
        _require_positive("max_iterations", config.max_iterations, integer=True)
    if deadline_s is not None:
        _require_positive("deadline_s", deadline_s)
    robust = any(
        x is not None
        for x in (faults, watchdog, policy, checkpoint, resume_from,
                  deadline_s, interrupt)
    )
    if robust or checkpoint_every != 1:
        _require_positive("checkpoint_every", checkpoint_every, integer=True)
    explicit_config = config is not None or bool(config_kwargs)
    if config is None:
        config = EngineConfig(**config_kwargs)
    if mode == "delta":
        # The delta-accumulative engine: its own execution model, its
        # own (vectorized) loop — the fast-path/backend switches do not
        # apply, and of the robustness kwargs only the cooperative
        # interrupt= composes (no barrier checkpoints yet: a killed
        # delta job re-runs from scratch).
        if vectorized:
            raise ValueError(
                "vectorized= does not apply to mode='delta' (the delta "
                "engine is already array-based)")
        if backend is not None:
            raise ValueError(
                "backend= does not apply to mode='delta' (single-process "
                "engine; parallelism comes from the array model)")
        if observer is not None:
            raise ValueError("mode='delta' does not support observers; "
                             "use telemetry=")
        if state is not None:
            raise ValueError("mode='delta' builds its own (x, Δ, accum) "
                             "state; state= is not supported")
        if direction == "auto":
            raise ValueError(
                "mode='delta' supports direction='pull' or 'push' only "
                "(no per-iteration heuristic for delta dispatch yet)")
        if supervisor is not None or any(
                x is not None for x in (faults, watchdog, policy,
                                        checkpoint, resume_from, deadline_s)):
            raise ValueError(
                "mode='delta' does not compose with the fault-tolerance "
                "kwargs yet (interrupt= is supported)")
        from .nondet_delta import run_delta

        return run_delta(
            program, graph, config, telemetry=telemetry, record=record,
            metrics=metrics, direction=direction,
            scheduling=delta_scheduling, threshold=delta_threshold,
            mutations=mutations, interrupt=interrupt,
        )
    if robust:
        if supervisor is not None:
            raise ValueError(
                "pass either supervisor= or the fault-tolerance kwargs "
                "(faults=/watchdog=/policy=/checkpoint=/resume_from=/"
                "deadline_s=), not both"
            )
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
    """One attempt on the engine the (already normalized) switches pick:
    ShardStore → process backend → vectorized fast path → object engine.

    Shared by :func:`run` and every attempt of
    :func:`repro.robust.supervised_run`, so a supervised run reaches
    exactly the engines — and the ``direction=`` / ``metrics=`` plumbing
    — a bare one does.
    """
    # Out-of-core dispatch: a ShardStore stands in for the graph and
    # routes the run through its interval-sliced runner (always the
    # vectorized execution model; backend="process" fans the intervals
    # out to its worker pool).
    from ..storage.shards import ShardStore  # lazy: pulls the container

    if isinstance(graph, ShardStore):
        if mode != "nondeterministic":
            raise ValueError(
                "out-of-core execution (a ShardStore graph) supports "
                "mode='nondeterministic' only (a degradation fallback to "
                "another mode needs an in-memory graph)"
            )
        if direction != "pull":
            raise ValueError(
                "out-of-core execution (a ShardStore graph) supports "
                "direction='pull' only: its interval slicing is already "
                "the sparse decomposition"
            )
        return graph.nondet_runner().run(
            program, config, state=state, observer=observer,
            telemetry=telemetry, record=record, supervisor=supervisor,
            backend=backend, metrics=metrics,
        )
    try:
        engine_cls = ENGINES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}; choose from {sorted(ENGINES)}") from None
    if backend == "process":
        if mode != "nondeterministic":
            raise ValueError(
                "backend='process' applies to mode='nondeterministic' only"
            )
        # Imported lazily: the backend pulls in multiprocessing + shm.
        from .nondet_parallel import ParallelEngine

        return ParallelEngine().run(
            program, graph, config, state=state, observer=observer,
            telemetry=telemetry, record=record, supervisor=supervisor,
            direction=direction, metrics=metrics,
        )
    if vectorized:
        if mode not in ("nondeterministic", "sync", "deterministic"):
            raise ValueError(
                "vectorized= applies to mode='nondeterministic', 'sync' or "
                "'deterministic' only")
        # Imported lazily: the fast path pulls in the kernel registry.
        from .nondet_vectorized import VectorizedNondetEngine, fallback_reasons

        reasons = fallback_reasons(program, config, mode, record)
        if not reasons:
            return VectorizedNondetEngine().run(
                program, graph, config, state=state, observer=observer,
                telemetry=telemetry, record=record, supervisor=supervisor,
                direction=direction, metrics=metrics, mode=mode,
            )
        if vectorized == "require":
            raise ValueError(
                "vectorized='require' but the fast path is not eligible: "
                + "; ".join(reasons)
            )
        if telemetry is not None:
            telemetry.event("vectorized_fallback", reasons=reasons)
    # metrics= reaches only the nondeterministic object engine here (the
    # mode check above rejects it elsewhere); pure-async doesn't take
    # the kwarg, so pass it conditionally.
    extra_kw = {"metrics": metrics} if metrics is not None else {}
    return engine_cls().run(program, graph, config, state=state, observer=observer,
                            telemetry=telemetry, record=record,
                            supervisor=supervisor, **extra_kw)
