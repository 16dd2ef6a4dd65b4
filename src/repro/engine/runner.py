"""Unified front-end for executing a program with any of the engines."""

from __future__ import annotations

from dataclasses import replace

from ..graph import DiGraph
from ..graph.coloring import greedy_coloring
from .capabilities import check, residency_of
from .config import EngineConfig
from .gauss_seidel import DeterministicEngine
from .nondet_engine import NondeterministicEngine
from .pure_async import PureAsyncEngine
from .program import VertexProgram
from .result import RunResult
from .spec import RunSpec
from .state import State
from .sync_engine import SynchronousEngine

__all__ = ["run", "dispatch", "ENGINES"]

#: mode -> object engine, for every mode but ``"delta"`` (``run_delta``);
#: chromatic is DE given the colouring (:func:`dispatch`)
ENGINES = {engine.mode: engine for engine in (
    SynchronousEngine, DeterministicEngine, NondeterministicEngine,
    PureAsyncEngine)} | {"chromatic": DeterministicEngine}


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

    The keywords are :class:`~repro.engine.spec.RunSpec`'s fields (their
    docs say what each does); :class:`EngineConfig` fields may stand in
    for ``config``.  The capability table
    (:mod:`repro.engine.capabilities`) checks the spec once, before any
    engine starts: a refused combination raises
    :class:`~repro.engine.capabilities.Refused` (a ``ValueError``)
    carrying the reason.

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
    switches = dict(locals())  # the keywords: RunSpec's fields
    del switches["program"], switches["graph"]
    spec = check(program, graph, RunSpec.build(**switches))
    # record=True: an in-memory recorder; a path: stream JSONL there.
    if spec.record is not None and not hasattr(spec.record,
                                               "begin_engine_run"):
        from ..obs import Recorder

        spec = replace(spec, record=Recorder() if spec.record is True
                       else Recorder(trace_path=spec.record))
    if spec.supervised:
        # Imported lazily: the robust layer pulls in the storage package.
        from ..robust.supervisor import supervised_run

        return supervised_run(program, graph, spec)
    return dispatch(program, graph, spec)


def dispatch(program: VertexProgram, graph, spec: RunSpec) -> RunResult:
    """One attempt on the engine the (checked and normalized) spec picks:
    delta → ShardStore → process backend → vectorized fast path → object
    engine.  Every attempt of :func:`repro.robust.supervised_run` comes
    here too, so a supervised run reaches exactly the engines a bare one
    does."""
    config = spec.config or EngineConfig()
    sinks = {"state": spec.state, "observer": spec.observer,
             "telemetry": spec.telemetry, "record": spec.record,
             "supervisor": spec.supervisor, "metrics": spec.metrics}
    if spec.mode == "delta":
        from .nondet_delta import run_delta

        return run_delta(program, graph, config,
                         scheduling=spec.delta_scheduling,
                         threshold=spec.delta_threshold,
                         mutations=spec.mutations, **sinks)
    # A ShardStore runs interval by interval (the vectorized model;
    # backend="process" fans the intervals out to its worker pool).
    if residency_of(graph) == "ShardStore":
        return graph.nondet_runner().run(program, config,
                                         backend=spec.backend, **sinks)
    if spec.backend == "process":
        # Imported lazily: the backend pulls in multiprocessing + shm.
        from .nondet_parallel import ParallelEngine

        return ParallelEngine().run(program, graph, config,
                                    direction=spec.direction, **sinks)
    if spec.mode == "chromatic":
        # DE in colour order: both paths run the sequential plan keyed
        # by the colouring.
        sinks["colors"] = greedy_coloring(graph)
    if spec.vectorized:
        # Imported lazily: the fast path pulls in the kernel registry.
        from .nondet_vectorized import VectorizedNondetEngine, fallback_reasons

        reasons = fallback_reasons(program, config, spec.mode, spec.record)
        # "require" was checked up front; an ineligible config only
        # arrives here adopted from a checkpoint, and the engine refuses it.
        if not reasons or spec.vectorized == "require":
            return VectorizedNondetEngine().run(
                program, graph, config, direction=spec.direction,
                mode=spec.mode, **sinks)
        if spec.telemetry is not None:
            spec.telemetry.event("vectorized_fallback", reasons=reasons)
    return ENGINES[spec.mode]().run(program, graph, config, **sinks)
