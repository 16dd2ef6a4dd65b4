"""The one iteration loop of every barriered engine (§II).

The paper's system model has one iteration shape: a frontier ``S_n``,
``P`` threads, one barrier.  BSP, DE (chromatic is DE in colour order),
NE and delta execution differ only in what happens *inside* an iteration,
so each engine supplies that as a ``step`` and :func:`run_loop` does
everything around it, once: the telemetry and recorder run brackets, the supervisor hooks,
the frontier (a sorted int64 id array), the ``IterationStats`` list,
spans, metrics, the observer, at-cap accounting and the
:class:`~repro.engine.result.RunResult`.

The object engines keep their own store, visibility rule and commit in
their step — the loop is bookkeeping only; the delta engine's step
commits Δ and streams in mutation batches.  Only pure-async execution,
which has no barrier, stays outside.
"""

from __future__ import annotations

from ..obs.metrics import (
    NO_CLOCK,
    PhaseClock,
    peak_rss_bytes,
    record_iteration_metrics,
)
from .conflicts import ConflictLog
from .frontier import initial_frontier
from .result import RunResult

__all__ = ["run_loop"]


def run_loop(program, graph, config, state, step, *, mode: str,
             label: str = "object", frontier=None, extra=None, rngs=None,
             conflicts=None, cursor=None, observer=None, telemetry=None,
             record=None, supervisor=None, metrics=None, state_written=None,
             final_state=None, make_clock=PhaseClock) -> RunResult:
    """Run ``step`` from ``frontier`` (default: ``program``'s initial
    frontier) to convergence.

    ``step(iteration, ids, dm, clock)`` executes iteration ``iteration``
    on the sorted frontier ``ids`` under delay model ``dm`` (after any
    delay fault), laps its phases on ``clock`` (a no-op ``NO_CLOCK`` in
    an unprofiled run), commits into ``state`` and returns
    ``(next_ids, stats, deltas, span)``: the next frontier as a sorted
    int64 array, its
    :class:`~repro.engine.result.IterationStats` row, its conflict deltas
    ``[read–write, write–write, contended, stale]`` (``None``: the step
    keeps ``conflicts`` itself, or admits none) and its span fields.

    ``mode`` labels the run (sinks, supervisor, result), ``label`` the
    metrics series.  ``conflicts`` is the run's log, checkpointed with
    it (``None``: an empty one, not checkpointed); ``rngs`` the streams
    a checkpoint captures; ``cursor`` a JSON-able dict of further engine
    position the supervisor checkpoints and restores in place;
    ``extra()`` the result's engine facts and ``final_state()`` the state
    it carries (default: ``state``), both read after the loop.
    ``state_written()`` is called whenever someone else may have written
    ``state`` — the caller before the run, a checkpoint restore, value
    faults at a barrier — so a backend whose edge state lives elsewhere
    (or, for delta, a graph the cursor implies) can resynchronise;
    ``make_clock`` builds the phase clock of a profiled run.
    """
    sink = telemetry
    if sink is not None:
        sink.begin_engine_run(mode, program, config)
    if record is not None:
        record.begin_engine_run(mode, program, config)
    log = conflicts if conflicts is not None else ConflictLog()
    delay_model = config.effective_delay_model()
    stats = []
    frontier_ids = (initial_frontier(program, graph).sorted_vertices()
                    if frontier is None else frontier)
    iteration = 0
    if supervisor is not None:
        iteration, frontier_ids = supervisor.engine_start(
            mode, program, config, state=state, frontier=frontier_ids,
            rngs=rngs or {}, conflicts=conflicts, cursor=cursor,
        )
    if state_written is not None:
        state_written()
    converged = False
    # Phase attribution is pure timing (one perf_counter lap per phase
    # boundary, per iteration): it consumes no RNG stream and touches no
    # state, so profiled runs stay bit-identical.
    clock = make_clock() if (sink is not None or metrics is not None) \
        else NO_CLOCK
    while iteration < config.max_iterations:
        if frontier_ids.size == 0:
            converged = True
            break
        dm = delay_model
        if supervisor is not None:
            supervisor.pre_iteration(iteration)
            dm = supervisor.iteration_delay_model(iteration, delay_model)
        clock.start()
        rw0, ww0 = log.read_write, log.write_write
        next_ids, it, deltas, span = step(iteration, frontier_ids, dm, clock)
        if deltas is not None:
            rw, ww, contended, stale = (int(x) for x in deltas)
            log.read_write += rw
            log.write_write += ww
            log.contended_edges += contended
            log.lost_writes += ww  # Lemma 2: one of the two writes is lost
            log.stale_reads += stale
            if rw + ww:
                log.per_iteration[iteration] += rw + ww
        stats.append(it)
        if supervisor is not None:
            next_ids = supervisor.post_iteration(
                iteration, state=state, schedule=next_ids)
            if state_written is not None:
                state_written()
        if clock:
            # Everything since the step's last lap — conflict totals,
            # frontier materialization, the barrier checkpoint — is
            # charged to the commit barrier.
            clock.lap("lemma2_commit")
            wall = clock.elapsed()
            phases = clock.drain()
            if metrics is not None:
                record_iteration_metrics(
                    metrics, label, phases=phases,
                    num_active=it.num_active,
                    frontier_size=int(next_ids.size),
                    read_write=log.read_write - rw0,
                    write_write=log.write_write - ww0,
                    wall_time_s=wall,
                )
        if sink is not None:
            sink.iteration(
                iteration=iteration,
                num_active=it.num_active,
                updates_per_thread=it.updates_per_thread,
                reads_per_thread=it.reads_per_thread,
                writes_per_thread=it.writes_per_thread,
                frontier_size=int(next_ids.size),
                wall_time_s=wall,
                read_write=log.read_write - rw0,
                write_write=log.write_write - ww0,
                **span,
                phases=phases,
                peak_rss_bytes=peak_rss_bytes(),
            )
        if observer is not None:
            observer(iteration, state, {int(v) for v in next_ids})
        frontier_ids = next_ids
        iteration += 1
    # At-cap accounting: converged stays False unless the confirming
    # empty-frontier check at the top of an iteration ran (see
    # tests/test_convergence_conformance.py).
    result = RunResult(
        program=program,
        state=state if final_state is None else final_state(),
        mode=mode,
        converged=converged,
        num_iterations=iteration,
        iterations=stats,
        conflicts=log,
        config=config,
        extra=extra() if extra is not None else {},
    )
    if record is not None:
        record.end_run(result)
    if sink is not None:
        if metrics is not None:
            # Must precede end_run: lint_trace rejects records after the
            # terminal run_end.
            sink.metrics_snapshot(metrics)
        sink.end_run(result)
    return result
