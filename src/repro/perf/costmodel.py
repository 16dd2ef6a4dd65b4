"""Virtual-time cost model for the paper's performance experiments (Fig. 3).

The paper's Fig. 3 measures wall-clock computing time on a 16-core Xeon
testbed.  This reproduction replaces the testbed with an analytical cost
model applied to the *measured* work profile of an engine run (updates,
edge reads and writes, per virtual thread, per iteration).  The model
reproduces each mechanism that shapes the paper's curves:

* **Atomicity overhead** (§III): explicit locking pays an
  acquire/release penalty on *every* edge access; relaxed atomics pay a
  small fence-free penalty; cache-line alignment ("architecture
  support") pays nothing.  This separates the three NE curves, lock
  being "largely degraded" and compiler "marginally worse" than
  architecture, as in §V-B.
* **Memory-bandwidth saturation**: graph algorithms are memory-bound
  with bad locality, so the per-access memory cost inflates as threads
  multiply ("when the number of threads increases, the bandwidth between
  processors and memory will be gradually saturated").  Modeled as a
  linear contention factor on the memory component.
* **Barrier max**: an iteration ends when its slowest thread finishes
  (synchronous implementation of the asynchronous model), so iteration
  time is the max of per-thread work — load imbalance costs real time.
* **Deterministic scheduling overhead**: GraphChi's external
  deterministic scheduler must *plot the execution path* before each
  iteration (per-task and per-edge planning cost) and then executes the
  updates sequentially — which is why DE "does not scale".

Iteration counts are never modeled: they come from the engine run, so a
nondeterministic execution that needs extra recovery iterations pays for
them honestly.

Default constants are loosely calibrated to the paper's hardware
(2.6 GHz Xeon E5-2670, DDR3) but only the *shape* claims are asserted
anywhere; see DESIGN.md §4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.atomicity import AtomicityPolicy
from ..engine.result import RunResult

__all__ = ["CostParams", "CostModel", "estimate_time"]


@dataclass(frozen=True)
class CostParams:
    """Cost constants, in nanoseconds of virtual time.

    ``bandwidth_threads`` is the number of threads whose combined memory
    traffic saturates the socket; beyond it, extra threads mostly wait.
    """

    update_base_ns: float = 150.0  #: task dispatch + vertex work per update
    read_mem_ns: float = 28.0  #: memory component of one edge read
    write_mem_ns: float = 36.0  #: memory component of one edge write
    compute_per_access_ns: float = 6.0  #: ALU work per gathered/scattered edge
    lock_overhead_ns: float = 220.0  #: per-access explicit lock/unlock
    atomic_overhead_ns: float = 9.0  #: per-access relaxed atomic
    cacheline_overhead_ns: float = 0.0  #: architecture support is free
    barrier_ns: float = 4000.0  #: per-iteration barrier latency
    bandwidth_threads: float = 6.0  #: memory saturation knee
    bandwidth_slope: float = 0.45  #: how hard contention bites past the knee
    plot_task_ns: float = 200.0  #: DE scheduler: per chosen update planning
    plot_edge_ns: float = 30.0  #: DE scheduler: per touched edge planning
    coloring_ns: float = 60.0  #: chromatic scheduler: one-time per vertex+edge

    def sync_overhead(self, policy: AtomicityPolicy) -> float:
        """Per-edge-access synchronization overhead of one §III method."""
        if policy is AtomicityPolicy.LOCK:
            return self.lock_overhead_ns
        if policy is AtomicityPolicy.ATOMIC_RELAXED:
            return self.atomic_overhead_ns
        # CACHE_LINE, and NONE (which pays nothing — and gets garbage).
        return self.cacheline_overhead_ns

    def memory_contention(self, threads: int) -> float:
        """Multiplier on memory cost when ``threads`` run concurrently."""
        if threads <= self.bandwidth_threads:
            return 1.0
        return 1.0 + self.bandwidth_slope * (threads - self.bandwidth_threads) / self.bandwidth_threads

    def with_(self, **kwargs) -> "CostParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class CostModel:
    """Applies :class:`CostParams` to measured work profiles."""

    params: CostParams = CostParams()

    # ------------------------------------------------------------------
    def _update_cost_ns(
        self, reads: int, writes: int, updates: int, policy: AtomicityPolicy, mem_scale: float
    ) -> float:
        p = self.params
        sync = p.sync_overhead(policy)
        access = reads + writes
        return (
            updates * p.update_base_ns
            + reads * (p.read_mem_ns * mem_scale + sync)
            + writes * (p.write_mem_ns * mem_scale + sync)
            + access * p.compute_per_access_ns
        )

    def _slowest_thread_ns(self, result: RunResult, policy: AtomicityPolicy,
                           barrier_ns: float) -> float:
        """Σ over iterations of the slowest thread's cost plus
        ``barrier_ns``: an iteration ends when its slowest thread does."""
        threads = result.config.threads if result.config else 1
        mem_scale = self.params.memory_contention(threads)
        return sum(max(self._update_cost_ns(r, w, u, policy, mem_scale)
                       for u, r, w in zip(it.updates_per_thread,
                                          it.reads_per_thread,
                                          it.writes_per_thread))
                   + barrier_ns for it in result.iterations)

    def nondeterministic_time(
        self, result: RunResult, policy: AtomicityPolicy | None = None
    ) -> float:
        """Virtual seconds for a nondeterministic run under ``policy``.

        Because all §III atomicity methods produce identical values, one
        engine run prices all three policies — pass the one you want, or
        default to the run's own configuration.
        """
        if policy is None:
            policy = result.config.atomicity if result.config else AtomicityPolicy.CACHE_LINE
        return self._slowest_thread_ns(result, policy,
                                       self.params.barrier_ns) * 1e-9

    def deterministic_time(self, result: RunResult) -> float:
        """Virtual seconds for the external-deterministic baseline.

        Sequential execution (the plotted path admits no intra-iteration
        parallelism) with no atomicity overhead, plus the per-iteration
        path-plotting cost.  Independent of the configured thread count,
        matching the paper's observation that DE does not scale.
        """
        p = self.params
        total_ns = 0.0
        for it in result.iterations:
            reads = it.total_reads
            writes = it.total_writes
            updates = sum(it.updates_per_thread)
            total_ns += self._update_cost_ns(
                reads, writes, updates, AtomicityPolicy.CACHE_LINE, 1.0
            )
            total_ns += updates * p.plot_task_ns + (reads + writes) * p.plot_edge_ns
            total_ns += p.barrier_ns
        return total_ns * 1e-9

    def synchronous_time(self, result: RunResult) -> float:
        """Virtual seconds for a BSP run (no conflicts ⇒ no sync overhead)."""
        return self._slowest_thread_ns(result, AtomicityPolicy.CACHE_LINE,
                                       self.params.barrier_ns) * 1e-9

    def chromatic_time(self, result: RunResult) -> float:
        """Virtual seconds for the chromatic deterministic-parallel scheduler.

        BSP's price with one barrier per color class: each class runs
        race-free in parallel (no atomicity overhead at all), and the
        recorded per-thread maxima capture the load imbalance of
        splitting small classes over many threads.  The coloring itself
        is a one-time cost over vertices and edges.
        """
        num_colors = int(result.extra.get("num_colors", 1))
        total_ns = self._slowest_thread_ns(
            result, AtomicityPolicy.CACHE_LINE,
            num_colors * self.params.barrier_ns)
        if result.iterations:
            graph = result.state.graph
            total_ns += (graph.num_vertices + graph.num_edges) * self.params.coloring_ns
        return total_ns * 1e-9

    def time(self, result: RunResult, policy: AtomicityPolicy | None = None) -> float:
        """Dispatch on the run's mode."""
        if result.mode == "deterministic":
            return self.deterministic_time(result)
        if result.mode == "sync":
            return self.synchronous_time(result)
        if result.mode == "chromatic":
            return self.chromatic_time(result)
        return self.nondeterministic_time(result, policy)


def estimate_time(
    result: RunResult,
    *,
    policy: AtomicityPolicy | None = None,
    params: CostParams | None = None,
) -> float:
    """Convenience wrapper: virtual seconds of ``result`` under ``policy``."""
    return CostModel(params or CostParams()).time(result, policy)
