"""Dispatching the chosen updates of an iteration onto threads (§II, Fig. 1).

The paper dispatches the updates of ``S_n`` among the participating
threads in contiguous blocks — "this fashion actually complies with the
method of the static scheduling by the OpenMP runtime system" — and each
thread executes its assigned updates small-label-first.  For the Fig. 1
situation (``S_n = V``) this yields ``π(v) = L_v mod (V/P)``.

A true round-robin (cyclic) assignment is provided as well, used by the
dispatch-policy ablation (DESIGN.md A3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .ordering import TaskSlot

__all__ = ["DispatchPolicy", "DispatchPlan", "make_plan", "plan_arrays",
           "sequential_plan"]


class DispatchPolicy(enum.Enum):
    """How the sorted active set is split across threads."""

    BLOCK = "block"  #: contiguous chunks (Fig. 1 / OpenMP static)
    ROUND_ROBIN = "round-robin"  #: cyclic assignment (ablation)


@dataclass
class DispatchPlan:
    """Placement of every active update for one iteration.

    ``slots`` maps vertex id → :class:`TaskSlot` (thread, π, effective
    time); ``per_thread`` lists each thread's vertices in execution
    (small-label-first) order.
    """

    num_threads: int
    slots: dict[int, TaskSlot]
    per_thread: list[list[int]] = field(default_factory=list)

    def execution_order(self) -> list[int]:
        """All active vertices sorted by effective timestamp.

        The simulated engine executes updates in this global virtual-time
        order; ties are broken by (π, thread) so the order is total and
        reproducible.
        """
        return sorted(
            self.slots,
            key=lambda v: (self.slots[v].time, self.slots[v].pi, self.slots[v].thread),
        )


def make_plan(
    active_sorted: np.ndarray | list[int],
    num_threads: int,
    *,
    policy: DispatchPolicy = DispatchPolicy.BLOCK,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> DispatchPlan:
    """Assign the (label-sorted) active vertices to ``num_threads`` threads:
    :func:`plan_arrays`' placement as one :class:`TaskSlot` per vertex."""
    active = np.asarray(active_sorted, dtype=np.int64).tolist()
    thread, pi, time = (a.tolist() for a in plan_arrays(
        active_sorted, num_threads, policy=policy, jitter=jitter, rng=rng))
    per_thread: list[list[int]] = [[] for _ in range(num_threads)]
    for vid, t in zip(active, thread):
        per_thread[t].append(vid)
    return DispatchPlan(num_threads, {
        vid: TaskSlot(vid=vid, thread=t, pi=p, time=tm)
        for vid, t, p, tm in zip(active, thread, pi, time)}, per_thread)


def plan_arrays(
    active_sorted: np.ndarray | list[int],
    num_threads: int,
    *,
    policy: DispatchPolicy = DispatchPolicy.BLOCK,
    jitter: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dispatch plan: ``(thread, pi, time)`` per active vertex.

    ``active_sorted`` holds the chosen vertices of this iteration,
    ascending by label (the caller — the frontier — guarantees
    sortedness).  Returns, aligned with it, the thread id, per-thread
    position π, and effective timestamp ``π + U(0, jitter)`` of every
    task: seeded environmental noise, drawn from ``rng`` in
    ascending-label order; ``jitter=0`` recovers Definitions 1–3 exactly.
    """
    active = np.asarray(active_sorted, dtype=np.int64)
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    if jitter > 0 and rng is None:
        raise ValueError("jitter > 0 requires an rng")
    k = int(active.size)
    idx = np.arange(k, dtype=np.int64)
    if policy is DispatchPolicy.BLOCK:
        base = k // num_threads
        extra = k % num_threads
        sizes = np.full(num_threads, base, dtype=np.int64)
        sizes[:extra] += 1
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        thread = np.repeat(np.arange(num_threads, dtype=np.int64), sizes)
        pi = idx - starts[thread]
    elif policy is DispatchPolicy.ROUND_ROBIN:
        thread = idx % num_threads
        pi = idx // num_threads
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown policy {policy}")
    if jitter > 0:
        # One bulk draw == k scalar draws from the same Generator stream.
        time = pi + rng.uniform(0.0, jitter, size=k)
    else:
        time = pi.astype(np.float64)
    return thread, pi, time


def sequential_plan(
    active_sorted: np.ndarray | list[int],
    key: np.ndarray,
    num_threads: int,
    *,
    policy: DispatchPolicy = DispatchPolicy.BLOCK,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sequential schedule in :func:`plan_arrays`' form.

    The tasks run one at a time in ``(key[vid], vid)`` order, so π and
    the timestamp are both the rank in that order.  Each key class is
    dispatched over ``num_threads`` threads by :func:`plan_arrays`; the
    thread only attributes work — DE is one class at one thread, the
    chromatic scheduler a class per colour.
    """
    active = np.asarray(active_sorted, dtype=np.int64)
    k = key[active]
    order = np.argsort(k, kind="stable")
    thread = np.empty(active.size, dtype=np.int64)
    for cls in np.split(order, np.flatnonzero(np.diff(k[order])) + 1):
        thread[cls] = plan_arrays(cls, num_threads, policy=policy)[0]
    pi = np.empty(active.size, dtype=np.int64)
    pi[order] = np.arange(active.size)
    return thread, pi, pi.astype(np.float64)
