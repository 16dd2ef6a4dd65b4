"""Scheduling orders among update tasks (§II, Definitions 1–3).

Within one iteration every chosen update gets an absolute scheduling
position ``π(v)`` inside its processing thread (for the paper's Fig. 1
block dispatch over ``P`` threads with ``|S_n| = V``, that is
``π(v) = L_v mod (V / P)``).  Between two updates one of three mutually
exclusive relations holds, parameterized by the propagation delay ``d``
(the time, in update counts, for a result to travel between threads
through the cache-coherence fabric):

* ``f(v) ≺ f(u)`` — ``f(u)`` can use the results of ``f(v)``;
* ``f(v) ≻ f(u)`` — ``f(v)`` can use the results of ``f(u)``;
* ``f(v) ∥ f(u)`` — neither sees the other within this iteration.

This module gives the relation in its pure form (Definitions 1–3,
integer ``π``) and the :class:`TaskSlot` placing a task in a schedule.
The engines run on effective timestamps that carry seeded environmental
noise (§V-C's "uncertainty on scheduling, random IRQs, memory stalls");
jitter stays below one update, so within a thread time order is ``π``
order, and "can the reader see the write" is the single scalar rule
:meth:`~repro.engine.delaymodel.DelayModel.visible` (``≺`` of the
writer to the reader, under a per-pair delay).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["Order", "classify", "TaskSlot"]


class Order(enum.Enum):
    """The trichotomy of Definitions 1–3 (plus identity)."""

    SAME = "same"  #: the two arguments are the same update task
    PRECEDES = "precedes"  #: ≺ : left's results reach right
    FOLLOWS = "follows"  #: ≻ : right's results reach left
    CONCURRENT = "concurrent"  #: ∥ : neither reaches the other


@dataclass(frozen=True)
class TaskSlot:
    """Placement of one update in an iteration's schedule.

    ``time`` is the effective timestamp: exactly ``pi`` under the pure
    model, ``pi + jitter`` under environmental noise.
    """

    vid: int
    thread: int
    pi: int
    time: float

    @staticmethod
    def pure(vid: int, thread: int, pi: int) -> "TaskSlot":
        return TaskSlot(vid=vid, thread=thread, pi=pi, time=float(pi))


def classify(pi_v: int, thread_v: int, pi_u: int, thread_u: int, d: int) -> Order:
    """Relation of ``f(v)`` to ``f(u)`` per Definitions 1–3 (pure form).

    Returns ``Order.PRECEDES`` for ``f(v) ≺ f(u)``, ``Order.FOLLOWS`` for
    ``f(v) ≻ f(u)``, ``Order.CONCURRENT`` for ``f(v) ∥ f(u)``.

    Notes
    -----
    With ``d >= 1``, two updates at the same position on different
    threads are concurrent.  ``d = 0`` models instant propagation: the
    relation degenerates to a total order by ``π`` with simultaneous
    cross-thread tasks exchanging results both ways — the paper excludes
    this by taking ``d`` as a positive machine constant, and so do we.
    """
    if d < 1:
        raise ValueError(f"propagation delay d must be >= 1, got {d}")
    if thread_v == thread_u:
        if pi_v == pi_u:
            return Order.SAME
        return Order.PRECEDES if pi_v < pi_u else Order.FOLLOWS
    if pi_u - pi_v >= d:
        return Order.PRECEDES
    if pi_v - pi_u >= d:
        return Order.FOLLOWS
    return Order.CONCURRENT
