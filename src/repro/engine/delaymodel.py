"""Propagation-delay models: relaxing §II toward NUMA and distributed systems.

The paper's system model uses a single machine constant ``d`` — "the
time for the result of an update to propagate from one thread to
another", determined by the cache-coherence protocol.  Its future-work
section proposes "extending the applicability of results ... to more
scenarios, such as ... distributed systems, by relaxing the system
model".  The natural relaxation is to make ``d`` a *function of the
thread pair*:

* :meth:`DelayModel.uniform` — the paper's original model;
* :meth:`DelayModel.numa` — threads grouped into sockets: cheap
  propagation inside a socket, expensive across the interconnect;
* :meth:`DelayModel.distributed` — thread groups become machines with a
  network between them: cross-machine delays orders of magnitude above
  intra-machine ones, modelling a Pregel/PowerGraph-style cluster while
  keeping the same convergence semantics.

The pair delay enters one scalar rule, :meth:`DelayModel.visible`,
which both object engines' edge store
(:class:`~repro.engine.edge_history.EdgeHistory`) reads through.

Theorems 1 and 2 survive the relaxation (their proofs only require
every write to become visible after finitely many iterations, which any
finite pairwise delay provides); the experiments show the *cost*:
larger cross-group delays mean staler reads and more recovery
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DelayModel"]


@dataclass(frozen=True)
class DelayModel:
    """Pairwise propagation delays between virtual threads.

    Attributes
    ----------
    intra:
        Delay between threads of the same group (and the self-delay —
        irrelevant, since same-thread visibility is program order).
    inter:
        Delay between threads of different groups.
    group_size:
        Number of consecutive thread ids per group; ``0`` means a single
        group (uniform model).
    """

    intra: float = 2.0
    inter: float = 2.0
    group_size: int = 0

    def __post_init__(self) -> None:
        if self.intra < 1 or self.inter < 1:
            raise ValueError("delays must be >= 1")
        if self.inter < self.intra:
            raise ValueError("inter-group delay must be >= intra-group delay")
        if self.group_size < 0:
            raise ValueError("group_size must be >= 0")

    # -- constructors ----------------------------------------------------
    @staticmethod
    def uniform(d: float) -> "DelayModel":
        """The paper's single-constant model."""
        return DelayModel(intra=d, inter=d, group_size=0)

    @staticmethod
    def numa(sockets_of: int, intra: float = 2.0, inter: float = 8.0) -> "DelayModel":
        """Threads packed into sockets of ``sockets_of`` threads each."""
        if sockets_of < 1:
            raise ValueError("sockets_of must be >= 1")
        return DelayModel(intra=intra, inter=inter, group_size=sockets_of)

    @staticmethod
    def distributed(
        threads_per_machine: int, intra: float = 2.0, network: float = 64.0
    ) -> "DelayModel":
        """Thread groups as cluster machines joined by a slow network."""
        if threads_per_machine < 1:
            raise ValueError("threads_per_machine must be >= 1")
        return DelayModel(intra=intra, inter=network, group_size=threads_per_machine)

    # -- queries ----------------------------------------------------------
    def group(self, thread: int) -> int:
        """Group (socket / machine) id of a thread."""
        if self.group_size == 0:
            return 0
        return thread // self.group_size

    def delay(self, thread_a: int, thread_b: int) -> float:
        """Propagation delay between two (distinct) threads."""
        g = self.group_size
        if g == 0 or thread_a // g == thread_b // g:
            return self.intra
        return self.inter

    def visible(self, t_w: float, thread_w: int, t_r: float, thread_r: int) -> bool:
        """Defs. 1–3: has a write at ``(t_w, thread_w)`` reached a read at
        ``(t_r, thread_r)``?  Within one thread in program order
        (``t_w < t_r``), across threads once ``t_r − t_w ≥ delay``.

        The object engines' only scalar visibility rule; the array
        engines evaluate the same rule bulk-wise (``nondet_core._visible``).
        """
        if thread_w == thread_r:
            return t_w < t_r
        return t_r - t_w >= self.delay(thread_w, thread_r)

    def delays(self, thread_a: np.ndarray, thread_b: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`delay` over aligned thread-id arrays."""
        thread_a = np.asarray(thread_a)
        if self.group_size == 0:
            return np.full(thread_a.shape, self.intra)
        same_group = (thread_a // self.group_size) == (
            np.asarray(thread_b) // self.group_size
        )
        return np.where(same_group, self.intra, self.inter)

    @property
    def is_uniform(self) -> bool:
        """True when every thread pair shares one delay constant."""
        return self.group_size == 0 or self.intra == self.inter

    @property
    def max_delay(self) -> float:
        return self.inter if self.group_size else self.intra
