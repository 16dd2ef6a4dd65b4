"""Execution configuration shared by all engines."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .atomicity import AtomicityPolicy
from .delaymodel import DelayModel
from .dispatch import DispatchPolicy

__all__ = ["EngineConfig", "SEED_STREAMS"]

#: The master seed's independent sub-streams: stream ``name`` is seeded
#: by ``[seed, k]`` (k = 5 and 6 are the recorder's and the fault plan's).
SEED_STREAMS = {"fp": 1, "jitter": 2, "torn": 3, "pure_async_jitter": 4,
                "delta": 23}


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the paper's system model plus reproduction controls.

    Attributes
    ----------
    threads:
        Number of (virtual) processing threads ``P``.  The paper assumes
        one thread per processor and evaluates 4, 8, 16.
    delay:
        The propagation delay ``d`` of Definitions 1–3: the time, in
        update slots, for a result to travel between threads.  Must be
        >= 1.
    jitter:
        Magnitude of seeded environmental noise added to task timestamps
        (models the paper's "uncertainty on scheduling, random IRQs,
        memory stalls").  Must lie in ``[0, 1)`` so it never reorders
        same-thread tasks; ``0`` recovers the pure Definitions 1–3.
    atomicity:
        How individual reads/writes are made atomic (§III).  All policies
        except ``NONE`` produce identical values and differ only in cost;
        ``NONE`` injects torn values.
    dispatch:
        Block (Fig. 1 / OpenMP static) or round-robin assignment.
    seed:
        Master seed; together with all other fields it makes a
        nondeterministic run exactly reproducible.  Vary the seed to
        sample different executions (the paper's "one run to another").
    max_iterations:
        Safety bound on the number of iterations.
    fp_noise:
        Emulate float-precision run-to-run variation of *deterministic*
        executions by permuting gather order per update (§V-C's DE vs DE
        rows); seeded by ``seed``.  RAM residency only.
    torn_probability:
        With ``atomicity=NONE``, the probability that a racing access
        observes/commits a torn value.
    keep_conflict_events:
        Retain individual :class:`~repro.engine.conflicts.ConflictEvent`
        records (bounded) in addition to aggregate counters.
    validate_scope:
        Enforce the §II scope rule at runtime: an update function that
        reads or writes an edge not incident to its vertex raises
        immediately.  Off by default (it costs a set construction per
        update); turn on when developing a new program.
    worker_timeout_s:
        Process and out-of-core worker pools only: how long an iteration
        barrier waits for the workers before raising
        :class:`~repro.robust.errors.WorkerTimeout` (a worker that died
        raises :class:`~repro.robust.errors.WorkerDied` instead).
        ``None`` waits forever.
    direction_alpha / direction_beta:
        Beamer-style thresholds of the direction-optimizing heuristic
        (``run(..., direction="auto")``).  An iteration runs *push*
        (sparse, frontier-driven) when the frontier's incident-edge mass
        is below ``m / direction_alpha`` **and** the frontier holds
        fewer than ``n / direction_beta`` vertices; otherwise it runs
        *pull* (dense whole-graph masks).  Both must be > 0; the
        defaults are Beamer's published 14 / 24.  The decision is a pure
        function of (frontier, graph, config), so it never perturbs
        bit-reproducibility.
    """

    threads: int = 4
    delay: float = 2.0
    delay_model: DelayModel | None = None
    jitter: float = 0.5
    atomicity: AtomicityPolicy = AtomicityPolicy.CACHE_LINE
    dispatch: DispatchPolicy = DispatchPolicy.BLOCK
    seed: int = 0
    max_iterations: int = 100_000
    fp_noise: bool = False
    torn_probability: float = 0.7
    keep_conflict_events: bool = False
    validate_scope: bool = False
    worker_timeout_s: float | None = 60.0
    direction_alpha: float = 14.0
    direction_beta: float = 24.0

    def __post_init__(self) -> None:
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.delay < 1:
            raise ValueError(f"delay (d) must be >= 1, got {self.delay}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 <= self.torn_probability <= 1.0:
            raise ValueError("torn_probability must be in [0, 1]")
        if self.worker_timeout_s is not None and self.worker_timeout_s <= 0:
            raise ValueError(
                "worker_timeout_s must be > 0 (or None to wait forever)"
            )
        if self.direction_alpha <= 0 or self.direction_beta <= 0:
            raise ValueError(
                "direction_alpha and direction_beta must be > 0, got "
                f"{self.direction_alpha} / {self.direction_beta}"
            )

    def effective_delay_model(self) -> DelayModel:
        """The pairwise delay model in force: ``delay_model`` when given,
        otherwise the paper's uniform model built from ``delay``."""
        return self.delay_model or DelayModel.uniform(self.delay)

    def rng(self, stream: str) -> np.random.Generator:
        """A fresh generator on :data:`SEED_STREAMS` ``[stream]``."""
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, SEED_STREAMS[stream]]))

    def with_(self, **kwargs) -> "EngineConfig":
        """Functional update (frozen dataclass convenience)."""
        return replace(self, **kwargs)
