"""Convergence watchdog: stall, oscillation, and deadline detection.

Theorem 2 of the paper shows that enumeration-style computations with
write–write conflicts may *never* converge under nondeterministic
execution — the global state revisits itself and the run cycles until
``max_iterations`` is exhausted.  The watchdog detects that signature
(an exact recurrence of the barrier-state digest), plus the two mundane
failure modes around it: a frontier that stops shrinking (stall) and a
wall-clock budget breach (deadline).

The watchdog is passive: :meth:`ConvergenceWatchdog.observe` returns a
:class:`WatchdogVerdict` when it trips and the supervisor converts that
into a :class:`~repro.robust.errors.WatchdogAlarm` plus a degradation
action described by :class:`DegradationPolicy`.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ..engine.capabilities import FALLBACK_MODES

__all__ = [
    "WatchdogVerdict",
    "DegradationPolicy",
    "ConvergenceWatchdog",
    "state_digest",
]


@dataclass(frozen=True)
class WatchdogVerdict:
    """What tripped, where, and why — carried by ``WatchdogAlarm``."""

    kind: str  #: "oscillation" | "stall" | "deadline"
    iteration: int
    detail: str


@dataclass(frozen=True)
class DegradationPolicy:
    """How the supervised loop reacts to crashes and watchdog alarms.

    Crash/timeout recovery retries from the best available restore point
    (file checkpoint > in-memory barrier snapshot > scratch) with
    exponential backoff; watchdog alarms escalate — first strengthen the
    atomicity guarantee (``atomic-relaxed``/``none`` → per-edge locks,
    §III's minimal-guarantee knob), then abandon nondeterminism entirely
    and finish on a deterministic engine from the last good state.
    """

    max_restarts: int = 3
    backoff_s: float = 0.05
    max_backoff_s: float = 2.0
    escalate_atomicity: bool = True
    fallback_mode: str = "chromatic"  #: deterministic engine of last resort

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.fallback_mode not in FALLBACK_MODES:
            raise ValueError(
                f"fallback_mode must be a deterministic engine "
                f"({'/'.join(FALLBACK_MODES)}), got {self.fallback_mode!r}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based), capped."""
        return min(self.backoff_s * (2.0 ** max(0, attempt - 1)),
                   self.max_backoff_s)


def state_digest(state, frontier_ids: np.ndarray) -> bytes:
    """Digest of the full barrier state — vertex + edge fields + frontier.

    Exact recurrence of this digest across iterations means the global
    state revisited itself: because every engine iteration is a
    deterministic function of (state, frontier, iteration-independent
    rng draws... except jitter), a revisit under jitter-free configs is
    a proof of a Theorem-2 cycle, and under jittered configs a very
    strong signal of one.
    """
    h = hashlib.blake2b(digest_size=16)
    for name in sorted(state.vertex_field_names):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state.vertex(name)).tobytes())
    for name in sorted(state.edge_field_names):
        h.update(name.encode())
        h.update(np.ascontiguousarray(state.edge(name)).tobytes())
    h.update(np.ascontiguousarray(
        np.asarray(frontier_ids, dtype=np.int64)).tobytes())
    return h.digest()


class ConvergenceWatchdog:
    """Per-iteration progress monitor fed at the barrier.

    Parameters
    ----------
    oscillation:
        Detect exact state recurrence (the Theorem-2 signature).  The
        supervisor only computes digests when this is on.
    history:
        How many recent digests to retain for recurrence matching.
    stall_window:
        Trip after this many consecutive iterations with no improvement
        of the best-seen frontier size.  ``None`` disables.
    deadline_s:
        Wall-clock budget from the first observation.  ``None`` disables.
    """

    def __init__(self, *, oscillation: bool = True, history: int = 512,
                 stall_window: int | None = None,
                 deadline_s: float | None = None):
        if history <= 0:
            raise ValueError("history must be > 0")
        if stall_window is not None and stall_window <= 0:
            raise ValueError("stall_window must be > 0 (or None)")
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0 (or None)")
        self.oscillation = oscillation
        self.history = history
        self.stall_window = stall_window
        self.deadline_s = deadline_s
        self.reset()

    def reset(self) -> None:
        """Forget everything (the supervisor calls this between attempts)."""
        self._digests: dict[bytes, int] = {}
        self._best_frontier: int | None = None
        self._no_improve = 0
        self._t0: float | None = None

    @property
    def wants_digest(self) -> bool:
        return self.oscillation

    def observe(self, iteration: int, *, frontier_size: int,
                digest: bytes | None = None) -> WatchdogVerdict | None:
        """Feed one barrier; return a verdict if the watchdog trips."""
        now = time.monotonic()
        if self._t0 is None:
            self._t0 = now
        if self.deadline_s is not None and now - self._t0 > self.deadline_s:
            return WatchdogVerdict(
                "deadline", iteration,
                f"wall clock exceeded {self.deadline_s:g}s budget")

        if self.oscillation and digest is not None:
            first = self._digests.get(digest)
            if first is not None:
                return WatchdogVerdict(
                    "oscillation", iteration,
                    f"barrier state of iteration {iteration} identical to "
                    f"iteration {first} — Theorem-2 cycle of period "
                    f"{iteration - first}")
            self._digests[digest] = iteration
            while len(self._digests) > self.history:
                self._digests.pop(next(iter(self._digests)))

        if self.stall_window is not None:
            if self._best_frontier is None or frontier_size < self._best_frontier:
                self._best_frontier = frontier_size
                self._no_improve = 0
            else:
                self._no_improve += 1
                if self._no_improve >= self.stall_window:
                    return WatchdogVerdict(
                        "stall", iteration,
                        f"frontier stuck at >= {self._best_frontier} for "
                        f"{self._no_improve} iterations")
        return None
