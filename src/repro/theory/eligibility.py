"""Executable form of the paper's sufficient conditions (§IV).

This module answers the paper's title question for a concrete program:

* **Theorem 1** — if the algorithm converges under the synchronous model
  and its nondeterministic execution produces only read–write conflicts
  on edges, it converges nondeterministically.  (The proof's closing
  remark extends the premise to algorithms that converge under a
  deterministic asynchronous schedule; :func:`check_traits` honours the
  extension and labels it as such.)
* **Theorem 2** — if the algorithm converges under deterministic
  asynchronous execution and satisfies the monotonicity property, it
  converges nondeterministically even under write–write conflicts,
  recovering from corrupted intermediate results.

Beyond convergence, the report carries the paper's §IV/§V-C observation
about *results*: algorithms with absolute convergence conditions produce
the same final results as deterministic execution, while approximate
(fixed-point, ε-threshold) algorithms exhibit run-to-run variation.

:func:`audit_run` closes the loop between declaration and observation:
it cross-checks a finished run's conflict log against the traits the
verdict was based on, flagging e.g. an "eligible under Theorem 1"
algorithm that in fact produced write–write conflicts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..engine.result import RunResult
from ..engine.traits import AlgorithmTraits, ConflictProfile, ConvergenceKind

__all__ = [
    "Verdict",
    "EligibilityReport",
    "check_traits",
    "check_program",
    "check_push_program",
    "check_delta_program",
    "probe_delta_algebra",
    "is_accumulative",
    "audit_run",
]


class Verdict(enum.Enum):
    """Outcome of applying the sufficient conditions."""

    ELIGIBLE_THEOREM_1 = "eligible (Theorem 1)"
    ELIGIBLE_THEOREM_2 = "eligible (Theorem 2)"
    ELIGIBLE_PUSH = "eligible (push-mode condition)"
    ELIGIBLE_DELTA = "eligible (delta-accumulative condition)"
    NOT_ESTABLISHED = "not established"

    @property
    def eligible(self) -> bool:
        return self is not Verdict.NOT_ESTABLISHED


@dataclass(frozen=True)
class EligibilityReport:
    """The answer, with its reasoning, for one algorithm."""

    traits: AlgorithmTraits
    verdict: Verdict
    reasons: tuple[str, ...]
    #: True when the paper predicts nondeterministic runs reproduce the
    #: deterministic final results exactly (absolute convergence).
    results_deterministic: bool
    warnings: tuple[str, ...] = field(default=())

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"Algorithm: {self.traits.name} ({self.traits.family or 'unclassified'})"]
        lines.append(f"Verdict:   {self.verdict.value}")
        for r in self.reasons:
            lines.append(f"  - {r}")
        if self.verdict.eligible:
            lines.append(
                "Results:   identical to deterministic execution"
                if self.results_deterministic
                else "Results:   expect run-to-run variation (approximate convergence)"
            )
        for w in self.warnings:
            lines.append(f"  ! {w}")
        return "\n".join(lines)


def check_traits(traits: AlgorithmTraits) -> EligibilityReport:
    """Apply Theorems 1 and 2 to declared traits."""
    reasons: list[str] = []
    warnings: list[str] = []
    verdict = Verdict.NOT_ESTABLISHED

    rw_only = traits.conflict_profile in (ConflictProfile.NONE, ConflictProfile.READ_WRITE)

    if rw_only and traits.converges_synchronously:
        verdict = Verdict.ELIGIBLE_THEOREM_1
        reasons.append(
            "converges under the synchronous model and nondeterministic "
            "execution raises only read-write conflicts (Theorem 1)"
        )
    elif rw_only and traits.converges_async_deterministic:
        verdict = Verdict.ELIGIBLE_THEOREM_1
        reasons.append(
            "converges under a deterministic asynchronous schedule with only "
            "read-write conflicts (Theorem 1, extended applicability)"
        )
    elif traits.has_write_write and traits.converges_async_deterministic and traits.is_monotone:
        verdict = Verdict.ELIGIBLE_THEOREM_2
        reasons.append(
            "converges under deterministic asynchronous execution and is "
            f"monotone ({traits.monotonicity.value}): write-write conflicts "
            "are tolerated via corruption recovery (Theorem 2)"
        )
    else:
        if traits.has_write_write and not traits.is_monotone:
            reasons.append(
                "produces write-write conflicts but is not monotone: "
                "Theorem 2 does not apply"
            )
        if not traits.converges_synchronously and not traits.converges_async_deterministic:
            reasons.append(
                "converges under neither the synchronous model nor a "
                "deterministic asynchronous schedule: no theorem's premise holds"
            )
        elif not traits.converges_synchronously:
            reasons.append("does not converge under the synchronous model")
        reasons.append(
            "the sufficient conditions of the paper do not cover this "
            "algorithm; nondeterministic execution may or may not converge"
        )

    # Secondary checks — even an eligible WW algorithm can also qualify
    # under Theorem 2's premises for its RW conflicts (informational).
    if (
        verdict is Verdict.ELIGIBLE_THEOREM_1
        and traits.has_write_write
    ):  # pragma: no cover - defensive, unreachable by construction
        warnings.append("write-write profile contradicts a Theorem 1 verdict")

    results_deterministic = (
        verdict.eligible and traits.convergence_kind is ConvergenceKind.ABSOLUTE
    )
    if verdict.eligible and traits.convergence_kind is ConvergenceKind.APPROXIMATE:
        warnings.append(
            "approximate convergence condition: results at convergence vary "
            "from one run to another (paper §V-C); validate the variation is "
            "acceptable for your use (difference-degree analysis)"
        )
    if verdict is Verdict.ELIGIBLE_THEOREM_2:
        warnings.append(
            "Theorem 2 guarantees convergence of the edge/vertex fixed point; "
            "auxiliary non-recomputable outputs (e.g. operation tallies) are "
            "not covered — see EdgeIncrementCounter for a cautionary example"
        )

    return EligibilityReport(
        traits=traits,
        verdict=verdict,
        reasons=tuple(reasons),
        results_deterministic=results_deterministic,
        warnings=tuple(warnings),
    )


def check_program(program) -> EligibilityReport:
    """Convenience: :func:`check_traits` on a program's declared traits."""
    return check_traits(program.traits)


def check_push_program(traits: AlgorithmTraits,
                       combines: dict) -> EligibilityReport:
    """The push-mode sufficient condition (the paper's future-work item)
    for a program with ``traits`` whose accumulators fold by
    ``combines`` (field -> :class:`~repro.engine.nondet_delta.CombineOp`:
    a delta kernel's ``{field: op}``, or a vectorized kernel's
    ``push_combines``).

    *If a push-mode algorithm converges under a deterministic schedule
    and every accumulator's combine is commutative and associative, and
    combines are applied atomically, then it converges
    nondeterministically*: delivery order cannot change a folded value,
    so Theorem 1's chain argument carries over with "edge value"
    replaced by "accumulator value".  Non-idempotent combines (ADD) get
    a warning — they depend on exactly-once delivery, i.e. on the atomic
    combine; idempotent ones (MIN/MAX) additionally tolerate duplicate
    delivery.
    """
    reasons: list[str] = []
    warnings: list[str] = []

    all_ca = all(op.commutative_associative for op in combines.values())
    converges = traits.converges_async_deterministic or traits.converges_synchronously
    if converges and all_ca:
        verdict = Verdict.ELIGIBLE_PUSH
        ops = ", ".join(f"{name}:{op.value}" for name, op in combines.items())
        reasons.append(
            "converges deterministically and every accumulator combine is "
            f"commutative and associative ({ops}): delivery order cannot "
            "change folded values (push-mode condition)"
        )
        non_idem = [n for n, op in combines.items() if not op.idempotent]
        if non_idem:
            warnings.append(
                "non-idempotent combine(s) "
                + ", ".join(non_idem)
                + ": correctness requires the atomic combine to deliver every "
                "contribution exactly once — lost updates under "
                "AtomicityPolicy.NONE corrupt the fixed point"
            )
    else:
        verdict = Verdict.NOT_ESTABLISHED
        if not converges:
            reasons.append("no deterministic convergence premise holds")
        if not all_ca:
            reasons.append("an accumulator combine is not commutative-associative")
        reasons.append("the push-mode sufficient condition does not cover this algorithm")

    results_deterministic = (
        verdict.eligible and traits.convergence_kind is ConvergenceKind.ABSOLUTE
    )
    if verdict.eligible and traits.convergence_kind is ConvergenceKind.APPROXIMATE:
        warnings.append(
            "approximate convergence condition: results vary from one run to "
            "another (truncated residuals depend on delivery schedule)"
        )
    return EligibilityReport(
        traits=traits,
        verdict=verdict,
        reasons=tuple(reasons),
        results_deterministic=results_deterministic,
        warnings=tuple(warnings),
    )


def audit_run(result: RunResult) -> list[str]:
    """Cross-check a run's observed conflicts against the declared traits.

    Returns a list of discrepancy messages (empty = consistent).  This is
    the empirical safety net for hand-declared conflict profiles.
    """
    issues: list[str] = []
    traits = result.program.traits
    log = result.conflicts
    if result.mode == "deterministic" and log.total:
        issues.append(
            f"deterministic run logged {log.total} conflicts — engine invariant broken"
        )
    if result.mode == "nondeterministic":
        if traits.conflict_profile is ConflictProfile.NONE and log.total:
            issues.append(
                f"declared conflict-free but observed {log.read_write} read-write "
                f"and {log.write_write} write-write conflicts"
            )
        if (
            traits.conflict_profile is ConflictProfile.READ_WRITE
            and log.write_write
        ):
            issues.append(
                f"declared read-write-only but observed {log.write_write} "
                "write-write conflicts"
            )
    if not result.converged:
        report = check_traits(traits)
        if report.verdict.eligible:
            issues.append(
                f"declared eligible ({report.verdict.value}) but the run did not "
                f"converge within {result.num_iterations} iterations"
            )
    return issues


# ---------------------------------------------------------------------------
# Delta-accumulative condition (Maiter's subclass, PAPERS.md)
# ---------------------------------------------------------------------------

#: Sample values the algebra probes fold over — finite magnitudes across
#: scales plus the extended reals the identity elements live on.
_PROBE_VALUES = (0.0, 1.0, -1.0, 0.5, 3.25, 1e-9, 1e9, float("inf"))


def _probe_graph():
    """A small graph with varied degrees for the gain probes."""
    from ..graph import DiGraph

    return DiGraph(6, [0, 0, 0, 1, 2, 3, 4], [1, 2, 3, 2, 3, 4, 5])


def probe_delta_algebra(kernel, graph=None) -> str | None:
    """Search small inputs for a violation of the accumulative algebra.

    Checks, in order: ⊕ commutativity, associativity, identity; gain
    distributivity over ⊕ (``g(a ⊕ b) == g(a) ⊕ g(b)``); for idempotent
    ⊕, gain monotonicity; for ADD, the declared contraction (per-source
    propagated mass ≤ the certificate).  Returns a concrete witness
    string for the first violation found, or ``None`` — this is the
    "verified against small-graph search" half of the delta verdict,
    and the same search that refutes deliberately broken kernels in the
    test suite.
    """
    import itertools
    import math

    import numpy as np

    op = kernel.op
    ident = op.identity
    close = lambda a, b: (a == b) or math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)

    for a, b in itertools.combinations_with_replacement(_PROBE_VALUES, 2):
        if not close(op.ufunc(a, b), op.ufunc(b, a)):
            return (f"⊕ is not commutative: fold({a}, {b}) = {op.ufunc(a, b)} "
                    f"but fold({b}, {a}) = {op.ufunc(b, a)}")
    for a, b, c in itertools.combinations_with_replacement(_PROBE_VALUES, 3):
        lhs = op.ufunc(op.ufunc(a, b), c)
        rhs = op.ufunc(a, op.ufunc(b, c))
        if not (close(lhs, rhs) or (math.isnan(lhs) and math.isnan(rhs))):
            return (f"⊕ is not associative: ({a} ⊕ {b}) ⊕ {c} = {lhs} but "
                    f"{a} ⊕ ({b} ⊕ {c}) = {rhs}")
    for a in _PROBE_VALUES:
        if not close(op.ufunc(a, ident), a):
            return (f"{ident} is not an identity for ⊕: "
                    f"fold({a}, {ident}) = {op.ufunc(a, ident)}")

    graph = graph if graph is not None else _probe_graph()
    eids = np.arange(graph.num_edges, dtype=np.int64)
    finite = [v for v in _PROBE_VALUES if math.isfinite(v)]

    def g(vals):
        return kernel.gains(graph, eids, np.full(eids.size, vals, dtype=np.float64))

    for a, b in itertools.combinations(finite, 2):
        lhs = kernel.gains(graph, eids, np.full(eids.size, op.ufunc(a, b)))
        rhs = op.ufunc(g(a), g(b))
        bad = ~np.isclose(lhs, rhs, rtol=1e-9, atol=1e-12)
        if bad.any():
            e = int(np.flatnonzero(bad)[0])
            return (f"g does not distribute over ⊕ on edge {e}: "
                    f"g({a} ⊕ {b}) = {lhs[e]} but g({a}) ⊕ g({b}) = {rhs[e]}")

    if op.idempotent:
        ordered = sorted(finite)
        for a, b in zip(ordered, ordered[1:]):
            ga, gb = g(a), g(b)
            cmp = op.ufunc(ga, gb) == ga  # g(a) ⊕ g(b) = g(a): no worse
            if not cmp.all():
                e = int(np.flatnonzero(~cmp)[0])
                return (f"g is not monotone on edge {e}: {a} ≤ {b} but "
                        f"g({a}) = {ga[e]}, g({b}) = {gb[e]}")
    else:
        factor = kernel.contraction
        out_deg = graph.out_degrees()
        mass = np.abs(g(1.0))
        per_src = np.zeros(graph.num_vertices)
        np.add.at(per_src, graph.edge_src, mass)
        worst = float(per_src.max(initial=0.0))
        if worst > factor * (1.0 + 1e-9):
            v = int(per_src.argmax())
            return (f"contraction certificate {factor} violated: vertex {v} "
                    f"(out-degree {int(out_deg[v])}) propagates total mass "
                    f"{worst} per unit delta")
    return None


def _refusal_witness(program) -> list[str]:
    """Concrete small-graph evidence for a no-kernel refusal."""
    from ..graph import DiGraph

    traits = program.traits
    out: list[str] = []
    if not (traits.converges_synchronously or traits.converges_async_deterministic):
        # Demonstrate, not just declare: run the synchronous model on a
        # triangle and watch it fail to reach any fixed point.
        try:
            from ..engine.runner import run
            from ..engine.config import EngineConfig

            tri = DiGraph(3, [0, 1, 1, 2, 2, 0], [1, 0, 2, 1, 0, 2])
            res = run(type(program)(), tri, mode="sync",
                      config=EngineConfig(max_iterations=16))
            if not res.converged:
                out.append(
                    "witness: a synchronous run on a 3-cycle oscillated "
                    "past 16 iterations — there is no fixed point for an "
                    "accumulator to converge toward")
        except Exception:  # pragma: no cover - probe is best-effort
            pass
    if not traits.monotonicity.is_monotone:
        out.append(
            "no monotone ⊕ can order this program's state trajectory "
            "(monotonicity declared NONE), so committed deltas cannot be "
            "folded without an inverse")
    return out


def check_delta_program(program, *, probe: bool = True) -> EligibilityReport:
    """The delta-accumulative sufficient condition (Maiter, PAPERS.md).

    *If the program has an accumulative formulation ``(⊕, identity,
    g_edge)`` with ⊕ commutative/associative and ``g`` distributing over
    ⊕, and either ⊕ is idempotent with a monotone ``g`` (MIN/MAX class)
    or the gains contract total mass (ADD class), then propagating
    deltas in any delivery order converges to the same fixed point as
    full recomputation* — the accumulation identity ``x = x0 ⊕ Σ deltas``
    makes every interleaving a re-association of one fold.

    With ``probe=True`` (default) the declared algebra is additionally
    verified by small-graph search (:func:`probe_delta_algebra`);
    declared-but-false algebras are refused with the concrete witness.
    """
    from ..engine.nondet_delta import delta_fallback_reasons, resolve_delta_kernel

    traits = program.traits
    structural = delta_fallback_reasons(program)
    if structural:
        reasons = list(structural) + _refusal_witness(program)
        reasons.append("the delta-accumulative condition does not cover "
                       "this algorithm")
        return EligibilityReport(
            traits=traits, verdict=Verdict.NOT_ESTABLISHED,
            reasons=tuple(reasons), results_deterministic=False,
        )

    kernel = resolve_delta_kernel(program)(program)
    if probe:
        witness = probe_delta_algebra(kernel)
        if witness is not None:
            return EligibilityReport(
                traits=traits, verdict=Verdict.NOT_ESTABLISHED,
                reasons=(
                    "the declared accumulative algebra fails small-graph "
                    "verification", witness,
                ),
                results_deterministic=False,
            )

    reasons = [
        f"accumulative formulation verified: ⊕ = {kernel.op.value} is "
        "commutative/associative with identity "
        f"{kernel.op.identity}, and g_edge distributes over ⊕ "
        "(small-graph search found no violation)"
    ]
    warnings: list[str] = []
    if kernel.op.idempotent:
        reasons.append(
            "idempotent ⊕ with monotone gains: any delivery order — "
            "including duplicate delivery — re-associates to the same fold "
            "(Theorem 2's monotone recovery, in delta form)")
    else:
        reasons.append(
            f"gain mass contracts by {kernel.contraction} per hop: the "
            "residual Σ|Δ| vanishes geometrically under any schedule")
        warnings.append(
            "non-idempotent ⊕ (ADD) relies on exactly-once delivery of "
            "every delta; the engine's fold-at commit provides it, but "
            "results carry threshold-truncation noise (approximate "
            "convergence)")
    results_deterministic = (
        kernel.op.idempotent
        and traits.convergence_kind is ConvergenceKind.ABSOLUTE
    )
    return EligibilityReport(
        traits=traits, verdict=Verdict.ELIGIBLE_DELTA,
        reasons=tuple(reasons), results_deterministic=results_deterministic,
        warnings=tuple(warnings),
    )


def is_accumulative(program) -> bool:
    """Convenience: does ``program`` pass the delta condition?"""
    return check_delta_program(program).verdict.eligible
