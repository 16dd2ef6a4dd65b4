"""The delta-accumulative engine: equivalence, eligibility, algebra.

Three claims are under test:

1. **Equivalence** — for every kernel with a verified ``(⊕, identity,
   g_edge)`` algebra, propagating deltas converges to the recomputation
   fixed point: bit-exact for idempotent ⊕ (MIN), within the threshold's
   truncation bound for ADD, across seeds.
2. **The accumulation identity** — ``x = x0 ⊕ Σ committed deltas``
   holds *exactly* (the engine defines x through the fold, so a broken
   commit path cannot hide behind float noise).
3. **Eligibility gating** — programs without a sound algebra are refused
   with a concrete witness, including declared-but-false algebras that
   only small-graph search can catch.

The property-based suite at the bottom checks the ``CombineOp`` algebra
on its elementwise ufunc, with NaN/±inf (the same fold the eligibility
probe verifies), and holds the propagation fold in gather order
bit-equal to a destination-major regroup-then-fold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFS,
    SSSP,
    AntiParity,
    ConflictColoring,
    EdgeIncrementCounter,
    PageRank,
    WeaklyConnectedComponents,
)
from repro.engine import CombineOp, EngineConfig, Refused, run
from repro.engine.capabilities import ROWS
from repro.engine.nondet_delta import (
    DeltaKernel,
    delta_fallback_reasons,
    resolve_delta_kernel,
    run_delta,
)
from repro.graph import generators
from repro.graph.mutations import stable_weights
from repro.theory import Verdict, check_delta_program, probe_delta_algebra

EPS = 1e-4


def _graph(scale=8):
    return generators.rmat(scale, 8.0, seed=3)


def _sssp():
    return SSSP(source=0, weight_fn=lambda g: stable_weights(g, seed=5))


MIN_KERNELS = {
    "wcc": WeaklyConnectedComponents,
    "sssp": _sssp,
    "bfs": BFS,
}


def _recompute(factory, graph, seed=0):
    res = run(factory(), graph, mode="nondeterministic",
              vectorized="require", config=EngineConfig(threads=4, seed=seed))
    assert res.converged
    return res.result()


def _pagerank_reference(graph, *, damping=0.85):
    """Dense float64 fixpoint iterated far below the engines' epsilon."""
    n = graph.num_vertices
    outdeg = np.maximum(graph.out_degrees(), 1).astype(np.float64)
    x = np.full(n, 1.0 - damping)
    for _ in range(10_000):
        nxt = np.full(n, 1.0 - damping)
        np.add.at(nxt, graph.edge_dst,
                  damping * x[graph.edge_src] / outdeg[graph.edge_src])
        if np.max(np.abs(nxt - x)) < 1e-14:
            return nxt
        x = nxt
    return x


class TestDeltaEquivalence:
    @pytest.mark.parametrize("name", sorted(MIN_KERNELS))
    @pytest.mark.parametrize("seed", [1, 2])
    def test_min_kernels_bit_exact(self, name, seed):
        """Idempotent ⊕: any delivery order folds to the same values."""
        graph = _graph()
        factory = MIN_KERNELS[name]
        res = run_delta(factory(), graph,
                        EngineConfig(threads=4, seed=seed))
        assert res.converged
        assert res.extra["delta"]["accumulation_identity"]
        assert np.array_equal(res.result(), _recompute(factory, graph))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_pagerank_matches_reference(self, seed):
        """ADD: delta lands within truncation noise of the true fixpoint.

        The bound is against a dense reference iterated to 1e-14, not
        against the recompute engine — the *recompute* result carries
        ~100ε of its own truncation (it stops when local change < ε),
        while delta's residual-mass threshold keeps it within a few ε.
        """
        graph = _graph()
        ref = _pagerank_reference(graph)
        res = run_delta(PageRank(epsilon=EPS), graph,
                        EngineConfig(threads=4, seed=seed))
        assert res.converged
        assert res.extra["delta"]["accumulation_identity"]
        assert np.max(np.abs(res.result() - ref)) <= 20 * EPS
        recompute = _recompute(lambda: PageRank(epsilon=EPS), graph)
        assert np.max(np.abs(res.result() - recompute)) <= 300 * EPS

    def test_accumulation_identity_is_exact(self):
        """x is *defined* by the fold: identity holds bit-for-bit."""
        graph = _graph(7)
        for factory in (lambda: PageRank(epsilon=EPS), _sssp):
            res = run_delta(factory(), graph, EngineConfig(seed=0))
            assert res.extra["delta"]["accumulation_identity"] is True

    def test_priority_scheduling_converges_to_same_fixpoint(self):
        graph = _graph()
        base = _recompute(_sssp, graph)
        res = run_delta(_sssp(), graph, EngineConfig(threads=4, seed=3),
                        scheduling="priority", priority_frac=0.25)
        assert res.converged
        assert res.extra["delta"]["scheduling"] == "priority"
        assert np.array_equal(res.result(), base)

    def test_threshold_trades_accuracy_for_iterations(self):
        graph = _graph()
        tight = run_delta(PageRank(epsilon=EPS), graph, EngineConfig(seed=0),
                          threshold=1e-8)
        loose = run_delta(PageRank(epsilon=EPS), graph, EngineConfig(seed=0),
                          threshold=1e-4)
        assert loose.num_iterations < tight.num_iterations
        ref = _pagerank_reference(graph)
        err_tight = np.max(np.abs(tight.result() - ref))
        err_loose = np.max(np.abs(loose.result() - ref))
        assert err_tight <= err_loose


class TestEligibilityGate:
    @pytest.mark.parametrize("factory", [
        lambda: PageRank(epsilon=EPS), _sssp, BFS,
        WeaklyConnectedComponents,
    ])
    def test_eligible_kernels(self, factory):
        report = check_delta_program(factory())
        assert report.verdict is Verdict.ELIGIBLE_DELTA
        assert any("accumulative formulation verified" in r
                   for r in report.reasons)

    def test_pagerank_warns_about_exactly_once(self):
        report = check_delta_program(PageRank(epsilon=EPS))
        assert not report.results_deterministic
        assert any("exactly-once" in w for w in report.warnings)

    def test_min_kernels_results_deterministic(self):
        assert check_delta_program(_sssp()).results_deterministic

    @pytest.mark.parametrize("factory", [
        AntiParity, EdgeIncrementCounter, ConflictColoring,
    ])
    def test_ineligible_programs_refused(self, factory):
        program = factory()
        report = check_delta_program(program)
        assert not report.verdict.eligible
        assert delta_fallback_reasons(program)
        with pytest.raises(ValueError, match="not eligible"):
            run_delta(program, _graph(6))

    def test_antiparity_refusal_carries_live_witness(self):
        """The refusal demonstrates the failure, not just asserts it."""
        report = check_delta_program(AntiParity())
        assert any("witness" in r or "oscillat" in r for r in report.reasons)

    def test_declared_but_false_algebra_refuted_by_probe(self):
        """A kernel whose g does not distribute over ⊕ is caught by
        small-graph search even though its structural traits look fine."""

        class SquaringKernel(DeltaKernel):
            op = CombineOp.MIN
            field = "dist"

            def initial(self, graph):
                n = graph.num_vertices
                d = np.full(n, np.inf)
                d[0] = 0.0
                return np.full(n, np.inf), d

            def gains(self, graph, eids, values):
                return np.asarray(values) ** 2  # min(a,b)^2 != min(a^2,b^2)
                # for negative probe values — not distributive.

        witness = probe_delta_algebra(SquaringKernel(_sssp()))
        assert witness is not None
        assert "distribut" in witness

    def test_runner_guards(self):
        # run() checks the switch values before run_delta sees them; the
        # mode × switch product is tests/test_capabilities.py's property.
        with pytest.raises(Refused, match="delta_scheduling='greedy'"):
            run(_sssp(), _graph(6), mode="delta", delta_scheduling="greedy")

    def test_push_direction_refused(self):
        """Delta folds in gather order only; the table says why."""
        with pytest.raises(Refused) as refused:
            run(WeaklyConnectedComponents(), _graph(6), mode="delta",
                direction="push")
        assert refused.value.reason == ROWS["delta"].direction.reason

    def _refused_config(self, **flag):
        with pytest.raises(Refused) as refused:
            run(PageRank(), _graph(6), mode="delta", **flag)
        assert refused.value.reason.startswith(f"{next(iter(flag))} does "
                                               "not apply to mode='delta'")

    def test_fp_noise_refused(self):
        self._refused_config(fp_noise=True)

    def test_keep_conflict_events_refused(self):
        self._refused_config(keep_conflict_events=True)

    def test_validate_scope_refused(self):
        self._refused_config(validate_scope=True)

    def test_runner_dispatches_delta(self):
        graph = _graph(7)
        res = run(_sssp(), graph, mode="delta",
                  config=EngineConfig(threads=2, seed=0))
        assert res.mode == "delta"
        assert np.array_equal(res.result(), _recompute(_sssp, graph))

    def test_resolve_kernel_walks_mro(self):
        """BFS has no kernel of its own; it inherits SSSP's because it
        does not override update()."""
        kernel_cls = resolve_delta_kernel(BFS())
        assert kernel_cls is resolve_delta_kernel(_sssp())


class TestDeltaTelemetry:
    def test_phases_and_spans(self):
        from repro.obs import Telemetry

        sink = Telemetry()
        res = run_delta(_sssp(), _graph(7), EngineConfig(seed=0),
                        telemetry=sink)
        assert res.converged
        assert len(sink.spans) == res.num_iterations
        phases = set()
        for span in sink.spans:
            phases.update(span.extra.get("phases", {}))
        assert {"delta_commit", "delta_propagate"} <= phases

    def test_metrics_registry(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run_delta(_sssp(), _graph(7), EngineConfig(seed=0), metrics=metrics)
        text = metrics.to_prometheus()
        assert "delta_commit" in text


# ---------------------------------------------------------------------------
# CombineOp algebra on ``op.ufunc`` (property-based, incl. NaN / ±inf);
# test_push_mode.py checks delivery order into an accumulator
# (``op.ufunc.at``).
# ---------------------------------------------------------------------------

_any_float = st.floats(allow_nan=True, allow_infinity=True)
_exact_ints = st.integers(-(2 ** 26), 2 ** 26).map(float)
_FOLD_SETTINGS = dict(max_examples=200, deadline=None)
_OPS = (CombineOp.MIN, CombineOp.MAX, CombineOp.ADD)


def _aeq(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(np.atleast_1d(a), np.atleast_1d(b),
                          equal_nan=True)


class TestFoldArrProperties:
    @settings(**_FOLD_SETTINGS)
    @given(st.lists(_any_float, min_size=1, max_size=8),
           st.lists(_any_float, min_size=1, max_size=8))
    def test_commutative(self, xs, ys):
        k = min(len(xs), len(ys))
        a, b = np.array(xs[:k]), np.array(ys[:k])
        for op in _OPS:
            assert _aeq(op.ufunc(a, b), op.ufunc(b, a)), op

    @settings(**_FOLD_SETTINGS)
    @given(_any_float, _any_float, _any_float)
    def test_min_max_associative(self, a, b, c):
        a, b, c = np.array([a]), np.array([b]), np.array([c])
        for op in (CombineOp.MIN, CombineOp.MAX):
            assert _aeq(op.ufunc(op.ufunc(a, b), c),
                        op.ufunc(a, op.ufunc(b, c))), op

    @settings(**_FOLD_SETTINGS)
    @given(_exact_ints, _exact_ints, _exact_ints)
    def test_add_associative_on_exact_values(self, a, b, c):
        op = CombineOp.ADD
        a, b, c = np.array([a]), np.array([b]), np.array([c])
        assert _aeq(op.ufunc(op.ufunc(a, b), c),
                    op.ufunc(a, op.ufunc(b, c)))

    @settings(**_FOLD_SETTINGS)
    @given(st.lists(_any_float, min_size=1, max_size=8))
    def test_identity_element(self, xs):
        a = np.array(xs)
        for op in _OPS:
            ident = np.full(a.shape, op.identity)
            assert _aeq(op.ufunc(ident, a), a), op

    @settings(**_FOLD_SETTINGS)
    @given(st.lists(_any_float, min_size=1, max_size=8))
    def test_min_max_idempotent(self, xs):
        a = np.array(xs)
        for op in (CombineOp.MIN, CombineOp.MAX):
            assert _aeq(op.ufunc(a, a), a), op

    @settings(**_FOLD_SETTINGS)
    @given(_any_float)
    def test_matches_scalar_fold(self, v):
        """The eligibility probe folds Python floats, the engine arrays:
        one ufunc, the same value (NaN included) paired with a finite
        one."""
        for op in _OPS:
            arr = float(op.ufunc(np.array([v]), np.array([1.0]))[0])
            scalar = float(op.ufunc(v, 1.0))
            assert (arr != arr and scalar != scalar) or arr == scalar, op

    def test_nan_symmetric(self):
        nan = np.array([np.nan])
        one = np.array([1.0])
        for op in _OPS:
            assert np.isnan(op.ufunc(nan, one)[0])
            assert np.isnan(op.ufunc(one, nan)[0])


class TestAccumulationIdentityProperty:
    """The Maiter identity under randomized schedules: whatever the
    seed (i.e. commit permutation), x == x0 ⊕ accum exactly."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_identity_across_schedules(self, seed):
        graph = generators.rmat(6, 8.0, seed=3)
        res = run_delta(_sssp(), graph, EngineConfig(threads=2, seed=seed))
        assert res.extra["delta"]["accumulation_identity"] is True
        assert np.array_equal(res.result(), _recompute(_sssp, graph))


def _regroup_then_fold(op, target, idx, contrib):
    """The fold ``_propagate`` used to run: regroup contributions
    destination-major with a stable sort, then fold."""
    regroup = np.argsort(idx, kind="stable")
    op.ufunc.at(target, idx[regroup], contrib[regroup])


@st.composite
def _gathered(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = st.floats(width=32 if dtype is np.float32 else 64)
    n = draw(st.integers(1, 6))
    idx = draw(st.lists(st.integers(0, n - 1), max_size=40))
    contrib = draw(st.lists(values, min_size=len(idx), max_size=len(idx)))
    target = draw(st.lists(values, min_size=n, max_size=n))
    return (np.array(target, dtype), np.array(idx, np.int64),
            np.array(contrib, dtype))


class TestGatherOrderFold:
    """Folding in gather order is bit-equal to the stable regroup the
    delta engine no longer runs: each destination still receives its
    contributions in the same relative order."""

    @settings(max_examples=300, deadline=None)
    @given(_gathered())
    def test_gather_order_equals_regroup(self, case):
        target, idx, contrib = case
        for op in (CombineOp.ADD, CombineOp.MIN):
            got, want = target.copy(), target.copy()
            with np.errstate(all="ignore"):  # inf - inf, NaN: same bits
                op.ufunc.at(got, idx, contrib)
                _regroup_then_fold(op, want, idx, contrib)
            assert got.tobytes() == want.tobytes(), op
