"""Push mode on the delta engine: vertex accumulators, atomic and racy
combines, and the push-mode sufficient condition.

A delta step pushes ``g(Δ)`` into its out-neighbours' accumulators with
an atomic combine; ``atomicity=NONE`` makes the combine racy: model
thread *t* commits chunk *t* of a round's order, and a combine from a
thread above the lowest one reaching its target is lost with
``torn_probability``.
"""

import numpy as np
import pytest

from repro.algorithms import BFS, PageRank, WeaklyConnectedComponents, reference
from repro.engine import AtomicityPolicy, CombineOp, EngineConfig, Refused, run
from repro.engine.nondet_delta import _active_ids, _propagate, resolve_delta_kernel
from repro.graph import DiGraph
from repro.theory import Verdict, check_push_program

#: a racy (non-atomic) combine
RACY = dict(atomicity=AtomicityPolicy.NONE, torn_probability=0.3)


def _delta(program, graph, **kwargs):
    return run(program, graph, mode="delta", **kwargs)


def _combines(program) -> dict:
    kernel = resolve_delta_kernel(program)
    return {kernel.field: kernel.op}


class TestCombineOp:
    def test_min_fold(self):
        assert CombineOp.MIN.ufunc(3.0, 5.0) == 3.0
        assert CombineOp.MIN.identity == np.inf

    def test_max_fold(self):
        assert CombineOp.MAX.ufunc(3.0, 5.0) == 5.0
        assert CombineOp.MAX.identity == -np.inf

    def test_add_fold(self):
        assert CombineOp.ADD.ufunc(3.0, 5.0) == 8.0
        assert CombineOp.ADD.identity == 0.0

    def test_idempotence_classification(self):
        assert CombineOp.MIN.idempotent
        assert CombineOp.MAX.idempotent
        assert not CombineOp.ADD.idempotent

    def test_all_commutative_associative(self):
        for op in CombineOp:
            assert op.commutative_associative


class TestPushBFS:
    @pytest.mark.parametrize("mode", ["deterministic", "nondeterministic"])
    def test_exact_levels(self, er_medium, mode):
        threads = {"deterministic": 1, "nondeterministic": 8}[mode]
        res = _delta(BFS(source=0), er_medium, threads=threads, seed=1)
        assert res.converged
        assert np.array_equal(res.result(), reference.bfs_reference(er_medium, 0))

    @pytest.mark.parametrize("seed", range(4))
    def test_schedule_independent(self, rmat_small, seed):
        res = _delta(BFS(source=0), rmat_small, threads=16, seed=seed)
        assert np.array_equal(res.result(), reference.bfs_reference(rmat_small, 0))

    def test_unreachable_stay_infinite(self):
        g = DiGraph(4, [0], [1])
        res = _delta(BFS(source=0), g, threads=2, seed=0)
        assert res.result()[2] == np.inf

    def test_accumulator_contention_logged(self, rmat_small):
        res = _delta(BFS(source=0), rmat_small, threads=8, seed=0, **RACY)
        # vertices with several in-neighbours on different threads race
        assert res.conflicts.write_write > 0

    def test_source_validation(self):
        with pytest.raises(ValueError):
            BFS(source=-1)
        g = DiGraph(2, [0], [1])
        with pytest.raises(ValueError, match="out of range"):
            _delta(BFS(source=5), g)


class TestPushPageRank:
    def test_validation(self):
        with pytest.raises(ValueError):
            PageRank(epsilon=0.0)
        with pytest.raises(ValueError):
            PageRank(damping=1.0)

    def test_matches_pull_fixed_point(self, rmat_small):
        res = _delta(PageRank(epsilon=1e-7), rmat_small, threads=8, seed=1)
        assert res.converged
        ref = reference.pagerank_reference(rmat_small)
        assert np.max(np.abs(res.result() - ref)) < 1e-3

    def test_deterministic_mode_matches_too(self, rmat_small):
        res = _delta(PageRank(epsilon=1e-7), rmat_small, threads=1)
        ref = reference.pagerank_reference(rmat_small)
        assert np.max(np.abs(res.result() - ref)) < 1e-3

    def test_lost_updates_corrupt_fixed_point(self, rmat_small):
        """The push-mode condition's warning, demonstrated: without the
        atomic combine, lost ADD contributions wreck the ranks."""
        ref = reference.pagerank_reference(rmat_small)
        res = _delta(PageRank(epsilon=1e-7), rmat_small, threads=8, seed=1,
                     atomicity=AtomicityPolicy.NONE, torn_probability=0.5)
        assert res.conflicts.lost_writes > 0
        assert np.max(np.abs(res.result() - ref)) > 0.01

    def test_min_combine_survives_lost_updates(self, rmat_small):
        """A lost MIN contribution only leaves a value too high: every
        finite distance is still a path length >= the truth."""
        truth = reference.bfs_reference(rmat_small, 0)
        res = _delta(BFS(source=0), rmat_small, threads=8, seed=1, **RACY)
        assert res.converged and res.conflicts.lost_writes > 0
        finite = np.isfinite(res.result())
        assert np.all(res.result()[finite] >= truth[finite])


class TestPushMinReach:
    """Minimum-label reach by MIN pushes: delta WCC, which pushes both
    ways along every edge."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, rmat_small, seed):
        res = _delta(WeaklyConnectedComponents(), rmat_small, threads=8, seed=seed)
        assert res.converged
        assert np.array_equal(res.result(), reference.wcc_reference(rmat_small))

    def test_on_dag(self):
        g = DiGraph(5, [0, 1, 2, 3], [1, 2, 3, 4])  # chain 0->1->2->3->4
        res = _delta(WeaklyConnectedComponents(), g, threads=2, seed=0)
        assert res.result().tolist() == [0, 0, 0, 0, 0]

    def test_directional(self):
        g = DiGraph(3, [2], [1])  # only 2 -> 1
        res = _delta(WeaklyConnectedComponents(), g, threads=2, seed=0)
        # the label flows against the edge too; vertex 0 isolated.
        assert res.result().tolist() == [0, 1, 1]


class TestPushEligibility:
    def test_push_bfs_eligible(self):
        bfs = BFS(source=0)
        report = check_push_program(bfs.traits, _combines(bfs))
        assert report.verdict is Verdict.ELIGIBLE_PUSH
        assert report.results_deterministic

    def test_push_pagerank_eligible_with_warning(self):
        pr = PageRank()
        report = check_push_program(pr.traits, _combines(pr))
        assert report.verdict is Verdict.ELIGIBLE_PUSH
        assert any("exactly once" in w for w in report.warnings)
        assert not report.results_deterministic

    def test_nonconvergent_push_not_established(self):
        from repro.engine import AlgorithmTraits, ConflictProfile

        traits = AlgorithmTraits(
            name="x",
            conflict_profile=ConflictProfile.WRITE_WRITE,
            converges_synchronously=False,
            converges_async_deterministic=False,
        )
        report = check_push_program(traits, _combines(BFS(source=0)))
        assert report.verdict is Verdict.NOT_ESTABLISHED


class TestRunPushApi:
    def test_bad_mode(self, path8):
        # push mode is the delta engine, not a mode of its own
        with pytest.raises(Refused, match="unknown mode 'push'"):
            run(BFS(source=0), path8, mode="push")

    def test_config_kwargs_exclusive(self, path8):
        with pytest.raises(ValueError, match="not both"):
            _delta(BFS(source=0), path8, config=EngineConfig(), threads=2)

    def test_observer_called(self, path8):
        calls = []
        _delta(BFS(source=0), path8, threads=2, seed=0,
               observer=lambda it, state, sched: calls.append(it))
        assert calls == sorted(calls)
        assert calls

    def test_reproducible(self, rmat_small):
        a, b = (_delta(PageRank(epsilon=1e-5), rmat_small, threads=8, seed=3,
                       **RACY) for _ in range(2))
        assert np.array_equal(a.result(), b.result())
        assert a.conflicts.summary() == b.conflicts.summary()


# ---------------------------------------------------------------------------
# a lost combine never reaches Δ, so it never activates its target
# ---------------------------------------------------------------------------

def _push_into_2(lost: bool, src=(0, 1), values=(3.0, 0.0)):
    """Vertices ``src`` on model threads 0, 1, ... push BFS levels
    ``values + 1`` into vertex 2, whose committed level is 2.  Returns
    whether vertex 2 is active afterwards and the racing counts asked."""
    graph = DiGraph(3, list(src), [2] * len(src))
    kernel = resolve_delta_kernel(BFS(source=0))(BFS(source=0))
    x = np.array([0.0, 0.0, 2.0])
    delta = np.full(3, np.inf)
    asked = []

    def lose(racing):
        asked.append(racing)
        return np.full(racing, lost)

    order = np.array(src)
    _propagate(kernel, graph, order, np.array(values), delta,
               graph.out_degrees(), None, (np.arange(order.size), lose))
    return 2 in _active_ids(CombineOp.MIN, x, delta, 0.0), asked


class TestLostPushScheduling:
    def test_lost_push_does_not_schedule(self):
        """Thread 1's level 1 races thread 0's level 4 and is lost: only
        the 4 lands, which does not improve level 2, so vertex 2 stays
        inactive."""
        active, asked = _push_into_2(lost=True)
        assert asked == [1]
        assert not active, "a lost combine activated its target"
        delivered, _ = _push_into_2(lost=False)
        assert delivered

    def test_delivered_push_schedules(self):
        active, asked = _push_into_2(lost=True, src=(1,), values=(0.0,))
        assert asked == [0]  # nothing races, so nothing can be lost
        assert active


# ---------------------------------------------------------------------------
# delivery order into an accumulator: the unbuffered ``op.ufunc.at``
# scatter the delta engine folds Δ with (property-based, incl. NaN / ±inf)
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_any_float = st.floats(allow_nan=True, allow_infinity=True)
_exact_ints = st.integers(-(2 ** 26), 2 ** 26).map(float)
_FOLD_SETTINGS = dict(max_examples=200, deadline=None)


def _deliver(op: CombineOp, *values: float) -> np.ndarray:
    """``values`` combined into one identity accumulator, in order."""
    acc = np.full(1, op.identity)
    with np.errstate(all="ignore"):  # inf - inf, overflow: IEEE results
        op.ufunc.at(acc, np.zeros(len(values), dtype=np.int64),
                    np.array(values))
    return acc


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b, equal_nan=True)


class TestCombineFoldProperties:
    @settings(**_FOLD_SETTINGS)
    @given(_any_float, _any_float)
    def test_min_max_commutative(self, a, b):
        for op in (CombineOp.MIN, CombineOp.MAX):
            assert _same(_deliver(op, a, b), _deliver(op, b, a)), (op, a, b)

    @settings(**_FOLD_SETTINGS)
    @given(_any_float, _any_float, _any_float)
    def test_min_max_associative(self, a, b, c):
        for op in (CombineOp.MIN, CombineOp.MAX):
            orders = [(a, b, c), (b, c, a), (c, a, b), (c, b, a)]
            first = _deliver(op, *orders[0])
            assert all(_same(first, _deliver(op, *o)) for o in orders), op

    @settings(**_FOLD_SETTINGS)
    @given(_any_float)
    def test_min_max_idempotent(self, a):
        for op in (CombineOp.MIN, CombineOp.MAX):
            assert _same(_deliver(op, a, a), _deliver(op, a)), (op, a)

    @settings(**_FOLD_SETTINGS)
    @given(_any_float, _any_float)
    def test_add_commutative(self, a, b):
        op = CombineOp.ADD
        assert _same(_deliver(op, a, b), _deliver(op, b, a))

    @settings(**_FOLD_SETTINGS)
    @given(_exact_ints, _exact_ints, _exact_ints)
    def test_add_associative_on_exact_values(self, a, b, c):
        # IEEE ADD is not associative in general; the algebra only
        # claims delivery-order independence on exactly representable
        # contributions (sums stay well under 2**53 here).
        op = CombineOp.ADD
        assert _same(_deliver(op, a, b, c), _deliver(op, c, a, b))

    @settings(**_FOLD_SETTINGS)
    @given(_any_float)
    def test_identity_element(self, a):
        for op in CombineOp:
            assert _same(_deliver(op, a), np.array([a])), (op, a)

    def test_nan_propagates_symmetrically(self):
        nan = float("nan")
        for op in (CombineOp.MIN, CombineOp.MAX):
            assert np.isnan(_deliver(op, nan, 1.0)[0])
            assert _same(_deliver(op, nan, 1.0), _deliver(op, 1.0, nan))
