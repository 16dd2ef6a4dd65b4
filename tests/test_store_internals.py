"""White-box tests of the engines' store internals.

These pin down behaviours the black-box suites only exercise
indirectly: the pure-async version-history compaction, the delta
engine's push combine (atomic, racing, lost), and the racy store's
latest-visible-write selection.
"""

import numpy as np

from repro.engine import (
    AtomicityPolicy,
    ConflictLog,
    DelayModel,
    FieldSpec,
    State,
    TaskSlot,
)
from repro.engine.nondet_engine import _RacyStore
from repro.engine.pure_async import _VersionedStore
from repro.engine.nondet_delta import CombineOp, DeltaKernel, _propagate
from repro.graph import DiGraph


def edge_state(n_edges=4, init=0.0):
    g = DiGraph(n_edges + 1, list(range(n_edges)), [n_edges] * n_edges)
    return State(g, {}, {"e": FieldSpec(np.float64, init)})


class TestRacyStoreSelection:
    def make(self, state, delay=2.0):
        committed = {f: state.edge(f) for f in state.edge_field_names}
        return _RacyStore(
            committed, DelayModel.uniform(delay), AtomicityPolicy.CACHE_LINE, 0.0, None
        )

    def test_latest_visible_write_wins(self):
        state = edge_state()
        store = self.make(state)
        store.current = TaskSlot(vid=1, thread=0, pi=0, time=0.0)
        store.write(1, 0, "e", 10.0)
        store.current = TaskSlot(vid=2, thread=0, pi=1, time=1.0)
        store.write(2, 0, "e", 20.0)
        store.current = TaskSlot(vid=3, thread=0, pi=2, time=2.0)
        assert store.read(3, 0, "e") == 20.0

    def test_invisible_concurrent_write_returns_committed(self):
        state = edge_state(init=-1.0)
        store = self.make(state, delay=2.0)
        store.current = TaskSlot(vid=1, thread=0, pi=0, time=0.0)
        store.write(1, 0, "e", 10.0)
        # reader on another thread within the window: sees committed -1
        store.current = TaskSlot(vid=2, thread=1, pi=1, time=1.0)
        assert store.read(2, 0, "e") == -1.0
        assert store.stale_reads == 1

    def test_commit_applies_max_timestamp(self):
        state = edge_state()
        store = self.make(state)
        store.current = TaskSlot(vid=1, thread=0, pi=0, time=0.0)
        store.write(1, 0, "e", 10.0)
        store.current = TaskSlot(vid=2, thread=1, pi=0, time=0.4)
        store.write(2, 0, "e", 20.0)
        log = ConflictLog()
        store.commit(state, 0, log)
        assert state.edge("e")[0] == 20.0
        assert log.write_write == 1
        assert log.lost_writes == 1


class TestVersionedStoreCompaction:
    def make(self, state):
        return _VersionedStore(
            state, DelayModel.uniform(2.0), AtomicityPolicy.CACHE_LINE, 0.0, None
        )

    def test_history_pruned_beyond_threshold(self):
        state = edge_state()
        store = self.make(state)
        n_writes = store.PRUNE_THRESHOLD * 3
        for i in range(n_writes):
            store.current_thread = 0
            store.current_time = float(i)
            store.write(1, 0, "e", float(i))
        hist = store._history[("e", 0)]
        assert len(hist) <= store.PRUNE_THRESHOLD + 1
        # the newest fully-propagated value moved into the base
        assert ("e", 0) in store._base

    def test_reads_correct_after_compaction(self):
        state = edge_state()
        store = self.make(state)
        for i in range(64):
            store.current_thread = 0
            store.current_time = float(i)
            store.write(1, 0, "e", float(i))
        # a reader far in the future sees the newest value
        store.current_thread = 1
        store.current_time = 100.0
        assert store.read(2, 0, "e") == 63.0

    def test_finalize_uses_base_when_tail_empty(self):
        state = edge_state()
        store = self.make(state)
        for i in range(40):
            store.current_thread = 0
            store.current_time = float(i)
            store.write(1, 0, "e", float(i))
        # force one more compaction pass far in the future
        store.current_time = 1000.0
        store._compact(("e", 0), store._history[("e", 0)])
        log = ConflictLog()
        store.finalize(log)
        assert state.edge("e")[0] == 39.0


class _Forward(DeltaKernel):
    """``g`` forwards the committed value unchanged, folded by ``op``."""

    def __init__(self, op):
        super().__init__(None)
        self.op = op

    def gains(self, graph, eids, values):
        return np.asarray(values, dtype=np.float64)


class TestPushCombineFold:
    """The delta engine's push combine (``_propagate``): what lands in
    vertex 5's Δ from ``src``, and which racing combines a non-atomic
    combine is asked to lose (``thread``: model thread per source)."""

    def push(self, op, src, values, thread=None, lost=False):
        graph = DiGraph(6, list(src), [5] * len(src))
        delta = np.full(6, op.identity)
        asked = []

        def lose(racing):
            asked.append(racing)
            return np.full(racing, lost)

        race = None if thread is None else (np.array(thread), lose)
        _propagate(_Forward(op), graph, np.array(src), np.array(values),
                   delta, graph.out_degrees(), None, race)
        return delta[5], asked

    def test_min_combine_folds(self):
        assert self.push(CombineOp.MIN, [1, 2], [7.0, 3.0]) == (3.0, [])

    def test_racing_combines_counted(self):
        # thread 1's combine races thread 0's; atomic: both land
        assert self.push(CombineOp.ADD, [1, 2], [1.0, 1.0],
                         thread=[0, 1]) == (2.0, [1])
        # one thread's combines are program-ordered: no race to lose
        assert self.push(CombineOp.ADD, [1, 2], [1.0, 1.0], thread=[0, 0],
                         lost=True) == (2.0, [0])

    def test_lost_update_injection(self):
        assert self.push(CombineOp.ADD, [1, 2], [1.0, 2.0], thread=[0, 1],
                         lost=True) == (1.0, [1])
