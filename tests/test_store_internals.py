"""White-box tests of the engines' store internals.

These pin down behaviours the black-box suites only exercise
indirectly: the object engines' edge store (``EdgeHistory``: its
latest-visible-write selection, its barrier-free compaction, and a
generated attack against a brute-force Defs. 1–3 oracle) and the delta
engine's push combine (atomic, racing, lost).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    AtomicityPolicy,
    ConflictLog,
    DelayModel,
    FieldSpec,
    State,
    tear,
)
from repro.engine.edge_history import EdgeHistory
from repro.engine.nondet_delta import CombineOp, DeltaKernel, _propagate
from repro.graph import DiGraph


def edge_state(n_edges=4, init=0.0):
    g = DiGraph(n_edges + 1, list(range(n_edges)), [n_edges] * n_edges)
    return State(g, {}, {"e": FieldSpec(np.float64, init)})


def at(store, time, thread):
    store.time, store.thread = float(time), thread
    return store


class TestRacyStoreSelection:
    """The barrier form (nondeterministic engine)."""

    def make(self, state, delay=2.0):
        return EdgeHistory(state, DelayModel.uniform(delay),
                           AtomicityPolicy.CACHE_LINE, 0.0, None,
                           barrier=True, sees_own=False)

    def test_latest_visible_write_wins(self):
        state = edge_state()
        store = self.make(state)
        at(store, 0.0, 0).write(1, 0, "e", 10.0)
        at(store, 1.0, 0).write(2, 0, "e", 20.0)
        assert at(store, 2.0, 0).read(3, 0, "e") == 20.0

    def test_invisible_concurrent_write_returns_committed(self):
        state = edge_state(init=-1.0)
        store = self.make(state, delay=2.0)
        at(store, 0.0, 0).write(1, 0, "e", 10.0)
        # reader on another thread within the window: sees committed -1
        assert at(store, 1.0, 1).read(2, 0, "e") == -1.0
        assert store.stale_reads == 1

    def test_commit_applies_max_timestamp(self):
        state = edge_state()
        store = self.make(state)
        at(store, 0.0, 0).write(1, 0, "e", 10.0)
        at(store, 0.4, 1).write(2, 0, "e", 20.0)
        log = ConflictLog()
        store.commit(0, log)
        assert state.edge("e")[0] == 20.0
        assert log.write_write == 1
        assert log.lost_writes == 1


class TestVersionedStoreCompaction:
    """The barrier-free form (pure-async engine)."""

    def make(self, state):
        return EdgeHistory(state, DelayModel.uniform(2.0),
                           AtomicityPolicy.CACHE_LINE, 0.0, None,
                           barrier=False, sees_own=True)

    def test_history_pruned_beyond_threshold(self):
        state = edge_state()
        store = self.make(state)
        for i in range(store.PRUNE_THRESHOLD * 3):
            at(store, i, 0).write(1, 0, "e", float(i))
        writes, _, fold_key, _ = store._edges["e"][0]
        assert len(writes) <= store.PRUNE_THRESHOLD + 1
        # the newest fully-propagated value moved into the fold
        assert fold_key is not None

    def test_reads_correct_after_compaction(self):
        state = edge_state()
        store = self.make(state)
        for i in range(64):
            at(store, i, 0).write(1, 0, "e", float(i))
        # a reader far in the future sees the newest value
        assert at(store, 100.0, 1).read(2, 0, "e") == 63.0

    def test_finalize_uses_base_when_tail_empty(self):
        state = edge_state()
        store = self.make(state)
        for i in range(40):
            at(store, i, 0).write(1, 0, "e", float(i))
        # force one more compaction pass far in the future
        edge = store._edges["e"][0]
        store._observe(edge, 1, 1000.0, 0)
        del edge[0][: edge[1]]
        edge[1] = 0
        store.commit(0, ConflictLog())
        assert state.edge("e")[0] == 39.0

    def test_tied_writes_read_as_they_commit(self):
        """Lemma 2's ``(t, vid)`` key breaks a read's tie among visible
        writes the way the commit does: threads 0 and 1 both write at
        t = 0, and a later reader on thread 2 reads the value that
        commits, not the first one appended."""
        state = edge_state()
        store = self.make(state)
        at(store, 0.0, 0).write(1, 0, "e", 10.0)
        at(store, 0.0, 1).write(2, 0, "e", 20.0)
        seen = at(store, 2.0, 2).read(3, 0, "e")
        store.commit(0, ConflictLog())
        assert seen == state.edge("e")[0] == 20.0


# ---------------------------------------------------------------------------
# generated attack: the store against a brute-force Defs. 1-3 oracle
# ---------------------------------------------------------------------------

DELAYS = [DelayModel.uniform(2.0), DelayModel.uniform(1.0),
          DelayModel.numa(2, intra=1.0, inter=3.0),
          DelayModel.distributed(1, intra=1.0, network=4.0)]


class _EagerFold(EdgeHistory):
    """Barrier-free store that folds (and drops) after every write."""

    PRUNE_THRESHOLD = 0


@st.composite
def histories(draw):
    """Time-ordered reads and writes on two edges: several vids, each on
    its own drawn thread, times on an exact grid with equal-time ties."""
    owner = draw(st.lists(st.integers(0, 3), min_size=5, max_size=5))
    steps = draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0]),
        st.booleans(), st.integers(0, 4), st.integers(0, 1)), min_size=8,
        max_size=40))
    events, t = [], 0.0
    for i, (dt, is_write, vid, eid) in enumerate(steps):
        t += dt
        events.append((t, owner[vid], vid, eid, is_write, 1.0 + i / 3.0))
    return events, draw(st.sampled_from(DELAYS))


@settings(max_examples=300, deadline=None)
@given(histories(), st.sampled_from(["eager", "never", "lazy"]),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_store_matches_brute_force_oracle(case, fold, sees_own, seed):
    """``read()`` is the max ``(t, vid)`` write ``DelayModel.visible``
    admits (own writes too when ``sees_own``), else the committed value;
    it is stale iff it missed a write that is neither visible nor its
    own, and an ``atomicity=NONE`` read tears with the last cross-thread
    missed write.  The fold changes none of it, and the commit is Lemma
    2's max ``(t, vid)`` write."""
    events, dm = case
    state = edge_state(n_edges=2, init=-1.0)
    kind = _EagerFold if fold == "eager" else EdgeHistory
    store = kind(state, dm, AtomicityPolicy.NONE, 1.0,
                 np.random.default_rng(seed), barrier=fold == "lazy",
                 sees_own=sees_own)
    if fold == "never":
        store._max_delay = float("inf")
    oracle_rng = np.random.default_rng(seed)
    written: dict[int, list] = {0: [], 1: []}
    for t, thread, vid, eid, is_write, value in events:
        at(store, t, thread)
        if is_write:
            store.write(vid, eid, "e", value)
            written[eid].append((t, thread, vid, value))
            continue
        seen = [w for w in written[eid] if dm.visible(w[0], w[1], t, thread)
                or (sees_own and w[2] == vid)]
        missed = [w for w in written[eid] if w not in seen and w[2] != vid]
        expected = max(seen, key=lambda w: (w[0], w[2]))[3] if seen else -1.0
        racing = [w[3] for w in missed if w[1] != thread]
        if racing:
            oracle_rng.random()
            expected = tear(expected, racing[-1], oracle_rng)
        stale_before = store.stale_reads
        assert store.read(vid, eid, "e") == expected
        assert store.stale_reads - stale_before == (1 if missed else 0)
    if fold != "lazy":  # the barrier commit tears racing losers in
        store.commit(0, ConflictLog())
        for eid, ws in written.items():
            final = max(ws, key=lambda w: (w[0], w[2]))[3] if ws else -1.0
            assert state.edge("e")[eid] == final


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
