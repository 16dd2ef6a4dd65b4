"""Tests for atomicity policies, torn values, and conflict classification."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import (
    AtomicityPolicy,
    ConflictEvent,
    ConflictLog,
    classify_access_counts,
    guarantees_atomicity,
    tear,
)


class TestPolicies:
    def test_guarantees(self):
        assert guarantees_atomicity(AtomicityPolicy.LOCK)
        assert guarantees_atomicity(AtomicityPolicy.CACHE_LINE)
        assert guarantees_atomicity(AtomicityPolicy.ATOMIC_RELAXED)
        assert not guarantees_atomicity(AtomicityPolicy.NONE)

    def test_enum_values(self):
        assert AtomicityPolicy("lock") is AtomicityPolicy.LOCK
        assert AtomicityPolicy("cache-line") is AtomicityPolicy.CACHE_LINE


class TestTear:
    def test_mixes_halves(self):
        rng = np.random.default_rng(0)
        a, b = 1.2345678901234, 9.8765432109876
        seen = {tear(a, b, rng) for _ in range(50)}
        expected = set()
        ua = np.float64(a).view(np.uint64)
        ub = np.float64(b).view(np.uint64)
        hi = np.uint64(0xFFFFFFFF00000000)
        lo = np.uint64(0x00000000FFFFFFFF)
        expected.add(float(((ua & hi) | (ub & lo)).view(np.float64)))
        expected.add(float(((ub & hi) | (ua & lo)).view(np.float64)))
        assert seen <= expected
        assert len(seen) == 2

    def test_small_integer_labels_tear_to_inputs(self):
        """Small ints have zero low mantissa bits: tearing is a no-op.

        This is why WCC is accidentally torn-immune (see ablation A1).
        """
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert tear(5.0, 12.0, rng) in (5.0, 12.0)

    def test_infinity_low_half_is_zero(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            assert tear(np.inf, 7.0, rng) in (np.inf, 7.0)

    def test_never_nan(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = tear(np.nan, 1.5, rng)
            assert not np.isnan(v)

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.floats(allow_nan=False, allow_infinity=False, width=64),
           st.integers(0, 2**31))
    def test_tear_is_deterministic_given_rng_state(self, a, b, seed):
        v1 = tear(a, b, np.random.default_rng(seed))
        v2 = tear(a, b, np.random.default_rng(seed))
        assert v1 == v2 or (np.isnan(v1) and np.isnan(v2))


def W(vid, t=0.0, thread=None):
    # Default: each task on its own thread, so distinct-vid pairs race.
    return ("w", vid, vid if thread is None else thread, t)


def R(vid, t=0.0, thread=None):
    return ("r", vid, vid if thread is None else thread, t)


def classify_accesses(log, iteration, eid, field, accesses, winner):
    """Summarize an access stream as the edge store does — writes as
    ``(vid, thread)`` in issue order, reads as ``{vid: [time, thread,
    count]}`` in first-read order — and classify it."""
    writes = [(vid, thread) for kind, vid, thread, _ in accesses if kind == "w"]
    readers: dict[int, list] = {}
    for kind, vid, thread, t in accesses:
        if kind == "r":
            readers.setdefault(vid, [t, thread, 0])[2] += 1
    classify_access_counts(log, iteration, eid, field, writes, readers, winner)


class TestClassifyAccesses:
    def classify(self, accesses, winner=None):
        log = ConflictLog()
        classify_accesses(log, 0, 0, "e", accesses, winner)
        return log

    def test_no_writes_no_conflicts(self):
        log = self.classify([R(1), R(2)])
        assert log.total == 0

    def test_single_writer_no_readers(self):
        log = self.classify([W(1)], winner=1)
        assert log.total == 0
        assert log.lost_writes == 0

    def test_read_write_pair(self):
        log = self.classify([W(1), R(2)], winner=1)
        assert log.read_write == 1
        assert log.write_write == 0
        assert log.contended_edges == 1

    def test_own_read_then_write_not_a_conflict(self):
        log = self.classify([R(1), W(1)], winner=1)
        assert log.total == 0

    def test_write_write_pair(self):
        log = self.classify([W(1), W(2)], winner=2)
        assert log.write_write == 1
        assert log.lost_writes == 1

    def test_three_writers_three_pairs(self):
        log = self.classify([W(1), W(2), W(3)], winner=3)
        assert log.write_write == 3
        assert log.lost_writes == 2

    def test_mixed(self):
        log = self.classify([W(1), W(2), R(3)], winner=1)
        # R3 conflicts with both writers; writers conflict with each other.
        assert log.read_write == 2
        assert log.write_write == 1

    def test_same_thread_accesses_never_conflict(self):
        """Program-ordered accesses are not races (single-thread runs
        must log zero conflicts)."""
        log = self.classify([W(1, thread=0), R(2, thread=0), W(3, thread=0)], winner=3)
        assert log.total == 0
        assert log.lost_writes == 0

    def test_duplicate_writes_by_same_vid_single_writer(self):
        log = self.classify([W(1, t=0.0), W(1, t=1.0)], winner=1)
        assert log.write_write == 0
        # Same task rewrote the edge; its earlier write is not "lost" to
        # a competitor.
        assert log.lost_writes == 0

    def test_per_iteration_counter(self):
        log = ConflictLog()
        classify_accesses(log, 3, 0, "e", [W(1), R(2)], 1)
        classify_accesses(log, 3, 1, "e", [W(1), R(2)], 1)
        assert log.per_iteration[3] == 2

    def test_event_retention_bounded(self):
        log = ConflictLog(keep_events=True, max_events=2)
        for eid in range(5):
            classify_accesses(log, 0, eid, "e", [W(1), R(2)], 1)
        assert len(log.events) == 2
        assert all(isinstance(e, ConflictEvent) for e in log.events)

    def test_events_not_kept_by_default(self):
        log = ConflictLog()
        classify_accesses(log, 0, 0, "e", [W(1), R(2)], 1)
        assert log.events == []

    def test_events_follow_access_order(self):
        """Kept events replay the access stream: each read against each
        writer in first-write order, then write-write pairs by vid; the
        counters match the counter-only path."""
        stream = [W(3), W(1), R(2), R(2), R(5, thread=3)]
        log = ConflictLog(keep_events=True)
        classify_accesses(log, 4, 0, "e", stream, 3)
        assert [(e.kind, e.first_vid, e.second_vid) for e in log.events] == [
            ("read-write", 3, 2), ("read-write", 1, 2),
            ("read-write", 3, 2), ("read-write", 1, 2),
            ("read-write", 1, 5), ("write-write", 1, 3)]
        bare = ConflictLog()
        classify_accesses(bare, 4, 0, "e", stream, 3)
        assert bare.summary() == log.summary()
        assert bare.per_iteration == log.per_iteration

    def test_unknown_kind_rejected(self):
        log = ConflictLog()
        with pytest.raises(ValueError):
            log.record(ConflictEvent(0, 0, "e", "bogus", 1, 2))

    def test_summary_keys(self):
        log = ConflictLog()
        assert set(log.summary()) == {
            "read_write",
            "write_write",
            "contended_edges",
            "lost_writes",
            "stale_reads",
        }
