"""Tests for the partial orders of Definitions 1-3 and the visibility rule
(:meth:`DelayModel.visible`, the object engines' only scalar form)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import DelayModel, Order, classify


def visible(t_w, thread_w, t_r, thread_r, d):
    return DelayModel.uniform(d).visible(t_w, thread_w, t_r, thread_r)


class TestClassify:
    def test_same_task(self):
        assert classify(3, 0, 3, 0, d=2) is Order.SAME

    def test_same_thread_program_order(self):
        assert classify(1, 0, 4, 0, d=2) is Order.PRECEDES
        assert classify(4, 0, 1, 0, d=2) is Order.FOLLOWS

    def test_same_thread_ignores_delay(self):
        # d never separates same-thread tasks: program order always wins.
        assert classify(1, 0, 2, 0, d=100) is Order.PRECEDES

    def test_cross_thread_precedes_when_gap_at_least_d(self):
        assert classify(0, 0, 2, 1, d=2) is Order.PRECEDES

    def test_cross_thread_follows(self):
        assert classify(5, 0, 1, 1, d=2) is Order.FOLLOWS

    def test_cross_thread_concurrent_within_window(self):
        assert classify(3, 0, 4, 1, d=2) is Order.CONCURRENT
        assert classify(3, 0, 3, 1, d=2) is Order.CONCURRENT
        assert classify(4, 0, 3, 1, d=2) is Order.CONCURRENT

    def test_boundary_exactly_d(self):
        # π(u) − π(v) == d ⟹ ≺ (Definition 1 uses >=).
        assert classify(0, 0, 2, 1, d=2) is Order.PRECEDES
        assert classify(2, 1, 0, 0, d=2) is Order.FOLLOWS

    def test_invalid_delay(self):
        with pytest.raises(ValueError, match="d must be >= 1"):
            classify(0, 0, 1, 1, d=0)

    @given(
        st.integers(0, 30),
        st.integers(0, 3),
        st.integers(0, 30),
        st.integers(0, 3),
        st.integers(1, 8),
    )
    def test_trichotomy(self, pv, tv, pu, tu, d):
        """Exactly one of SAME/≺/≻/∥ holds, and ≺/≻ are converses."""
        rel = classify(pv, tv, pu, tu, d)
        inverse = classify(pu, tu, pv, tv, d)
        if rel is Order.SAME:
            assert (pv, tv) == (pu, tu) or (tv == tu and pv == pu)
            assert inverse is Order.SAME
        elif rel is Order.PRECEDES:
            assert inverse is Order.FOLLOWS
        elif rel is Order.FOLLOWS:
            assert inverse is Order.PRECEDES
        else:
            assert inverse is Order.CONCURRENT


class TestClassifyTimestamps:
    """The rule over (possibly jittered) float times: with jitter below
    one update, same-thread time order is π order."""

    def test_pure_slots_match_classify(self):
        for pv in range(5):
            for pu in range(5):
                for tv in range(2):
                    for tu in range(2):
                        if (pv, tv) == (pu, tu):
                            continue
                        expected = classify(pv, tv, pu, tu, 2) is Order.PRECEDES
                        assert visible(float(pv), tv, float(pu), tu, 2.0) == expected

    def test_jitter_shifts_window(self):
        assert visible(0.0, 0, 2.4, 1, 2.0)
        assert not visible(0.0, 0, 1.9, 1, 2.0)
        # within one thread, jitter never reorders program order
        assert visible(0.9, 0, 1.0, 0, 2.0)
        assert not visible(1.0, 0, 0.9, 0, 2.0)


class TestVisible:
    def test_same_thread_visibility_is_program_order(self):
        assert visible(1.0, 0, 2.0, 0, d=5.0)
        assert not visible(2.0, 0, 1.0, 0, d=5.0)
        # a task does not see its own write (same thread, same time)
        assert not visible(2.0, 0, 2.0, 0, d=5.0)

    def test_cross_thread_requires_delay(self):
        assert not visible(0.0, 0, 1.0, 1, d=2.0)
        assert visible(0.0, 0, 3.0, 1, d=2.0)

    def test_pair_delay(self):
        numa = DelayModel.numa(2, intra=2.0, inter=8.0)
        assert numa.visible(0.0, 0, 2.0, 1)  # same socket
        assert not numa.visible(0.0, 0, 2.0, 2)  # across sockets
        assert numa.visible(0.0, 0, 8.0, 2)

    @given(
        st.integers(0, 20),
        st.integers(0, 3),
        st.integers(0, 20),
        st.integers(0, 3),
        st.integers(1, 6),
    )
    def test_visible_iff_precedes(self, pw, tw, pr, tr, d):
        if (pw, tw) == (pr, tr):
            return  # same slot: not a meaningful writer/reader pair
        expected = classify(pw, tw, pr, tr, d) is Order.PRECEDES
        assert visible(float(pw), tw, float(pr), tr, float(d)) == expected
