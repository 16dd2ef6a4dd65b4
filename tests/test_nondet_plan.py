"""The one Defs. 1–3 implementation against the scalar oracle.

Every array engine evaluates visibility through
``repro.engine.nondet_core.EdgePlan`` — on all edges, on a frontier's
touched edges, on a worker's owned edges, on an interval's slot range.
Two properties make that sound: each edge's predicates equal the object
engines' scalar rule (``DelayModel.visible`` over ``TaskSlot``s),
and evaluating on a subset equals slicing the whole-graph evaluation.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import DelayModel, DispatchPolicy, PlanCache, TaskSlot
from repro.engine.nondet_core import visibility
from repro.graph import DiGraph

DELAYS = [DelayModel.uniform(2.0), DelayModel.uniform(1.0),
          DelayModel.numa(2, intra=1.0, inter=3.0),
          DelayModel.distributed(1, intra=1.0, network=4.0)]
PREDICATES = ("vis_s2d", "vis_d2s", "lex_sd", "lex_ds", "dt", "dst_wins",
              "thr_s", "thr_d", "t_s", "t_d")


@st.composite
def plans(draw):
    """A planned multigraph: self-loops, parallel edges and inactive
    endpoints allowed; ``jitter=0`` makes cross-thread times tie."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=24))
    graph = DiGraph(n, np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64))
    active = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    jitter = draw(st.sampled_from([0.0, 0.5]))
    cache = PlanCache(graph, draw(st.integers(1, 4)),
                      policy=draw(st.sampled_from(list(DispatchPolicy))),
                      jitter=jitter,
                      rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    dm = draw(st.sampled_from(DELAYS))
    idx = draw(st.lists(st.integers(0, max(len(edges) - 1, 0)), unique=True,
                        max_size=len(edges)))
    return graph, cache.plan(np.flatnonzero(active), dm), dm, np.sort(
        np.array(idx, dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_edge_plan_matches_scalar_oracle_and_is_subset_invariant(case):
    graph, plan, dm, idx = case
    ep = plan.edges()
    slot = [TaskSlot(v, int(plan.thr_v[v]), int(plan.pi_v[v]),
                     float(plan.time_v[v])) for v in range(graph.num_vertices)]
    for e, (s, d) in enumerate(zip(graph.edge_src, graph.edge_dst)):
        exchange = bool(plan.active[s] and plan.active[d] and s != d)
        a, b = slot[s], slot[d]
        assert ep.vis_s2d[e] == (exchange and dm.visible(a.time, a.thread,
                                                         b.time, b.thread))
        assert ep.vis_d2s[e] == (exchange and dm.visible(b.time, b.thread,
                                                         a.time, a.thread))
        # Lemma 2: the later (time, vid) survives.
        assert ep.dst_wins[e] == ((slot[d].time, d) > (slot[s].time, s))
    sub = plan.edges(idx)
    for name in PREDICATES:
        assert np.array_equal(getattr(ep, name)[idx], getattr(sub, name)), name
    s, d = graph.edge_src[idx], graph.edge_dst[idx]
    assert np.array_equal(visibility(plan, dm, s, d, True), ep.vis_s2d[idx])
    assert np.array_equal(visibility(plan, dm, s, d, False), ep.vis_d2s[idx])


# ---------------------------------------------------------------------------
# lazy predicates: first use after a retime, never a stale memo
# ---------------------------------------------------------------------------

TIMED = ("t_s", "t_d", "dst_wins", "vis_s2d", "vis_d2s", "lex_sd", "lex_ds")


def eager(plan, dm, s, d, time_v):
    """Every timestamp-dependent predicate straight from its formula."""
    vp = SimpleNamespace(thr_v=plan.thr_v, pi_v=plan.pi_v, time_v=time_v,
                         active=plan.active)
    t_s, t_d = time_v[s], time_v[d]
    pi_s, pi_d = plan.pi_v[s], plan.pi_v[d]
    both = plan.active[s] & plan.active[d] & (s != d)
    lex_sd = both & ((t_s < t_d) | ((t_s == t_d) & (
        (pi_s < pi_d) | ((pi_s == pi_d) & (plan.thr_v[s] < plan.thr_v[d])))))
    return {"t_s": t_s, "t_d": t_d,
            "dst_wins": (t_d > t_s) | ((t_d == t_s) & (d > s)),
            "vis_s2d": visibility(vp, dm, s, d, True),
            "vis_d2s": visibility(vp, dm, s, d, False),
            "lex_sd": lex_sd, "lex_ds": both & ~lex_sd}


@settings(max_examples=200, deadline=None)
@given(plans(), st.data())
def test_lazy_predicates_equal_the_eager_formulas_in_any_order(case, data):
    graph, plan, dm, idx = case
    s, d = graph.edge_src[idx], graph.edge_dst[idx]
    ep = plan.edges(idx)
    # Memoize an arbitrary subset on the old timestamps first.
    for name in data.draw(st.lists(st.sampled_from(TIMED), unique=True)):
        getattr(ep, name)
    time_v = plan.time_v + np.asarray(data.draw(st.lists(
        st.sampled_from([0.0, 0.25, 3.0]), min_size=graph.num_vertices,
        max_size=graph.num_vertices)))
    ep.retime(time_v)
    want = eager(plan, dm, s, d, time_v)
    for name in data.draw(st.permutations(TIMED)):
        assert np.array_equal(getattr(ep, name), want[name]), name


@settings(max_examples=100, deadline=None)
@given(plans(), st.data())
def test_frontier_hit_with_jitter_serves_no_memo_of_the_old_times(case, data):
    graph, plan, dm, _ = case
    ep = plan.edges()
    for name in data.draw(st.lists(st.sampled_from(TIMED), unique=True)):
        getattr(ep, name)
    before = plan.time_v.copy()
    hits = plan.hits
    plan.plan(plan.ids, dm)
    assert plan.hits == hits + 1 and plan.edges() is ep
    if plan.jitter > 0 and plan.ids.size:
        assert not np.array_equal(plan.time_v, before)
    want = eager(plan, dm, graph.edge_src, graph.edge_dst, plan.time_v)
    for name in data.draw(st.permutations(TIMED)):
        assert np.array_equal(getattr(ep, name), want[name]), name
