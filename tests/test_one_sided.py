"""``NondetKernel.writes_dst``: checked against the oracle, and shown to
change nothing but cost.

A kernel that declares ``writes_dst = False`` (PageRank, SpMV, SSSP and
BFS through it) gets no destination-write half of a round from any
layer: no ``wd`` / ``wvd`` slots, no ``seen_s`` detection, no
``vis_d2s`` / ``lex_ds`` / ``dst_wins`` predicates.  Two things make
that sound.  The declaration is true — on the *object* engine, which
knows nothing of it, only an edge's source ever commits a write.  And
every omission is an identity — the same kernel declared two-sided
(slots allocated, its ``wd[...] = False`` stores restored, both halves
run) produces the same bytes in all three residencies.  Likewise for
``first``: a kernel that rewrites its seen-independent read records in
every repair pass changes nothing.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, nondet_core, run
from repro.engine.nondet_core import (
    register_nondet_kernel,
    resolve_nondet_kernel,
)
from repro.graph import DiGraph
from repro.obs import Recorder
from repro.storage import ShardStore

from .test_nondet_vectorized import ALGORITHMS
from .test_sparse_repair import assert_same_run


def kernel_of(program):
    return resolve_nondet_kernel(program)(program)


ONE_SIDED = sorted(name for name, factory in ALGORITHMS.items()
                   if not kernel_of(factory()).writes_dst)


# ---------------------------------------------------------------------------
# test-local kernel variants, each registered for a test-local program class
# ---------------------------------------------------------------------------

class TwoSided:
    """The real kernel as every layer saw it before the declaration:
    ``wd`` allocated, stored ``False`` over every recomputed in-edge."""

    writes_dst = True

    def run_pass(self, ctx, sub, first=True):
        super().run_pass(ctx, sub, first)
        sub_d = sub[ctx.dst]
        for f in self.written_fields:
            np.copyto(ctx.wd[f], False, where=sub_d)

    def run_slice_pass(self, ctx, sub_ids, es, ed, first=True):
        super().run_slice_pass(ctx, sub_ids, es, ed, first)
        for f in self.written_fields:
            ctx.wd[f][ed] = False


class IgnoresFirst:
    """Writes every read record in every pass, repair passes included."""

    def run_pass(self, ctx, sub, first=True):
        super().run_pass(ctx, sub, True)

    def run_slice_pass(self, ctx, sub_ids, es, ed, first=True):
        super().run_slice_pass(ctx, sub_ids, es, ed, True)


class TouchesWd:
    """Declares one side (inherited) yet stores to the other."""

    def run_pass(self, ctx, sub, first=True):
        ctx.wd[self.written_fields[0]][sub[ctx.dst]] = False
        super().run_pass(ctx, sub, first)


def variant(name: str, mixin: type):
    """Factory of ``ALGORITHMS[name]``'s program, as a test-local
    subclass whose registered kernel is the real one under ``mixin``."""
    program = ALGORITHMS[name]()
    kernel_cls = type(kernel_of(program))
    program_cls = type(mixin.__name__ + type(program).__name__,
                       (type(program),), {})
    register_nondet_kernel(
        program_cls,
        type(mixin.__name__ + kernel_cls.__name__, (mixin, kernel_cls), {}))

    def factory():
        instance = ALGORITHMS[name]()
        instance.__class__ = program_cls
        return instance

    return factory


TWO_SIDED = {name: variant(name, TwoSided) for name in ONE_SIDED}
IGNORES_FIRST = {name: variant(name, IgnoresFirst) for name in ALGORITHMS}


@st.composite
def cases(draw):
    """A small multigraph (self-loops, parallel edges, isolated vertices)
    and a config with 1–4 threads, jitter on or off, repair passes on
    the dense path or (``direction_alpha=1e-9``) the slice path.  Vertex
    0 — the traversals' source — has an out-edge, so every run has a
    barrier with an edge to commit."""
    n = draw(st.integers(2, 10))
    edges = [(0, 1)] + draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=30))
    graph = DiGraph(n, np.array([e[0] for e in edges], dtype=np.int64),
                    np.array([e[1] for e in edges], dtype=np.int64))
    config = EngineConfig(
        threads=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**16)),
        jitter=draw(st.sampled_from([0.0, 0.5])),
        direction_alpha=draw(st.sampled_from(
            [EngineConfig().direction_alpha, 1e-9])))
    return graph, config


def recorded(factory, graph, config, **kwargs):
    rec = Recorder(policy="all")
    res = run(factory(), graph, mode="nondeterministic", config=config,
              record=rec, **kwargs)
    return res, rec


# ---------------------------------------------------------------------------
# (a) the declaration is true of the object engine
# ---------------------------------------------------------------------------

def test_the_registry_has_both_kinds():
    assert ONE_SIDED == ["bfs", "pagerank", "spmv", "sssp"]
    assert kernel_of(ALGORITHMS["wcc"]()).writes_dst


@pytest.mark.parametrize("algo", ONE_SIDED)
@settings(max_examples=25, deadline=None)
@given(case=cases())
def test_object_engine_only_ever_commits_the_source(algo, case):
    graph, config = case
    _, rec = recorded(ALGORITHMS[algo], graph, config)
    for event in rec.events:
        source = int(graph.edge_src[event["eid"]])
        if event["kind"] == "commit":
            # One writer, the source: nothing for Lemma 2 to drop.
            assert event["writer"] == source and event["lost"] == []
        elif event["kind"] == "read":
            assert event["writer"] == source


# ---------------------------------------------------------------------------
# (b) declared two-sided, the same kernel yields the same bytes
# ---------------------------------------------------------------------------

@pytest.fixture
def barriers(monkeypatch):
    """Spy on every residency's master-side commit: each barrier's
    ``wd`` columns as :func:`commit_on` receives them."""
    seen = []

    def spy(bar, ep, eid, written, out, new):
        seen.append({f: np.array(arr) for f, arr in out["wd"].items()})
        return nondet_core.commit_on(bar, ep, eid, written, out, new)

    for module in ("nondet_vectorized", "nondet_parallel",
                   "nondet_outofcore"):
        monkeypatch.setattr(f"repro.engine.{module}.commit_on", spy)
    return seen


def assert_two_sided_changes_nothing(algo, graph, config, barriers, **kwargs):
    real, real_rec = recorded(ALGORITHMS[algo], graph, config, **kwargs)
    assert barriers and all(wd == {} for wd in barriers)
    del barriers[:]
    two, two_rec = recorded(TWO_SIDED[algo], graph, config, **kwargs)
    assert_same_run(real, real_rec, two, two_rec)
    assert two.extra["repair_slice_passes"] == real.extra[
        "repair_slice_passes"]
    # The two-sided paths really ran, and had nothing to find.
    assert barriers and all(
        wd and not any(arr.any() for arr in wd.values()) for wd in barriers)


@pytest.mark.parametrize("algo", ONE_SIDED)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
def test_two_sided_twin_is_byte_equal_in_ram(algo, barriers, case):
    graph, config = case
    del barriers[:]
    assert_two_sided_changes_nothing(algo, graph, config, barriers,
                                     vectorized="require")


@pytest.mark.parallel_backend
@pytest.mark.parametrize("algo", ONE_SIDED)
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
def test_two_sided_twin_is_byte_equal_on_two_workers(algo, barriers, case):
    graph, config = case
    del barriers[:]
    assert_two_sided_changes_nothing(
        algo, graph, dataclasses.replace(config, threads=2), barriers,
        backend="process")


@pytest.mark.parametrize("algo", ONE_SIDED)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cases())
def test_two_sided_twin_is_byte_equal_out_of_core(algo, barriers,
                                                  tmp_path_factory, case):
    graph, config = case
    del barriers[:]
    store = ShardStore.build(
        graph, tmp_path_factory.mktemp("one_sided") / "g.shards", 4)
    try:
        # One store, two kernels: the scratch layout carries the
        # declaration, so the twin's arrays are mapped, not assumed.
        assert_two_sided_changes_nothing(algo, store, config, barriers)
    finally:
        store.nondet_runner().close()


# ---------------------------------------------------------------------------
# (c) ``first``: rewriting seen-independent read records changes nothing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("direction", ["pull", "auto"])
@pytest.mark.parametrize("algo", sorted(ALGORITHMS))
@settings(max_examples=20, deadline=None)
@given(case=cases())
def test_ignoring_first_is_byte_equal(algo, direction, case):
    graph, config = case
    real, real_rec = recorded(ALGORITHMS[algo], graph, config,
                              vectorized="require", direction=direction)
    again, again_rec = recorded(IGNORES_FIRST[algo], graph, config,
                                vectorized="require", direction=direction)
    assert_same_run(real, real_rec, again, again_rec)


# ---------------------------------------------------------------------------
# (d) a kernel that lied fails loudly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("algo", ONE_SIDED)
def test_one_sided_kernel_has_no_wd_to_store_to(algo):
    graph = DiGraph(3, np.array([0, 1, 2]), np.array([1, 2, 0]))
    with pytest.raises(KeyError):
        run(variant(algo, TouchesWd)(), graph, mode="nondeterministic",
            config=EngineConfig(threads=2, seed=0), vectorized="require")
