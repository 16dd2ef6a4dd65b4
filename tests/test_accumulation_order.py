"""What "compute topology- and plan-derived data once" rests on.

* **Accumulation order.**  The float kernels add ``seen`` values with one
  ``np.add.at`` in positional (edge-id / PSW-slot) order instead of
  permuting into CSC order first.  That is only exact because canonical
  ids are sorted by ``(src, dst, input order)`` and PSW slots by
  ``(src, canonical id)``: positional order visits each destination's
  in-edges in the order the scalar gather loop reads them.  Pinned here
  against that scalar loop, bit for bit, on multigraphs with duplicate
  edges and self-loops.
* **Predicate masks.**  The out-of-core detect sweep parks each
  iteration's Defs. 1–3 visibility masks in the ``vis_*`` arrays of the
  mapped scratch file and reads them back on later fix-point rounds.
  A mask that outlived
  its plan — an earlier run, an earlier iteration with another delay
  model, the iterations before a crash — must never be read.
* **No sort left.**  Neither engine calls ``np.lexsort`` once its graph
  or store exists.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import PageRank, SpMV
from repro.engine import EngineConfig, run
from repro.graph import DiGraph, generators
from repro.robust import DegradationPolicy, supervised_run
from repro.engine.spec import RunSpec
from repro.storage import ShardStore

from .test_nondet_vectorized import assert_bit_identical


# ---------------------------------------------------------------------------
# (a) positional-order np.add.at == the scalar gather loop, per destination
# ---------------------------------------------------------------------------

@st.composite
def multigraph_and_values(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=60))
    # Few distinct endpoints on purpose: duplicates and self-loops abound.
    endpoint = st.integers(0, n - 1)
    src = draw(st.lists(endpoint, min_size=m, max_size=m))
    dst = draw(st.lists(endpoint, min_size=m, max_size=m))
    # Mixed magnitudes and signs make float addition order-sensitive.
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(m) * 10.0 ** rng.integers(-6, 7, size=m)
    intervals = draw(st.integers(min_value=1, max_value=min(n, 5)))
    return DiGraph(n, src, dst), values, intervals


def scalar_gather(graph, x):
    """Per destination, ``total += x[e]`` over in-edges in CSC order."""
    out = np.zeros(graph.num_vertices, dtype=x.dtype)
    for v in range(graph.num_vertices):
        total = x.dtype.type(0)
        for e in graph.in_edges(v)[1]:
            total = total + x[e]
        out[v] = total
    return out


@given(multigraph_and_values())
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_positional_add_matches_scalar_gather(tmp_path_factory, dtype, data):
    graph, values, intervals = data
    x = values.astype(dtype)
    want = scalar_gather(graph, x)

    total = np.zeros(graph.num_vertices, dtype=dtype)
    np.add.at(total, graph.edge_dst, x)
    assert np.array_equal(total, want)

    # Every PSW dst block: shard k holds all in-edges of interval k.
    store = ShardStore.build(
        graph, tmp_path_factory.mktemp("acc") / "g.shards", intervals)
    dst = np.asarray(store.psw_dst)
    eid = np.asarray(store.psw_eid)
    for k in range(store.num_intervals):
        a, b = int(store.shard_offsets[k]), int(store.shard_offsets[k + 1])
        lo, hi = store.interval(k)
        total = np.zeros(graph.num_vertices, dtype=dtype)
        np.add.at(total, dst[a:b], x[eid[a:b]])
        assert np.array_equal(total[lo:hi], want[lo:hi])


# ---------------------------------------------------------------------------
# (b) a predicate file never outlives the plan it was computed from
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    return generators.rmat(6, 8.0, seed=3)


@pytest.fixture
def poisoned_store(graph, tmp_path):
    """A store whose scratch file is all ``0xFF`` up front: its masks
    say "everything is visible", its seen and written values are junk.
    (The runner shrinks the file to its layout, which is smaller.)"""
    store = ShardStore.build(graph, tmp_path / "g.shards", 4)
    scratch = store.path + ".scratch"
    os.makedirs(scratch)
    with open(os.path.join(scratch, "arrays"), "wb") as fh:
        fh.write(b"\xff" * (64 * store.num_edges + 4096))
    yield store
    store.nondet_runner().close()


def assert_same_run(mem, ooc):
    assert_bit_identical(mem, ooc)
    assert ooc.extra["fixpoint_passes"] == mem.extra["fixpoint_passes"]


@pytest.mark.parametrize("backend", [None, "process"])
def test_prefilled_masks_are_overwritten(graph, poisoned_store, backend):
    config = EngineConfig(threads=2, seed=1, jitter=0.5)
    mem = run(PageRank(epsilon=1e-3), graph, config=config,
              vectorized="require")
    ooc = run(PageRank(epsilon=1e-3), poisoned_store, config=config,
              backend=backend)
    assert mem.extra["fixpoint_passes"] > mem.num_iterations  # repairs ran
    assert_same_run(mem, ooc)


def test_masks_follow_a_changing_delay_model(graph, poisoned_store):
    config = EngineConfig(threads=3, seed=2, jitter=0.25)
    mem = supervised_run(SpMV(), graph, RunSpec(
        mode="nondeterministic", config=config, faults="delay@1:x4",
        vectorized="require"))
    ooc = supervised_run(SpMV(), poisoned_store, RunSpec(
        mode="nondeterministic", config=config, faults="delay@1:x4"))
    assert_same_run(mem, ooc)


def test_masks_after_crash_and_resume(graph, poisoned_store, tmp_path):
    ck = str(tmp_path / "ooc.ckpt")
    config = EngineConfig(threads=2, seed=0, jitter=0.5)
    with pytest.raises(Exception):
        run(PageRank(epsilon=1e-3), poisoned_store, config=config,
            faults="crash@2", checkpoint=ck,
            policy=DegradationPolicy(max_restarts=0))
    mem = run(PageRank(epsilon=1e-3), graph, resume_from=ck,
              vectorized="require")
    ooc = run(PageRank(epsilon=1e-3), poisoned_store, resume_from=ck)
    assert mem.converged
    assert_same_run(mem, ooc)


# ---------------------------------------------------------------------------
# (c) no sort once the graph / store exists
# ---------------------------------------------------------------------------
# (The process backends run the same _Worker / _Exec code in children,
# where a patch made here cannot see.)

@pytest.mark.parametrize("program", [lambda: PageRank(epsilon=1e-3), SpMV])
def test_no_lexsort_inside_a_run(graph, tmp_path, monkeypatch, program):
    store = ShardStore.build(graph, tmp_path / "g.shards", 4)
    calls = []
    real = np.lexsort

    def counting_lexsort(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    config = EngineConfig(threads=2, seed=1, jitter=0.5)
    mem = run(program(), graph, config=config, vectorized="require")
    ooc = run(program(), store, config=config)
    store.nondet_runner().close()
    assert mem.extra["fixpoint_passes"] > mem.num_iterations  # repairs ran
    assert ooc.extra["io"]["interval_loads"] > 0
    assert calls == []
