"""Property-based sweeps over the extension executors.

The same style as ``test_engine_hypothesis.py``: for arbitrary small
graphs and schedules, push mode (the delta engine's accumulators) and
the pure-async executor must reach the exact fixed points their
sufficient conditions promise; a racy (``atomicity=NONE``) combine may
only lose contributions, never invent one.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms import BFS, SSSP, WeaklyConnectedComponents, reference
from repro.engine import AtomicityPolicy, DelayModel, EngineConfig, run
from repro.graph import DiGraph


@st.composite
def graph_and_config(draw):
    n = draw(st.integers(min_value=2, max_value=14))
    m = draw(st.integers(min_value=1, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            min_size=m,
            max_size=m,
        )
    )
    graph = DiGraph(n, [u for u, _ in edges], [v for _, v in edges])
    config = EngineConfig(
        threads=draw(st.integers(1, 5)),
        delay=float(draw(st.integers(1, 4))),
        jitter=draw(st.sampled_from([0.0, 0.5])),
        seed=draw(st.integers(0, 500)),
    )
    return graph, config


COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _delta_min_kernel(program, truth, graph, config, torn):
    """Atomic delta equals ``truth``; with ``torn_probability=torn``
    under ``atomicity=NONE`` no value falls below it, ``lost_writes ≤
    write_write``, and both are 0 when ``torn`` is."""
    res = run(program(), graph, mode="delta", config=config)
    assert res.converged
    assert np.array_equal(res.result(), truth)
    racy = run(program(), graph, mode="delta", config=config.with_(
        atomicity=AtomicityPolicy.NONE, torn_probability=torn))
    assert np.all(racy.result() >= truth)
    log = racy.conflicts
    assert log.lost_writes <= log.write_write
    if torn == 0.0:
        assert log.write_write == log.lost_writes == 0
        assert np.array_equal(racy.result(), truth)


@given(graph_and_config(), st.sampled_from([0.0, 0.3, 1.0]))
@settings(**COMMON)
def test_push_bfs_exact_on_arbitrary_graphs(data, torn):
    graph, config = data
    _delta_min_kernel(lambda: BFS(source=0), reference.bfs_reference(graph, 0),
                      graph, config, torn)
    sssp = SSSP(source=0)
    _delta_min_kernel(lambda: SSSP(source=0), reference.sssp_reference(
        graph, 0, sssp.make_weights(graph)), graph, config, torn)


@given(graph_and_config(), st.sampled_from([0.0, 0.3, 1.0]))
@settings(**COMMON)
def test_push_min_reach_exact_on_arbitrary_graphs(data, torn):
    """Min-label reach in both edge directions: delta WCC."""
    graph, config = data
    _delta_min_kernel(WeaklyConnectedComponents,
                      reference.wcc_reference(graph), graph, config, torn)


@given(graph_and_config())
@settings(**COMMON)
def test_pure_async_wcc_exact_on_arbitrary_graphs(data):
    graph, config = data
    truth = reference.wcc_reference(graph)
    res = run(WeaklyConnectedComponents(), graph, mode="pure-async", config=config)
    assert res.converged
    assert np.array_equal(res.result(), truth)


@given(graph_and_config(), st.integers(1, 3))
@settings(**COMMON)
def test_pure_async_exact_under_group_delays(data, group_size):
    graph, config = data
    model = DelayModel.distributed(group_size, intra=config.delay, network=16.0)
    cfg = config.with_(delay_model=model)
    truth = reference.wcc_reference(graph)
    res = run(WeaklyConnectedComponents(), graph, mode="pure-async", config=cfg)
    assert np.array_equal(res.result(), truth)


@given(graph_and_config())
@settings(**COMMON)
def test_chromatic_wcc_exact_on_arbitrary_graphs(data):
    graph, config = data
    truth = reference.wcc_reference(graph)
    res = run(WeaklyConnectedComponents(), graph, mode="chromatic", config=config)
    assert res.converged
    assert np.array_equal(res.result(), truth)


@given(graph_and_config())
@settings(**COMMON)
def test_push_engine_reproducible(data):
    graph, config = data
    config = config.with_(atomicity=AtomicityPolicy.NONE,
                          torn_probability=0.5)
    a, b = (run(BFS(source=0), graph, mode="delta", config=config)
            for _ in range(2))
    assert np.array_equal(a.result(), b.result())
    assert a.conflicts.summary() == b.conflicts.summary()
