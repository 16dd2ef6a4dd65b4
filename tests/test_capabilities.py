"""The capability table: what runs with what, stated once.

The property draws a point of mode × ``vectorized`` × ``backend`` ×
residency × ``direction`` × robustness × ``metrics`` × ``record`` ×
``observer`` × ``state`` × ``mutations`` and holds ``run()`` to the
table: the point either converges or raises :class:`Refused` with
exactly the reason :func:`check` gives — never an error from deeper in
an engine.  Every point ``repro run`` can express parses to the
:class:`RunSpec` ``run()`` builds.  Every point the service can express
is admitted by ``GraphService.submit`` exactly when ``run()`` accepts
it, except pure-async, which the service refuses for want of a
consistent cut.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.algorithms import WeaklyConnectedComponents
from repro.engine import EngineConfig, run, runner
from repro.engine.capabilities import (DIRECTIONS, MODES, ROWS, Refused,
                                       check, render)
from repro.engine.spec import RunSpec
from repro.graph import generators
from repro.graph.mutations import generate_batches
from repro.obs import MetricsRegistry
from repro.service import GraphService
from repro.storage import ShardStore

CONFIG = EngineConfig(threads=2, seed=0)
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A 6-vertex graph, its 2-interval ShardStore, a checkpoint path and
    a service that admits jobs but never starts running them."""
    root = tmp_path_factory.mktemp("capabilities")
    graph = generators.erdos_renyi(6, 12, seed=1)
    store = ShardStore.build(graph, root / "g.shards", 2)
    service = GraphService(root / "svc", fsync=False, max_queue=10**9)
    service.graphs.register("g", {"dataset": "web-google-mini", "scale": 4,
                                  "seed": 1})
    yield graph, store, str(root / "run.ckpt"), service
    store.nondet_runner().close()
    service.journal.close()
    service.graphs.close()


#: each axis of the drawn point -> (its values, the table axis, how a
#: drawn value reads on that axis)
AXES = {
    "vectorized": ([False, True, "require"], "vectorized", None),
    "backend": ([None, "process"], "backend", None),
    "shards": ([False, True], "residency",
               {False: "DiGraph", True: "ShardStore"}),
    "direction": (list(DIRECTIONS), "direction", None),
    "robustness": ([None, "faults", "checkpoint"], "robustness",
                   {None: "none"}),
    "metrics": ([False, True], "metrics", None),
    "record": ([False, True], None, None),
    "observer": ([False, True], "observer", None),
    "state": ([False, True], "state", None),
    "mutations": ([False, True], "delta_knobs", None),
}


@st.composite
def points(draw):
    """A point of the whole product; each axis is drawn from the values
    the mode's row accepts half the time, so that rows with many refused
    cells still run often."""
    mode = draw(st.sampled_from(MODES))
    point = {"mode": mode}
    for name, (values, axis, reads) in AXES.items():
        cell = getattr(ROWS[mode], axis) if axis else None
        legal = [v for v in values if cell is None
                 or (reads or {}).get(v, v) in cell.accepts]
        point[name] = draw(st.sampled_from(
            legal if draw(st.booleans()) else values))
    return point


def _point(mode, **changes):
    point = {"mode": mode, **{name: values[0] for name, (values, _, _)
                              in AXES.items()}}
    point.update(changes)
    return point


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(point=points())
# Every switch given at once, on the rows that accept them all.
@example(point=_point("delta", robustness="checkpoint", metrics=True,
                      record=True, observer=True, mutations=True))
@example(point=_point("nondeterministic", backend="process", shards=True,
                      robustness="checkpoint", metrics=True, record=True,
                      observer=True, state=True))
def test_a_point_runs_or_is_refused_with_the_table_reason(world, point):
    mode, vectorized, backend, shards, direction, robustness, metrics, \
        record, observer, state, mutations = point.values()
    graph, store, ckpt, service = world
    program = WeaklyConnectedComponents()
    target = store if shards else graph
    kw = {"mode": mode, "vectorized": vectorized, "backend": backend,
          "direction": direction}
    if robustness == "faults":
        kw["faults"] = ""
    elif robustness == "checkpoint":
        kw["checkpoint"] = ckpt
    if metrics:
        kw["metrics"] = MetricsRegistry()
    if record:
        kw["record"] = True
    if observer:
        kw["observer"] = lambda *args: None
    if state:
        kw["state"] = (store.nondet_runner().make_state(program) if shards
                       else program.make_state(graph))
    if mutations:
        kw["mutations"] = generate_batches(graph, 1, 0.3, 7)

    try:
        check(program, target, RunSpec(config=CONFIG, **kw))
        reason = None
    except Refused as exc:
        reason = exc.reason
    with mock.patch.object(runner, "check", wraps=check) as spy:
        if reason is None:
            assert run(program, target, config=CONFIG, **kw).converged
        else:
            with pytest.raises(Refused) as refused:
                run(program, target, config=CONFIG, **kw)
            assert refused.value.reason == reason
    built = spy.call_args.args[2]  # the RunSpec run() built

    if not (metrics or record or observer or state):  # `repro run` says it
        argv = ["run", "WCC", "--mode", mode, "--direction", direction,
                "--threads", "2", "--run-seed", "0"]
        argv += {True: ["--vectorized"], "require": ["--vectorized",
                                                     "require"]}.get(
            vectorized, [])
        argv += ["--backend", backend] if backend else []
        argv += {"faults": ["--faults", ""], "checkpoint": [
            "--checkpoint", ckpt]}.get(robustness, [])
        argv += ["--out-of-core", "shards"] if shards else []
        argv += ["--mutate", "--mutate-batches", "1", "--mutate-frac", "0.3",
                 "--mutate-seed", "7"] if mutations else []
        parsed = cli._run_spec(cli._build_parser().parse_args(argv), graph)
        assert replace(parsed, mutations=None) == replace(built,
                                                          mutations=None)
        for a, b in zip(parsed.mutations or (), built.mutations or (),
                        strict=True):
            assert np.array_equal(a.inserts, b.inserts)
            assert np.array_equal(a.deletes, b.deletes)

    if shards or direction != "pull" or metrics or observer or state \
            or robustness == "checkpoint":
        return  # not expressible as a job spec
    spec = {"algorithm": "WCC", "graph": "g", "mode": mode,
            "vectorized": vectorized, "backend": backend,
            "faults": "" if robustness == "faults" else None,
            "record": "conflicts" if record else None,
            "mutations": ({"num_batches": 1, "frac": 0.3, "seed": 7}
                          if mutations else None)}
    try:
        service.submit(spec)
        admitted = None
    except Refused as exc:
        admitted = exc.reason
    if mode == "pure-async":
        assert admitted == ROWS["pure-async"].service.reason
    else:
        assert admitted == reason


def test_cross_axis_rules_refuse_by_name(world):
    graph, store, _, _ = world
    wcc = WeaklyConnectedComponents()
    cases = [
        (graph, {"backend": "process", "vectorized": True}, "not both"),
        (store, {"direction": "auto"}, "direction='pull' only"),
        (graph, {"config": CONFIG, "threads": 2}, "not both"),
        (graph, {"max_iterations": 0}, "max_iterations must be > 0"),
        (graph, {"deadline_s": float("nan")}, "deadline_s must be > 0"),
        (graph, {"checkpoint_every": 1.5, "faults": ""},
         "checkpoint_every must be a positive integer"),
        (graph, {"vectorized": "yes"}, "vectorized='yes' not understood"),
    ]
    for target, kw, reason in cases:
        with pytest.raises(Refused, match=re.escape(reason)):
            run(wcc, target, **kw)


def test_object_path_direction_requires_the_array_path(world):
    """direction != 'pull' turns ``vectorized=False`` into "require": an
    ineligible config is refused instead of silently running pull."""
    graph = world[0]
    with pytest.raises(Refused, match="vectorized='require'.*validate_scope"):
        run(WeaklyConnectedComponents(), graph, direction="auto",
            validate_scope=True)
    res = run(WeaklyConnectedComponents(), graph, direction="auto")
    assert res.extra.get("vectorized") is True


def test_process_backend_refuses_fp_noise(world):
    """Only the in-process array engine replays the fp_noise draws: the
    worker processes would silently sum positionally."""
    from repro.engine import ParallelEngine

    graph = world[0]
    with pytest.raises(Refused, match="process backend.*fp_noise"):
        run(WeaklyConnectedComponents(), graph, backend="process",
            threads=2, fp_noise=True)
    with pytest.raises(Refused, match="fp_noise"):
        ParallelEngine().run(WeaklyConnectedComponents(), graph,
                             EngineConfig(threads=2, fp_noise=True))


def test_shard_store_refuses_fp_noise(world):
    """Nor do the out-of-core interval sweeps model fp_noise."""
    store = world[1]
    with pytest.raises(Refused, match="ShardStore graph.*fp_noise"):
        run(WeaklyConnectedComponents(), store, fp_noise=True)
    with pytest.raises(Refused, match="fp_noise"):
        store.nondet_runner().run(WeaklyConnectedComponents(),
                                  EngineConfig(fp_noise=True))


def test_readme_table_is_the_rendering():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"<!-- capabilities:begin -->\n(.*?)\n"
                      r"<!-- capabilities:end -->", text, re.S)
    assert block is not None, "README lost its capability-table markers"
    assert block.group(1) == render()
