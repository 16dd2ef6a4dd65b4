#!/usr/bin/env python
"""Print one sha256 digest per engine case, to compare two source trees.

Every case runs with a telemetry sink and a ``policy="all"`` flight
recorder attached and hashes what a refactor of the engines must keep:

* vertex and edge state bytes;
* ``(converged, num_iterations)`` and every ``IterationStats`` row;
* the conflict summary, plus its ``per_iteration`` counter and its
  ``events`` when the log keeps events;
* the recorder's JSONL bytes;
* the telemetry records, minus the timing fields ``wall_time_s`` /
  ``phases`` / ``peak_rss_bytes`` / ``worker_phases``.

Run it against each tree and diff the outputs::

    PYTHONPATH=src python benchmarks/golden_digest.py > after.txt

The cases: WCC, SSSP, BFS, PageRank and SpMV under ``sync``,
``deterministic``, ``chromatic`` and object ``nondeterministic`` at 1 and
4 threads; NE with ``atomicity=NONE``; NE keeping conflict events; DE and NE with ``fp_noise`` (these
and the chromatic cases also run on the array engine, which must agree
with the object engine on state, trajectory and conflicts, or the
script fails); the array
engines (NE, DE and BSP plans in RAM, NE on 2 worker processes and out
of core); a supervised run through ``crash@2;torn@3`` with a
checkpoint, then resumed from that checkpoint; and the delta engine
(WCC, SSSP, PageRank; standing and across 3 mutation batches; frontier
and priority scheduling; atomic and, as in extension E1, racy
``atomicity=NONE`` combines), whose cases also hash ``extra["delta"]``
and the mutation log minus ``repair_seconds`` but not the telemetry;
and ``pure-async`` at 4 threads (every program, with ``atomicity=NONE``,
and WCC under a NUMA delay model).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile

from repro.algorithms import (
    BFS,
    SSSP,
    PageRank,
    SpMV,
    WeaklyConnectedComponents,
)
from repro.engine import AtomicityPolicy, DelayModel, EngineConfig, run
from repro.engine.capabilities import SCHEDULINGS
from repro.graph import generators
from repro.graph.mutations import batches_from_spec
from repro.obs import Recorder, Telemetry
from repro.storage import ShardStore

PROGRAMS = {
    "WCC": WeaklyConnectedComponents,
    "SSSP": lambda: SSSP(source=0),
    "BFS": lambda: BFS(source=0),
    "PageRank": lambda: PageRank(epsilon=1e-3),
    "SpMV": SpMV,
}
MODES = ("sync", "deterministic", "chromatic", "nondeterministic")
TIMING = ("wall_time_s", "phases", "peak_rss_bytes", "worker_phases")
#: delta cases: the default atomic combine, and E1's racy one
ATOMICITIES = {AtomicityPolicy.CACHE_LINE: "",
               AtomicityPolicy.NONE: "/atomicity-none"}


def _strip(record: dict) -> dict:
    record = {k: v for k, v in record.items() if k not in TIMING}
    extra = {k: v for k, v in record.pop("extra", {}).items()
             if k not in TIMING}
    return {**record, "extra": extra} if extra else record


def digest(result, tmp: str, sink=None) -> str:
    h = hashlib.sha256()
    state = result.state
    for name in state.vertex_field_names:
        h.update(name.encode() + state.vertex(name).tobytes())
    for name in getattr(state, "edge_field_names", ()):
        h.update(name.encode() + state.edge(name).tobytes())
    h.update(repr((result.converged, result.num_iterations)).encode())
    h.update(repr(result.iterations).encode())
    h.update(json.dumps(result.conflicts.summary(), sort_keys=True).encode())
    if result.conflicts.keep_events:
        h.update(repr((sorted(result.conflicts.per_iteration.items()),
                       result.conflicts.events)).encode())
    h.update(json.dumps([result.extra.get(k) for k in (
        "faults_fired", "degradations")], sort_keys=True).encode())
    if "delta" in result.extra:
        h.update(json.dumps([result.extra["delta"], [
            {k: v for k, v in m.items() if k != "repair_seconds"}
            for m in result.extra.get("mutations", [])]],
            sort_keys=True).encode())
    rec = os.path.join(tmp, "record.jsonl")
    if os.path.exists(rec):
        with open(rec, "rb") as fh:
            h.update(fh.read())
        os.unlink(rec)
    if sink is not None:
        for record in sink.records:
            h.update(json.dumps(_strip(record), sort_keys=True,
                                default=str).encode())
    return h.hexdigest()


def traced(tmp: str, program, graph, *, recorded: bool = True, **kwargs):
    sink = Telemetry()
    rec = (Recorder(policy="all", trace_path=os.path.join(tmp, "record.jsonl"))
           if recorded else None)
    result = run(program, graph, telemetry=sink, record=rec, **kwargs)
    return digest(result, tmp, sink)


def agree(tmp: str, case: str, factory, graph, **kwargs) -> None:
    """Fail unless the array engine agrees with the object engine on
    state, trajectory and conflicts."""
    paths = [digest(run(factory(), graph, vectorized=vectorized, **kwargs),
                    tmp) for vectorized in (False, "require")]
    assert paths[0] == paths[1], f"{case}: the array engine disagrees"


def cases(tmp: str):
    graph = generators.rmat(7, 6.0, seed=3)
    for name, factory in PROGRAMS.items():
        for mode in MODES:
            for threads in (1, 4):
                config = EngineConfig(threads=threads, seed=1)
                yield (f"{name}/{mode}/t{threads}",
                       traced(tmp, factory(), graph, mode=mode,
                              config=config))
                if mode == "chromatic":
                    agree(tmp, f"{name}/{mode}/t{threads}", factory, graph,
                          mode=mode, config=config)
        yield (f"{name}/ne-atomicity-none",
               traced(tmp, factory(), graph, mode="nondeterministic",
                      config=EngineConfig(threads=4, seed=2,
                                          atomicity=AtomicityPolicy.NONE)))
        for mode in ("deterministic", "nondeterministic"):
            config = EngineConfig(threads=4, seed=3, fp_noise=True)
            yield (f"{name}/{mode}-fp-noise",
                   traced(tmp, factory(), graph, mode=mode, config=config))
            agree(tmp, f"{name}/{mode}-fp-noise", factory, graph, mode=mode,
                  config=config)
    yield ("WCC/ne-conflict-events",
           traced(tmp, WeaklyConnectedComponents(), graph,
                  mode="nondeterministic",
                  config=EngineConfig(threads=4, seed=1,
                                      keep_conflict_events=True)))
    for name, factory in PROGRAMS.items():
        for atomicity, suffix in ATOMICITIES.items():
            yield (f"{name}/pure-async/t4{suffix}",
                   traced(tmp, factory(), graph, mode="pure-async",
                          config=EngineConfig(threads=4, seed=1,
                                              atomicity=atomicity)))
    yield ("WCC/pure-async/t4/numa",
           traced(tmp, WeaklyConnectedComponents(), graph, mode="pure-async",
                  config=EngineConfig(threads=4, seed=1,
                                      delay_model=DelayModel.numa(2))))
    store = ShardStore.build(graph, os.path.join(tmp, "g.store"), 4)
    for name in ("WCC", "PageRank"):
        for mode in MODES[:2] + MODES[3:]:
            for direction in ("pull", "auto"):
                yield (f"{name}/vectorized-{mode}/{direction}",
                       traced(tmp, PROGRAMS[name](), graph, mode=mode,
                              vectorized="require", direction=direction,
                              recorded=mode == "nondeterministic",
                              config=EngineConfig(threads=4, seed=1)))
        yield (f"{name}/process",
               traced(tmp, PROGRAMS[name](), graph, backend="process",
                      config=EngineConfig(threads=2, seed=1)))
        yield (f"{name}/out-of-core",
               traced(tmp, PROGRAMS[name](), store,
                      config=EngineConfig(threads=2, seed=1)))
    ckpt = os.path.join(tmp, "run.ckpt")
    for mode in MODES:
        yield (f"WCC/{mode}/crash@2;torn@3",
               traced(tmp, WeaklyConnectedComponents(), graph, mode=mode,
                      config=EngineConfig(threads=4, seed=5),
                      faults="crash@2;torn@3", checkpoint=ckpt,
                      checkpoint_every=2))
        yield (f"WCC/{mode}/resume",
               traced(tmp, WeaklyConnectedComponents(), graph, mode=mode,
                      resume_from=ckpt))
        os.unlink(ckpt)
    batches = batches_from_spec(graph, {"frac": 0.02})
    for name in ("WCC", "SSSP", "PageRank"):
        for mutations in (None, batches):
            for scheduling, atomicity in itertools.product(SCHEDULINGS,
                                                           ATOMICITIES):
                rec = Recorder(policy="all",
                               trace_path=os.path.join(tmp, "record.jsonl"))
                result = run(PROGRAMS[name](), graph, mode="delta",
                             config=EngineConfig(threads=4, seed=1,
                                                 atomicity=atomicity,
                                                 torn_probability=0.3),
                             mutations=mutations,
                             delta_scheduling=scheduling,
                             telemetry=Telemetry(), record=rec)
                yield (f"{name}/delta-{scheduling}/"
                       f"{'3-batches' if mutations else 'standing'}"
                       + ATOMICITIES[atomicity],
                       digest(result, tmp))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name, hexdigest in cases(tmp):
            print(f"{hexdigest}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
