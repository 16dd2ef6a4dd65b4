"""Barrier checkpoint/resume: round-trip, kill/resume bit-identity, CLI.

The headline scenario is the PR's acceptance criterion: a PageRank run
on an RMAT-10 graph killed by an injected crash resumes from its last
barrier checkpoint and finishes with the bit-identical final ranking
and a provenance trace whose concatenation matches the uninterrupted
run (``repro trace diff`` exit 0).
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro import cli
from repro.algorithms import SSSP, PageRank, WeaklyConnectedComponents
from repro.engine import EngineConfig, Refused, run
from repro.engine.atomicity import AtomicityPolicy
from repro.engine.delaymodel import DelayModel
from repro.engine.dispatch import DispatchPolicy
from repro.engine.spec import RunSpec
from repro.graph import generators
from repro.graph.mutations import generate_batches
from repro.robust import CheckpointError, ConvergenceFailure, DegradationPolicy
from repro.robust.supervisor import supervised_run
from repro.storage import Checkpoint, load_checkpoint, save_checkpoint
from repro.storage.checkpoint import (
    CHECKPOINT_MAGIC,
    config_from_dict,
    config_to_dict,
)


@pytest.fixture(scope="module")
def rmat10():
    return generators.rmat(10, 8.0, seed=3)


# ----------------------------------------------------------------------
# file format round-trip
# ----------------------------------------------------------------------
def test_checkpoint_round_trip(tmp_path):
    path = tmp_path / "ck.bin"
    rng = np.random.default_rng(5)
    rng.random(17)  # advance so the state is non-trivial
    ckpt = Checkpoint(
        iteration=7,
        mode="nondeterministic",
        program="PageRank",
        config=EngineConfig(threads=3, delay=4.0, seed=2,
                            atomicity=AtomicityPolicy.LOCK,
                            dispatch=DispatchPolicy.ROUND_ROBIN),
        frontier=np.array([1, 4, 9], dtype=np.int64),
        vertex_arrays={"rank": np.linspace(0, 1, 10),
                       "residual": np.zeros(10, dtype=np.float32)},
        edge_arrays={"weight": np.arange(6, dtype=np.float64)},
        rng_states={"fp": rng.bit_generator.state},
        conflicts={"write_write": 12, "per_iteration": {"3": 4}},
        extra={"note": "round-trip"},
    )
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.iteration == 7
    assert loaded.mode == "nondeterministic"
    assert loaded.program == "PageRank"
    assert loaded.config == ckpt.config
    np.testing.assert_array_equal(loaded.frontier, ckpt.frontier)
    for name, arr in ckpt.vertex_arrays.items():
        np.testing.assert_array_equal(loaded.vertex_arrays[name], arr)
        assert loaded.vertex_arrays[name].dtype == arr.dtype
    np.testing.assert_array_equal(loaded.edge_arrays["weight"],
                                  ckpt.edge_arrays["weight"])
    assert loaded.rng_states == {"fp": rng.bit_generator.state}
    assert loaded.conflicts["write_write"] == 12
    assert loaded.extra == {"note": "round-trip"}
    assert not list(tmp_path.glob("*.tmp.*"))  # atomic rename cleaned up


def test_config_dict_round_trip_with_delay_model():
    config = EngineConfig(threads=5, delay_model=DelayModel(
        intra=1.0, inter=6.0, group_size=2), jitter=0.25,
        worker_timeout_s=None)
    assert config_from_dict(config_to_dict(config)) == config
    # unknown keys from a future version are ignored, not fatal
    d = config_to_dict(config)
    d["added_in_v99"] = True
    assert config_from_dict(d) == config


def test_load_rejects_missing_garbage_and_truncated(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "nope.bin")

    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"not a checkpoint at all")
    with pytest.raises(CheckpointError):
        load_checkpoint(garbage)

    wrong_version = tmp_path / "vfuture.bin"
    wrong_version.write_bytes(CHECKPOINT_MAGIC + struct.pack("<IQ", 99, 2) + b"{}")
    with pytest.raises(CheckpointError):
        load_checkpoint(wrong_version)

    good = tmp_path / "good.bin"
    save_checkpoint(good, Checkpoint(
        iteration=1, mode="sync", program="X", config=EngineConfig(),
        frontier=np.array([0], dtype=np.int64),
        vertex_arrays={"v": np.ones(4)}, edge_arrays={}))
    data = good.read_bytes()
    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(data[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def test_save_checkpoint_is_durable_ordered(tmp_path, monkeypatch):
    """The write discipline must be file fsync -> rename -> parent
    directory fsync, in that order.  Without the directory fsync the
    rename itself can be rolled back by power loss even though the
    checkpoint *data* survived — and anything journaled after
    ``save_checkpoint`` returns (the service's WAL ``barrier`` record)
    would then reference a checkpoint that no longer exists."""
    import os
    import stat

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        events.append(("fsync", kind))
        return real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("rename", None))
        return real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    path = tmp_path / "ordered.ckpt"
    save_checkpoint(path, Checkpoint(
        iteration=1, mode="sync", program="X", config=EngineConfig(),
        frontier=np.array([0], dtype=np.int64),
        vertex_arrays={"v": np.ones(4)}, edge_arrays={}))
    assert ("fsync", "file") in events and ("fsync", "dir") in events
    assert events.index(("fsync", "file")) \
        < events.index(("rename", None)) \
        < events.index(("fsync", "dir"))
    # and no tmp litter once the rename landed
    assert [p.name for p in tmp_path.iterdir()] == ["ordered.ckpt"]


def test_service_barrier_journal_append_follows_checkpoint(tmp_path):
    """Cross-layer ordering: the scheduler's ``barrier`` WAL record for
    a checkpointed iteration is appended only after ``save_checkpoint``
    has completed (checkpoint durable before the journal claims it).

    The checkpoint is saved in the job's runner process (forked at
    ``start()``, so it inherits the spy) and the record is appended in
    this one; both sides log to one ``O_APPEND`` file, whose line order
    is the order of the writes system-wide."""
    import os
    import time

    from repro.service import GraphService, JobState
    from repro.storage import checkpoint as ckpt_mod

    log_path = tmp_path / "order.log"
    real_save = ckpt_mod.save_checkpoint

    def log(kind, iteration):
        with open(log_path, "a", encoding="utf-8") as fh:
            fh.write(f"{kind} {iteration}\n")

    def spy_save(path, ck):
        real_save(path, ck)
        log("ckpt", ck.iteration)

    svc = GraphService(tmp_path / "svc", max_concurrent=1)
    svc.graphs.register("tiny", {"dataset": "web-google-mini",
                                 "scale": 7, "seed": 1})
    real_append = svc.journal.append

    def spy_append(record_type, **fields):
        if record_type == "barrier":
            log("journal", fields.get("checkpoint_iteration"))
        return real_append(record_type, **fields)

    svc.journal.append = spy_append
    # patch where the supervisor looks it up
    import repro.robust.supervisor as sup_mod

    saved = sup_mod.save_checkpoint if hasattr(
        sup_mod, "save_checkpoint") else None
    ckpt_mod.save_checkpoint = spy_save
    if saved is not None:
        sup_mod.save_checkpoint = spy_save
    try:
        svc.start()
        jid = svc.submit({"algorithm": "WCC", "graph": "tiny",
                          "checkpoint_every": 1})
        deadline = time.monotonic() + 60
        while svc.status(jid)["state"] not in JobState.TERMINAL:
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert svc.status(jid)["state"] == JobState.DONE
    finally:
        svc.shutdown(drain=True, timeout=60)
        ckpt_mod.save_checkpoint = real_save
        if saved is not None:
            sup_mod.save_checkpoint = saved
    order = [(kind, None if it == "None" else int(it)) for kind, it in
             (line.split() for line in log_path.read_text().splitlines())]
    ckpts = [e for e in order if e[0] == "ckpt"]
    assert ckpts, "run never checkpointed"
    journaled = [it for kind, it in order if kind == "journal" and it]
    assert journaled, "no barrier record claimed a checkpoint"
    for iteration in journaled:
        assert ("ckpt", iteration) in order
        assert order.index(("ckpt", iteration)) \
            < order.index(("journal", iteration)), \
            f"journal claimed checkpoint {iteration} before it was durable"


# ----------------------------------------------------------------------
# kill/resume bit-identity (the acceptance criterion)
# ----------------------------------------------------------------------
def test_killed_run_resumes_bit_identically_with_matching_trace(
        rmat10, tmp_path):
    """Crash at iteration 5, resume in a fresh call, diff the traces."""
    trace_full = str(tmp_path / "full.jsonl")
    trace_killed = str(tmp_path / "killed.jsonl")
    trace_resumed = str(tmp_path / "resumed.jsonl")
    ck = str(tmp_path / "pr.ckpt")

    base = run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
               threads=8, seed=0, record=trace_full)

    with pytest.raises(ConvergenceFailure):
        run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
            threads=8, seed=0, record=trace_killed, faults="crash@5",
            checkpoint=ck, policy=DegradationPolicy(max_restarts=0))

    res = run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
              resume_from=ck, record=trace_resumed)
    assert res.converged
    np.testing.assert_array_equal(base.state.vertex("rank"),
                                  res.state.vertex("rank"))

    # concatenated provenance (killed prefix + resumed suffix) must align
    # with the uninterrupted run's, event for event
    stitched = tmp_path / "stitched.jsonl"
    stitched.write_bytes((tmp_path / "killed.jsonl").read_bytes()
                         + (tmp_path / "resumed.jsonl").read_bytes())
    assert cli.main(["trace", "diff", trace_full, str(stitched)]) == 0


def test_trace_stitch_trims_hard_kill_partial_iteration(rmat10, tmp_path):
    """A SIGKILL (unlike the barrier-aligned crash fault) lands mid-
    iteration, so the killed trace ends with a partial copy of the very
    iteration the resume replays in full.  ``trace stitch`` must trim
    that overlap; a naive byte concatenation must demonstrably fail."""
    import json

    trace_full = tmp_path / "full.jsonl"
    trace_killed = tmp_path / "killed.jsonl"
    trace_resumed = tmp_path / "resumed.jsonl"
    ck = str(tmp_path / "pr.ckpt")

    run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
        threads=8, seed=0, record=str(trace_full))
    with pytest.raises(ConvergenceFailure):
        run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
            threads=8, seed=0, record=str(trace_killed), faults="crash@5",
            checkpoint=ck, policy=DegradationPolicy(max_restarts=0))

    # emulate the kill landing mid-iteration 5: graft the first few
    # iteration-5 provenance lines onto the killed trace, plus the torn
    # half-line a killed process leaves behind
    it5 = [line for line in trace_full.read_text().splitlines(keepends=True)
           if json.loads(line).get("type") == "provenance"
           and json.loads(line).get("iteration") == 5]
    assert len(it5) > 8
    with open(trace_killed, "a", encoding="utf-8") as fh:
        fh.writelines(it5[:7])
        fh.write(it5[7][: len(it5[7]) // 2])

    res = run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
              resume_from=ck, record=str(trace_resumed))
    assert res.converged

    # even dropping the torn half-line, a naive concatenation duplicates
    # the replayed iteration-5 events and diff reports a false divergence
    naive = tmp_path / "naive.jsonl"
    killed_bytes = trace_killed.read_bytes()
    complete = killed_bytes[: killed_bytes.rfind(b"\n") + 1]
    naive.write_bytes(complete + trace_resumed.read_bytes())
    assert cli.main(["trace", "diff", str(trace_full), str(naive)]) == 3

    stitched = tmp_path / "stitched.jsonl"
    assert cli.main(["trace", "stitch", str(trace_killed),
                     str(trace_resumed), "-o", str(stitched)]) == 0
    assert cli.main(["trace", "diff", str(trace_full), str(stitched)]) == 0
    assert cli.main(["trace", "lint", str(stitched)]) == 0


def test_self_healing_run_trace_matches_uninterrupted(rmat10, tmp_path):
    """Same criterion, single call: the supervised loop restarts itself
    and the recorder extends (not truncates) the trace across attempts."""
    trace_full = str(tmp_path / "full.jsonl")
    trace_healed = str(tmp_path / "healed.jsonl")
    ck = str(tmp_path / "pr.ckpt")

    base = run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
               threads=8, seed=0, record=trace_full)
    res = run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
              threads=8, seed=0, record=trace_healed, faults="crash@5",
              checkpoint=ck)
    assert res.converged
    assert res.extra["degradations"][0]["action"] == "restart"
    np.testing.assert_array_equal(base.state.vertex("rank"),
                                  res.state.vertex("rank"))
    assert cli.main(["trace", "diff", trace_full, trace_healed]) == 0


def test_trace_diff_detects_genuinely_different_runs(rmat10, tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
        threads=8, seed=0, record=a)
    run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
        threads=8, seed=1, record=b)
    assert cli.main(["trace", "diff", a, b]) == 3  # sanity: diff can fail


def test_resume_across_engines_and_checkpoint_every(tmp_path):
    g = generators.rmat(7, 6.0, seed=2)
    for mode in ("sync", "deterministic", "chromatic", "nondeterministic",
                 "delta"):
        ck = str(tmp_path / f"{mode}.ckpt")
        base = run(WeaklyConnectedComponents(), g, mode=mode, threads=4,
                   seed=0)
        res = run(WeaklyConnectedComponents(), g, mode=mode, threads=4,
                  seed=0, faults="crash@1", checkpoint=ck, checkpoint_every=2)
        assert res.converged, mode
        assert res.extra["last_checkpoint_iteration"] % 2 == 0
        np.testing.assert_array_equal(base.state.vertex("label"),
                                      res.state.vertex("label"))


DELTA_FACTORIES = pytest.mark.parametrize("factory", [
    WeaklyConnectedComponents, lambda: SSSP(source=0),
    # damping 0.5: ~30 barriers instead of ~90, same ADD algebra
    lambda: PageRank(epsilon=1e-2, damping=0.5)],
    ids=["WCC", "SSSP", "PageRank"])


@DELTA_FACTORIES
def test_delta_resumes_from_every_barrier_across_mutation_batches(
        tmp_path, factory):
    """The delta cut — (x, accum, Δ), the frontier, the ``delta`` stream
    and the batch cursor — restores exactly at every barrier, before,
    between and right after the batches; the ADD kernel (PageRank)
    included.  Both restore points: the checkpoint file after a run that
    gave up, and the in-memory token of a self-healing run."""
    _delta_resumes_from_every_barrier(tmp_path, factory,
                                      EngineConfig(threads=4, seed=1))


@DELTA_FACTORIES
def test_delta_resumes_from_every_barrier_under_racy_combines(
        tmp_path, factory):
    """The same with ``atomicity=NONE``: the ``torn`` stream and the
    conflict log are part of the cut, so every resumed run loses the
    same combines (``lost_writes``) as the uninterrupted one."""
    config = EngineConfig(threads=4, seed=1,
                          atomicity=AtomicityPolicy.NONE, torn_probability=0.3)
    lost = _delta_resumes_from_every_barrier(tmp_path, factory, config)
    assert lost > 0


def _delta_resumes_from_every_barrier(tmp_path, factory, config) -> int:
    """Crash and resume at every barrier; returns the run's lost writes."""
    graph = generators.rmat(7, 8.0, seed=3)
    kw = {"mode": "delta",
          "mutations": generate_batches(graph, 3, 0.02, 5)}

    def facts(res):
        return (res.result().tobytes(), res.converged, res.num_iterations,
                res.conflicts.summary(), res.extra["delta"], [
                    {k: v for k, v in m.items() if k != "repair_seconds"}
                    for m in res.extra["mutations"]])

    base = run(factory(), graph, config=config, **kw)
    assert base.extra["mutations_applied"] == 3
    after_batch = {m["at_iteration"] for m in base.extra["mutations"]}
    assert after_batch < set(range(1, base.num_iterations))
    for k in range(1, base.num_iterations):
        ck = str(tmp_path / f"at{k}.ckpt")
        with pytest.raises(ConvergenceFailure):
            run(factory(), graph, config=config, faults=f"crash@{k}",
                checkpoint=ck, checkpoint_every=k,
                policy=DegradationPolicy(max_restarts=0), **kw)
        for res in (run(factory(), graph, resume_from=ck, **kw),
                    run(factory(), graph, config=config,
                        faults=f"crash@{k}", **kw)):
            assert facts(res) == facts(base), k
            assert res.iterations == base.iterations[k:], k
    return base.conflicts.lost_writes


def test_delta_checkpoint_without_level_resumes(tmp_path):
    """WCC's delta cut carries the support ``level``.  A checkpoint that
    lacks it (as one written before levels were part of the cut) still
    resumes: the level stays unbuilt and the next batch with deletes
    rebuilds it, so the result is the uninterrupted run's."""
    graph = generators.rmat(7, 8.0, seed=3)
    kw = {"mode": "delta", "mutations": generate_batches(graph, 3, 0.02, 5)}
    config = EngineConfig(threads=4, seed=1)
    base = run(WeaklyConnectedComponents(), graph, config=config, **kw)
    k = base.extra["mutations"][1]["at_iteration"]  # levels are built
    ck = str(tmp_path / "old.ckpt")
    with pytest.raises(ConvergenceFailure):
        run(WeaklyConnectedComponents(), graph, config=config,
            faults=f"crash@{k}", checkpoint=ck, checkpoint_every=k,
            policy=DegradationPolicy(max_restarts=0), **kw)
    ckpt = load_checkpoint(ck)
    assert not np.isnan(ckpt.vertex_arrays.pop("level")).all()
    save_checkpoint(ck, ckpt)
    res = run(WeaklyConnectedComponents(), graph, resume_from=ck, **kw)
    assert res.converged and res.extra["mutations_applied"] == 3
    assert res.result().tobytes() == base.result().tobytes()


def test_resume_guards(rmat10, tmp_path):
    ck = str(tmp_path / "pr.ckpt")
    run(PageRank(epsilon=1e-3), rmat10, mode="nondeterministic",
        threads=4, seed=0, checkpoint=ck)
    with pytest.raises(CheckpointError, match="mode"):
        run(PageRank(epsilon=1e-3), rmat10, mode="sync", resume_from=ck)
    with pytest.raises(CheckpointError, match="program"):
        run(WeaklyConnectedComponents(), rmat10, mode="nondeterministic",
            resume_from=ck)
    # a delta cut past the batches this run streams cannot be replayed
    g = generators.rmat(7, 8.0, seed=3)
    run(WeaklyConnectedComponents(), g, mode="delta", checkpoint=ck,
        mutations=generate_batches(g, 2, 0.02, 5))
    with pytest.raises(CheckpointError, match="past batch 1"):
        run(WeaklyConnectedComponents(), g, mode="delta", resume_from=ck,
            mutations=generate_batches(g, 1, 0.02, 5))


def test_pure_async_refuses_checkpoint(tmp_path):
    g = generators.path_graph(8)
    # run() refuses up front; the supervisor still guards a direct caller.
    with pytest.raises(Refused, match="barrier-free"):
        run(WeaklyConnectedComponents(), g, mode="pure-async",
            checkpoint=str(tmp_path / "nope.ckpt"))
    with pytest.raises(CheckpointError, match="barrier-free"):
        supervised_run(WeaklyConnectedComponents(), g, RunSpec(
            mode="pure-async", checkpoint=str(tmp_path / "nope.ckpt")))


# ----------------------------------------------------------------------
# runner validation satellite
# ----------------------------------------------------------------------
def test_runner_rejects_bad_bounds():
    g = generators.path_graph(4)
    prog = WeaklyConnectedComponents()
    with pytest.raises(ValueError, match="max_iterations"):
        run(prog, g, max_iterations=0)
    with pytest.raises(ValueError, match="max_iterations"):
        run(prog, g, max_iterations=2.5)
    with pytest.raises(ValueError, match="max_iterations"):
        run(prog, g, max_iterations="10")
    with pytest.raises(ValueError, match="max_iterations"):
        run(prog, g, max_iterations=True)
    with pytest.raises(ValueError, match="deadline_s"):
        run(prog, g, deadline_s=-1.0)
    with pytest.raises(ValueError, match="deadline_s"):
        run(prog, g, deadline_s=float("nan"))
    with pytest.raises(ValueError, match="checkpoint_every"):
        run(prog, g, faults="crash@1", checkpoint_every=0)
    with pytest.raises(ValueError, match="checkpoint_every"):
        run(prog, g, checkpoint_every=-2)


def test_runner_rejects_supervisor_plus_convenience_kwargs():
    from repro.robust import Supervisor

    g = generators.path_graph(4)
    with pytest.raises(ValueError, match="supervisor"):
        run(WeaklyConnectedComponents(), g, supervisor=Supervisor(),
            faults="crash@1")


# ----------------------------------------------------------------------
# CLI satellite: repro run --checkpoint / --resume
# ----------------------------------------------------------------------
def test_cli_checkpoint_then_resume(tmp_path, capsys):
    ck = str(tmp_path / "cli.ckpt")
    code = cli.main(["run", "PageRank", "--scale", "7",
                     "--faults", "crash@2", "--checkpoint", ck])
    assert code == 0
    out = capsys.readouterr()
    assert "fault injected: kind=crash" in out.err
    assert "degradation: action=restart" in out.err

    code = cli.main(["run", "PageRank", "--scale", "7", "--resume", ck])
    assert code == 0  # resumed from the final barrier: converged


def test_cli_watchdog_flags_route_through(capsys):
    # Healthy run: the armed watchdog must stay silent and exit 0.  The
    # degradation behaviour itself is covered by the API-level tests on
    # matching graphs (no bundled dataset is a matching).
    code = cli.main(["run", "PageRank", "--scale", "7", "--watchdog",
                     "--deadline-s", "300", "--fallback", "deterministic"])
    assert code == 0
    out = capsys.readouterr()
    assert "degradation:" not in out.err


def test_cli_faults_spec_error_is_a_clean_failure(tmp_path):
    with pytest.raises(ValueError, match="fault"):
        cli.main(["run", "PageRank", "--scale", "7", "--faults", "boom@1"])
