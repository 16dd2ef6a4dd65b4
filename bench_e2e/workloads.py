"""The six workloads: inputs, one pass of jobs, the correctness gate,
and the per-layer numbers each can report.

Every layer is driven from outside, through public functions and the
sinks they already accept (``telemetry=``, ``RunResult.extra``, the job
summary).  Sizes are fixed per workload; ``--seed`` feeds the R-MAT seed,
``EngineConfig.seed``, the mutation stream, the endpoint-keyed SSSP
weights and the order and run seeds of the service job mix.
"""

from __future__ import annotations

import functools
import glob
import hashlib
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.algorithms import BFS, SSSP, PageRank, SpMV, WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.experiments.figure3 import run_figure3
from repro.experiments.table2 import run_table2
from repro.graph import generators
from repro.graph.datasets import load_dataset
from repro.graph.mutations import (apply_batch, apply_batches,
                                   generate_batches, stable_weights)
from repro.obs import Telemetry
from repro.service.client import ServiceClient, ServiceError
from repro.service.journal import JobJournal
from repro.service.scheduler import resolve_algorithm
from repro.storage.checkpoint import load_checkpoint, save_checkpoint
from repro.storage.shards import ShardStore

from .catalog import LATENCY_PARTS, PHASES, percentile
from .spans import Tracer

EPSILON = 1e-3
JITTER = 0.5
CLIENTS = 2          #: closed loop: each client waits for its reply
POLL_S = 0.005
WARM_ITERATIONS = 3  #: barriers each job runs in the set-up's warm-up


@dataclass
class Context:
    seed: int
    quick: bool
    tracer: Tracer
    scratch: str   #: temp files of the run, inside the checkout
    out_dir: str   #: server logs and span files


class Gate:
    """Correctness gate: operations attempted and failed."""

    def __init__(self, *, inject_failure: bool = False):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._inject = inject_failure

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def check_digest(self, actual: str | None, expected: str | None,
                     what: str) -> None:
        if self._inject:  # self-test: the first comparison must fail
            self._inject = False
            expected = f"corrupted:{expected}"
        self.check(actual is not None and actual == expected,
                   f"{what}: digest {actual} != {expected}")


def digest(array) -> str:
    """The service's ``state_sha256`` of a result array."""
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@dataclass
class Record:
    """One job of one pass."""

    key: str
    wall_s: float
    ok: bool
    digest: str | None
    result: object = None          #: RunResult (in-process jobs)
    sink: Telemetry | None = None  #: attached in traced passes
    parts: dict = field(default_factory=dict)  #: service: latency parts


class Workload:
    """Set-up, one pass over the fixed job list, gate, layer metrics."""

    name = ""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.span = ctx.tracer.span

    def setup(self) -> None:
        raise NotImplementedError

    def generate_graph(self, make) -> None:
        with self.span("graph.generate") as t:
            self.graph = make()
        self.generate_s = t.duration

    def graph_metrics(self) -> dict:
        return {"graph.generate_s": self.generate_s,
                "graph.edges_per_s": self.graph.num_edges / self.generate_s}

    def run_pass(self, traced: bool) -> list[Record]:
        raise NotImplementedError

    def verify(self, passes: list[list[Record]], gate: Gate) -> None:
        """Default gate: every job succeeded, and a job's result digest
        is the same in every pass (runs repeat exactly per seed)."""
        first = {rec.key: rec.digest for rec in passes[0]}
        for p, records in enumerate(passes):
            for rec in records:
                gate.check(rec.ok, f"pass {p} {rec.key}: not converged/done")
                gate.check_digest(rec.digest, first[rec.key],
                                  f"pass {p} {rec.key} vs pass 0")

    def layer_metrics(self, passes: list[list[Record]]) -> dict:
        return {}

    def probes(self) -> dict:
        return {}

    def teardown(self) -> list[str]:
        """Release everything ``setup`` made; returns what was left."""
        return []


# ----------------------------------------------------------------------
# engine workloads: a list of run() calls on one generated graph
# ----------------------------------------------------------------------
def engine_metrics(records: list[Record]) -> dict:
    """Per-layer numbers of one pass of in-process ``run()`` calls."""
    out: dict = {}
    results = [r.result for r in records if r.result is not None]
    conflicts = [r.conflicts.summary() for r in results]
    extras = [r.extra for r in results]
    out["engine.iterations"] = sum(r.num_iterations for r in results)
    out["engine.updates"] = sum(r.total_updates for r in results)
    for name, key in (("engine.fixpoint_passes", "fixpoint_passes"),
                      ("engine.plan_cache_hits", "plan_cache_hits"),
                      ("engine.push_iterations", "push_iterations")):
        out[name] = sum(int(e.get(key) or 0) for e in extras)
    out["engine.pool_reused"] = sum(bool(e.get("pool_reused")) for e in extras)
    for name, key in (("engine.conflicts_rw", "read_write"),
                      ("engine.conflicts_ww", "write_write"),
                      ("engine.stale_reads", "stale_reads"),
                      ("engine.lost_writes", "lost_writes")):
        out[name] = sum(int(c.get(key) or 0) for c in conflicts)
    run_s = sum(r.wall_s for r in records)
    if run_s > 0:
        out["engine.updates_per_s"] = out["engine.updates"] / run_s

    spans = [s for r in records if r.sink is not None for s in r.sink.spans]
    if spans:
        walls_ms = [s.wall_time_s * 1e3 for s in spans]
        out["engine.iteration_p50_ms"] = statistics.median(walls_ms)
        out["engine.iteration_p95_ms"] = percentile(walls_ms, 95)
        phases = dict.fromkeys(PHASES, 0.0)
        for s in spans:
            for phase, seconds in (s.extra.get("phases") or {}).items():
                if phase in phases:
                    phases[phase] += seconds
        for phase, seconds in phases.items():
            out[f"engine.phase.{phase}_s"] = seconds
            out[f"engine.phase_share.{phase}"] = seconds / run_s
        unaccounted = run_s - sum(phases.values())
        out["engine.phase.unaccounted_s"] = unaccounted
        out["engine.phase_share.unaccounted"] = unaccounted / run_s

    io = [e["io"] for e in extras if e.get("io")]
    if io:
        out["storage.io_bytes_read"] = sum(i["bytes_read"] for i in io)
        out["storage.io_bytes_written"] = sum(i["bytes_written"] for i in io)
        out["storage.interval_loads"] = sum(i["interval_loads"] for i in io)
        out["storage.io_s"] = sum(i["seconds"] for i in io)
    return out


def median_over_passes(passes: list[list[Record]]) -> dict:
    """``engine.run_s.<job>``: median wall of each job over the passes."""
    walls: dict[str, list[float]] = {}
    for records in passes:
        for rec in records:
            walls.setdefault(rec.key, []).append(rec.wall_s)
    return {f"engine.run_s.{key}": statistics.median(w)
            for key, w in walls.items()}


class EngineWorkload(Workload):
    threads = 8

    def make_graph(self):
        raise NotImplementedError

    def jobs(self) -> list[tuple]:
        """``(key, program factory, graph, run() kwargs)`` in pass order."""
        raise NotImplementedError

    def build(self) -> None:
        """Inputs derived from the graph (shard store, batches)."""

    def config(self, **overrides) -> EngineConfig:
        return EngineConfig(threads=self.threads, seed=self.ctx.seed,
                            jitter=JITTER, **overrides)

    def setup(self) -> None:
        self.generate_graph(self.make_graph)
        self.build()
        with self.span("warmup"):
            for _key, make_program, graph, kwargs in self.jobs():
                run(make_program(), graph,
                    config=self.config(max_iterations=WARM_ITERATIONS),
                    **kwargs)

    def run_pass(self, traced: bool) -> list[Record]:
        records = []
        for key, make_program, graph, kwargs in self.jobs():
            sink = Telemetry() if traced else None
            with self.span(f"engine.run.{key}") as t:
                result = run(make_program(), graph, config=self.config(),
                             telemetry=sink, **kwargs)
            records.append(Record(key, t.duration, bool(result.converged),
                                  digest(result.result()), result, sink))
        return records

    def layer_metrics(self, passes):
        return {**engine_metrics(passes[-1]), **median_over_passes(passes),
                **self.graph_metrics()}

    def teardown(self) -> list[str]:
        self.graph = None
        return []


class FixpointDense(EngineWorkload):
    """Theorem-1 kernels, every vertex active at every barrier."""

    name = "fixpoint_dense"

    def make_graph(self):
        return generators.rmat(10 if self.ctx.quick else 15, 8.0,
                               seed=self.ctx.seed)

    def jobs(self):
        kwargs = {"vectorized": "require", "direction": "pull"}
        return [("pagerank", lambda: PageRank(epsilon=EPSILON), self.graph, kwargs),
                ("spmv", SpMV, self.graph, kwargs)]


class TraversalSparse(EngineWorkload):
    """Theorem-2 monotone kernels with long thin frontiers."""

    name = "traversal_sparse"

    def make_graph(self):
        side = 30 if self.ctx.quick else 150
        return generators.grid_graph(side, side)

    def jobs(self):
        # Default (fixed) SSSP weights: with seeded weights the barrier
        # count swings between 144 and 299 from seed to seed, and the
        # workload would measure the weights, not the engine.
        kwargs = {"vectorized": "require", "direction": "auto"}
        return [("wcc", WeaklyConnectedComponents, self.graph, kwargs),
                ("sssp", lambda: SSSP(source=0), self.graph, kwargs),
                ("bfs", lambda: BFS(source=0), self.graph, kwargs)]


class ResidencyProcess(EngineWorkload):
    """PageRank again, in worker processes: over shared memory, then over
    an on-disk shard store."""

    name = "residency_process"
    threads = 2
    intervals = 8

    def make_graph(self):
        return generators.rmat(9 if self.ctx.quick else 14, 8.0,
                               seed=self.ctx.seed)

    def build(self):
        self.dir = tempfile.mkdtemp(prefix="shards-", dir=self.ctx.scratch)
        with self.span("storage.shard_build") as t:
            self.store = ShardStore.build(
                self.graph, os.path.join(self.dir, "store"), self.intervals)
        self.shard_build_s = t.duration
        self.shard_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _dirs, names in os.walk(self.dir) for name in names)

    def jobs(self):
        def program():
            return PageRank(epsilon=EPSILON)
        return [("pagerank_shm", program, self.graph, {"backend": "process"}),
                ("pagerank_shards", program, self.store, {"backend": "process"})]

    def verify(self, passes, gate):
        super().verify(passes, gate)
        reference = run(PageRank(epsilon=EPSILON), self.graph,
                        config=self.config(), vectorized="require")
        gate.check(reference.converged, "single-process reference converged")
        for rec in passes[-1]:
            gate.check_digest(rec.digest, digest(reference.result()),
                              f"{rec.key} vs single-process run")

    def layer_metrics(self, passes):
        out = super().layer_metrics(passes)
        out["storage.shard_build_s"] = self.shard_build_s
        out["storage.shard_bytes"] = self.shard_bytes
        if "storage.io_bytes_read" in out:
            out["storage.read_amplification"] = (
                out["storage.io_bytes_read"] / self.shard_bytes)
        return out

    def teardown(self):
        self.store.nondet_runner().close()
        self.store = None
        shutil.rmtree(self.dir, ignore_errors=True)
        return super().teardown()


class DeltaMutations(EngineWorkload):
    """The delta engine repairing its standing result across seeded
    insert/delete batches: structure is written between reads."""

    name = "delta_mutations"
    num_batches = 8
    frac = 0.001

    def make_graph(self):
        return generators.rmat(9 if self.ctx.quick else 14, 8.0,
                               seed=self.ctx.seed)

    def build(self):
        self.batches = generate_batches(self.graph, self.num_batches,
                                        self.frac, self.ctx.seed)
        self.weight_fn = functools.partial(stable_weights, seed=self.ctx.seed)

    def programs(self):
        return [("pagerank", lambda: PageRank(epsilon=EPSILON)),
                ("wcc", WeaklyConnectedComponents),
                ("sssp", lambda: SSSP(source=0, weight_fn=self.weight_fn))]

    def jobs(self):
        kwargs = {"mode": "delta", "mutations": self.batches}
        return [(f"delta_{key}", program, self.graph, kwargs)
                for key, program in self.programs()]

    def verify(self, passes, gate):
        super().verify(passes, gate)
        mutated, _diffs = apply_batches(self.graph, self.batches)
        last = {rec.key: rec.result for rec in passes[-1]}
        for key, program in self.programs():
            result = last[f"delta_{key}"]
            gate.check(bool(result.extra["delta"]["accumulation_identity"]),
                       f"delta_{key}: accumulation identity")
            if key == "pagerank":
                # ADD kernels vary within truncation: the bound is the
                # one tests/test_mutations.py pins against a from-scratch
                # delta run on the mutated graph.
                scratch = run(program(), mutated, mode="delta",
                              config=self.config())
                error = float(np.max(np.abs(result.result() - scratch.result())))
                gate.check(scratch.converged and error <= 100 * EPSILON,
                           f"delta_pagerank: |repair - scratch| = {error}")
            else:
                scratch = run(program(), mutated, config=self.config(),
                              vectorized="require")
                gate.check(scratch.converged, f"{key}: scratch run converged")
                gate.check_digest(digest(result.result()),
                                  digest(scratch.result()),
                                  f"delta_{key} vs from-scratch run")

    def layer_metrics(self, passes):
        out = super().layer_metrics(passes)
        logs, standing = [], 0.0
        for rec in passes[-1]:
            log = rec.result.extra.get("mutations") or []
            logs.extend(log)
            if log and rec.sink is not None:
                first = min(m["at_iteration"] for m in log)
                standing += sum(s.wall_time_s for s in rec.sink.spans
                                if s.iteration < first)
        if logs:
            out["delta.repair_p50_s"] = statistics.median(
                m["repair_seconds"] for m in logs)
            out["delta.standing_s"] = standing
        out["delta.full_restarts"] = sum(
            m.get("repair_mode") == "full_restart" for m in logs)
        return out

    def probes(self):
        with self.span("probe.graph.batch_generate") as gen:
            batches = generate_batches(self.graph, self.num_batches,
                                       self.frac, self.ctx.seed)
        with self.span("probe.graph.apply_batch") as app:
            apply_batch(self.graph, batches[0])
        return {"graph.batch_generate_s": gen.duration,
                "graph.apply_batch_s": app.duration}


# ----------------------------------------------------------------------
# service_jobs: a real `repro serve` child under a closed loop
# ----------------------------------------------------------------------
class ServiceJobs(Workload):
    """Short jobs through HTTP -> journal fsync -> supervisor -> engine
    -> checkpoint per barrier -> result, two clients in a closed loop."""

    name = "service_jobs"
    algorithms = ("PageRank", "WCC", "SSSP", "BFS")
    threads = 4

    def __init__(self, ctx):
        super().__init__(ctx)
        self.scale = 8 if ctx.quick else 12
        self.sample = 4 if ctx.quick else 16
        # Equal shares of the four algorithms (a seeded *composition*
        # would make one seed's pass longer than another's); the seed
        # sets the order and each job's engine seed.
        mix = list(self.algorithms) * (2 if ctx.quick else 10)
        random.Random(ctx.seed).shuffle(mix)
        self.specs = [
            {"algorithm": algorithm, "graph": "web", "vectorized": True,
             "checkpoint_every": 1,
             "config": {"threads": self.threads, "jitter": JITTER,
                        "seed": ctx.seed * 1000 + i}}
            for i, algorithm in enumerate(mix)]
        # Warm-up: the first two jobs of each algorithm, so the set-up
        # costs the same whatever order the seed shuffled.
        self.warm_specs = [
            spec for algorithm in self.algorithms
            for spec in [s for s in self.specs
                         if s["algorithm"] == algorithm][:2]]
        self.server = None
        self.passes_run = 0
        self.reference: list[Record] = []

    # -- server lifecycle ------------------------------------------------
    def start_server(self, data_dir: str) -> tuple[subprocess.Popen, str]:
        log_path = os.path.join(
            self.ctx.out_dir, f"{os.path.basename(data_dir)}.server.log")
        # The server must import the same `repro` this process did.
        package_root = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        with open(log_path, "wb") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--data-dir",
                 data_dir, "--port", "0", "--max-concurrent", str(CLIENTS)],
                stdout=log, stderr=subprocess.STDOUT, env=env)
        deadline = time.monotonic() + 60
        try:
            while True:
                with open(log_path, encoding="utf-8", errors="replace") as fh:
                    found = re.search(r"listening on (http://\S+)", fh.read())
                if found:
                    client = ServiceClient(found.group(1), timeout=30)
                    client.health()
                    return server, found.group(1)
                if server.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"server did not start, see {log_path}")
                time.sleep(0.01)
        except BaseException:
            stop_server(server)
            raise

    def setup(self):
        self.generate_graph(lambda: load_dataset(
            "web-google-mini", scale=self.scale, seed=self.ctx.seed))
        self.data_dir = tempfile.mkdtemp(prefix="svc-", dir=self.ctx.scratch)
        with self.span("service.start") as t:
            self.server, self.url = self.start_server(self.data_dir)
        self.start_s = t.duration
        ServiceClient(self.url).register_graph(
            "web", {"dataset": "web-google-mini", "scale": self.scale,
                    "seed": self.ctx.seed})
        with self.span("warmup"):
            self.closed_loop(self.warm_specs, "warmup")

    def teardown(self):
        left = []
        if self.server is not None:
            if not stop_server(self.server):
                left.append("server ignored SIGTERM and was killed")
            self.server = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        return left

    # -- the closed loop -------------------------------------------------
    def one_job(self, client: ServiceClient, spec: dict) -> Record:
        polls = 0

        def count(_status):
            nonlocal polls
            polls += 1

        summary, parts = None, {}
        with self.span("service.job") as whole:
            try:
                with self.span("service.submit") as t:
                    job_id = client.submit(spec)
                parts["submit"] = t.duration
                with self.span("service.wait") as t:
                    status = client.wait(job_id, timeout=60, poll_s=POLL_S,
                                         on_status=count)
                parts["wait"] = t.duration
                if status["state"] == "done":
                    with self.span("service.result") as t:
                        summary = client.result(job_id)
                    parts["result"] = t.duration
            except (ServiceError, TimeoutError, OSError) as exc:
                parts["error"] = repr(exc)
        parts["polls"] = polls
        if summary is None:
            return Record(spec["algorithm"], whole.duration, False, None,
                          parts=parts)
        parts["engine"] = summary["wall_s"]
        parts["iterations"] = summary["iterations"]
        return Record(spec["algorithm"], whole.duration,
                      bool(summary["converged"]), summary["state_sha256"],
                      parts=parts)

    def closed_loop(self, specs: list[dict], label: str) -> list[Record]:
        records: list = [None] * len(specs)
        lock = threading.Lock()
        pending = iter(range(len(specs)))

        def client_loop(c: int) -> None:
            client = ServiceClient(self.url, timeout=30)
            run_id = f"{self.ctx.tracer.run_id}/{label}/client{c}"
            with self.span("service.client", run_id=run_id):
                while True:
                    with lock:
                        i = next(pending, None)
                    if i is None:
                        return
                    records[i] = self.one_job(client, specs[i])

        clients = [threading.Thread(target=client_loop, args=(c,))
                   for c in range(CLIENTS)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join()
        return [rec if rec is not None
                else Record(spec["algorithm"], 0.0, False, None)
                for rec, spec in zip(records, specs)]

    def run_pass(self, traced):
        self.passes_run += 1
        return self.closed_loop(self.specs, f"pass{self.passes_run}")

    # -- gate ------------------------------------------------------------
    def run_in_process(self, spec: dict, *, traced: bool, **kwargs) -> Record:
        sink = Telemetry() if traced else None
        started = time.perf_counter()
        result = run(resolve_algorithm(spec["algorithm"])(), self.graph,
                     config=EngineConfig(**spec["config"]), vectorized=True,
                     telemetry=sink, **kwargs)
        return Record(spec["algorithm"], time.perf_counter() - started,
                      bool(result.converged), digest(result.result()),
                      result, sink)

    def verify(self, passes, gate):
        # Keys repeat within a pass here, so compare by position.
        for p, records in enumerate(passes):
            for i, rec in enumerate(records):
                gate.check(rec.ok, f"pass {p} job {i} {rec.key}: "
                                   f"{rec.parts.get('error', 'not done')}")
        self.reference = [
            self.run_in_process(spec, traced=self.ctx.tracer.enabled)
            for spec in self.specs[:self.sample]]
        for i, (ref, rec) in enumerate(zip(self.reference, passes[-1])):
            gate.check_digest(rec.digest, ref.digest,
                              f"job {i} {rec.key} vs in-process run")

    # -- layers ----------------------------------------------------------
    def layer_metrics(self, passes):
        done = [r for records in passes for r in records if "engine" in r.parts]
        out = {**engine_metrics(self.reference), **self.graph_metrics(),
               "service.start_s": self.start_s}
        if not done:
            return out
        queue_wait = [r.wall_s - r.parts["submit"] - r.parts["engine"]
                      - r.parts["result"] for r in done]
        total = sum(r.wall_s for r in done)
        shares = {"submit": sum(r.parts["submit"] for r in done),
                  "engine": sum(r.parts["engine"] for r in done),
                  "result": sum(r.parts["result"] for r in done),
                  "queue_wait": sum(queue_wait)}
        for part in LATENCY_PARTS:
            out[f"service.latency_share.{part}"] = shares[part] / total
        for part in ("submit", "wait", "result"):
            out[f"service.{part}_p50_s"] = statistics.median(
                r.parts[part] for r in done)
        out["service.engine_wall_p50_s"] = statistics.median(
            r.parts["engine"] for r in done)
        out["service.queue_wait_p50_s"] = statistics.median(queue_wait)
        out["service.polls_per_job"] = statistics.mean(
            r.parts["polls"] for r in done)
        sampled = passes[-1][:self.sample]
        out["service.overhead_ratio"] = (
            sum(r.wall_s for r in sampled)
            / sum(r.wall_s for r in self.reference))
        journal = os.path.join(self.data_dir, "journal", "journal.jsonl")
        out["service.journal_bytes"] = os.path.getsize(journal)
        return out

    def probes(self):
        out = {}
        probe_dir = tempfile.mkdtemp(prefix="probe-", dir=self.ctx.scratch)
        try:
            # The cost of one barrier's durability, on the job the
            # service runs longest (the first PageRank of the mix).
            spec = next(s for s in self.specs if s["algorithm"] == "PageRank")
            path = os.path.join(probe_dir, "state.ckpt")
            with self.span("probe.robust"):
                bare = [self.run_in_process(spec, traced=False).wall_s
                        for _ in range(3)]
                supervised = [
                    self.run_in_process(spec, traced=False, checkpoint=path,
                                        checkpoint_every=1).wall_s
                    for _ in range(3)]
            out["robust.bare_run_s"] = statistics.median(bare)
            out["robust.supervised_run_s"] = statistics.median(supervised)
            out["robust.supervised_overhead_ratio"] = (
                out["robust.supervised_run_s"] / out["robust.bare_run_s"])
            loads, saves = [], []
            with self.span("probe.storage.checkpoint"):
                for _ in range(5):
                    started = time.perf_counter()
                    checkpoint = load_checkpoint(path)
                    loads.append(time.perf_counter() - started)
                    started = time.perf_counter()
                    save_checkpoint(path, checkpoint)
                    saves.append(time.perf_counter() - started)
            out["storage.checkpoint_load_s"] = statistics.median(loads)
            out["storage.checkpoint_save_s"] = statistics.median(saves)
            out["storage.checkpoint_bytes"] = os.path.getsize(path)

            appends = []
            with self.span("probe.service.journal"):
                with JobJournal(os.path.join(probe_dir, "journal"),
                                fsync=True) as journal:
                    for i in range(200):
                        started = time.perf_counter()
                        journal.append("barrier", job="j0001-beef", iteration=i,
                                       frontier=100, checkpoint_iteration=i + 1)
                        appends.append(time.perf_counter() - started)
            out["service.journal_append_p50_s"] = statistics.median(appends)

            # Recovery replays the journal as the timed passes left it:
            # copy it before the graceful stop compacts it.
            recover_dir = os.path.join(probe_dir, "svc-recover")
            shutil.copytree(self.data_dir, recover_dir)
            with self.span("probe.service.recover") as t:
                server, _url = self.start_server(recover_dir)
            out["service.recover_s"] = t.duration
            stop_server(server)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        return out


def stop_server(server: subprocess.Popen) -> bool:
    """SIGTERM (graceful drain) and wait; kill if it does not exit."""
    server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=30)
        return True
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
        return False


# ----------------------------------------------------------------------
# paper_artifacts: the experiment drivers on the object engines
# ----------------------------------------------------------------------
class PaperArtifacts(Workload):
    """Figure 3 and Table II with default (object-engine) settings."""

    name = "paper_artifacts"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.scale = 5 if ctx.quick else 8
        self.probe_records: list[Record] = []

    def table2(self, runs: int, trace_dir=None):
        return run_table2(scale=self.scale, seed=self.ctx.seed,
                          epsilons=(0.01,), runs=runs, trace_dir=trace_dir)

    def setup(self):
        self.generate_graph(lambda: load_dataset(
            "web-google-mini", scale=self.scale, seed=self.ctx.seed))
        with self.span("warmup"):
            self.table2(runs=2)

    def run_pass(self, traced):
        # The experiment drivers take no telemetry sink; their tracing
        # switch is trace_dir, which streams one JSONL trace per run.
        trace_dir = None
        if traced:
            trace_dir = tempfile.mkdtemp(prefix="traces-", dir=self.ctx.scratch)
        try:
            with self.span("experiments.figure3") as fig_t:
                figure = run_figure3(scale=self.scale, seed=self.ctx.seed,
                                     run_seed=self.ctx.seed, trace_dir=trace_dir)
            with self.span("experiments.table2") as tab_t:
                table = self.table2(runs=5, trace_dir=trace_dir)
        finally:
            if trace_dir is not None:
                shutil.rmtree(trace_dir, ignore_errors=True)
        return [Record(key, t.duration, True,
                       hashlib.sha256(artifact.render().encode()).hexdigest())
                for key, t, artifact in (("figure3", fig_t, figure),
                                         ("table2", tab_t, table))]

    def layer_metrics(self, passes):
        out = {**engine_metrics(self.probe_records), **self.graph_metrics()}
        for key in ("figure3", "table2"):
            out[f"experiments.{key}_s"] = statistics.median(
                rec.wall_s for records in passes for rec in records
                if rec.key == key)
        for rec in self.probe_records:
            out[f"engine.object_run_s.{rec.key}"] = rec.wall_s
        return out

    def probes(self):
        """One PageRank per object engine, with a sink, so the layer
        under the experiment drivers has its own numbers."""
        self.probe_records = []
        for mode in ("nondeterministic", "deterministic"):
            sink = Telemetry()
            with self.span(f"probe.engine.object_run.{mode}") as t:
                result = run(PageRank(), self.graph, mode=mode, telemetry=sink,
                             config=EngineConfig(seed=self.ctx.seed))
            self.probe_records.append(Record(
                mode, t.duration, bool(result.converged),
                digest(result.result()), result, sink))
        return {}


WORKLOADS = {cls.name: cls for cls in (
    FixpointDense, TraversalSparse, ResidencyProcess, DeltaMutations,
    ServiceJobs, PaperArtifacts)}


def shm_segments() -> set[str]:
    """The program's shared-memory segments that exist right now."""
    return set(glob.glob("/dev/shm/repro-*"))
