"""Tests for the command-line interface."""

from types import SimpleNamespace

import pytest

from repro import cli
from repro.cli import ALGORITHMS, main
from repro.engine import EngineConfig, run
from repro.graph import load_dataset
from repro.robust import RunInterrupted


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestEligibility:
    def test_all_algorithms(self, capsys):
        code, out = run_cli(capsys, "eligibility")
        assert code == 0
        for name in ("PageRank", "WCC", "AntiParity"):
            assert name in out

    def test_subset(self, capsys):
        code, out = run_cli(capsys, "eligibility", "WCC")
        assert code == 0
        assert "Theorem 2" in out
        assert "PageRank" not in out

    def test_unknown_algorithm(self, capsys):
        code = main(["eligibility", "Nope"])
        assert code == 1
        assert "unknown algorithm" in capsys.readouterr().err


class TestRun:
    def test_run_wcc(self, capsys):
        code, out = run_cli(
            capsys, "run", "WCC", "--scale", "7", "--threads", "4", "--audit"
        )
        assert code == 0
        assert "converged" in out
        assert "CLEAN" in out

    def test_run_all_modes(self, capsys):
        for mode in ("sync", "deterministic", "nondeterministic", "pure-async"):
            code, out = run_cli(
                capsys, "run", "BFS", "--scale", "7", "--mode", mode
            )
            assert code == 0, mode
            assert "True" in out

    def test_nonconvergent_exit_code(self, capsys):
        code, _ = run_cli(
            capsys, "run", "AntiParity", "--scale", "6", "--max-iterations", "10"
        )
        assert code == 2

    def test_dataset_choice_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "WCC", "--dataset", "nope"])

    def test_algorithm_choice_enforced(self):
        with pytest.raises(SystemExit):
            main(["run", "NoSuchAlgo"])


class TestRefusals:
    @pytest.mark.parametrize("flags", [
        ["--mode", "sync", "--backend", "process"],
        ["--mode", "delta", "--direction", "auto"],
        ["--mode", "delta", "--direction", "push"],
        ["--mode", "pure-async", "--direction", "push"],
        ["--mode", "sync", "--mutate"],
        ["--mode", "deterministic", "--out-of-core", "SHARDS"],
    ], ids=lambda flags: "-".join(f.lstrip("-") for f in flags))
    def test_refused_combination_is_one_error_line(self, capsys, tmp_path,
                                                   flags):
        shards = tmp_path / "shards"
        flags = [str(shards) if f == "SHARDS" else f for f in flags]
        code = main(["run", "WCC", "--scale", "6", *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not shards.exists()  # refused before building a store


class TestExperimentCommands:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1", "--scale", "7")
        assert code == 0
        assert "Table I" in out
        assert "web-berkstan-mini" in out

    def test_table2_small(self, capsys):
        code, out = run_cli(capsys, "table2", "--scale", "7", "--runs", "2")
        assert code == 0
        assert "DE vs. DE" in out

    def test_speed(self, capsys):
        code, out = run_cli(
            capsys, "speed", "BFS", "--scale", "7", "--threads", "2",
            "--delays", "1.0",
        )
        assert code == 0
        assert "chain bound" in out
        assert "SYNC" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRegistry:
    def test_registry_matches_zoo(self):
        assert set(ALGORITHMS) >= {
            "PageRank", "WCC", "SSSP", "BFS", "SpMV", "MaxLabel",
            "EdgeIncrementCounter", "AntiParity",
        }

    def test_factories_produce_programs(self):
        for name, factory in ALGORITHMS.items():
            program = factory()
            assert hasattr(program, "traits"), name


class TestBackendAndBench:
    def test_run_process_backend(self, capsys):
        code, out = run_cli(
            capsys, "run", "PageRank", "--scale", "6", "--threads", "2",
            "--backend", "process", "--audit",
        )
        assert code == 0
        assert "CLEAN" in out

    def test_bench_appends_trajectory_entries(self, capsys, tmp_path):
        import json

        argv = ("bench", "--suite", "nondet", "--scales", "4",
                "--out-dir", str(tmp_path))
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert "BENCH_nondet.json" in out
        payload = json.loads((tmp_path / "BENCH_nondet.json").read_text())
        assert payload["schema"] == "bench-trajectory/v2"
        assert len(payload["entries"]) == 1
        assert payload["entries"][0]["host"]["cpus"]
        # appending, not overwriting: a second run grows the trajectory
        code, _ = run_cli(capsys, *argv)
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_nondet.json").read_text())
        assert len(payload["entries"]) == 2

    def test_bench_parallel_suite(self, capsys, tmp_path):
        import json

        code, out = run_cli(
            capsys, "bench", "--suite", "parallel", "--scales", "4",
            "--workers", "1", "2", "--out-dir", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "BENCH_parallel.json").read_text())
        entry = payload["entries"][-1]["results"]
        cell = entry["scales"]["4"]["algorithms"]["pagerank"]
        assert set(cell["workers"]) == {"1", "2"}
        for stat in cell["workers"].values():
            assert stat["speedup"] > 0


class TestSharedSwitches:
    def test_resume_honours_an_engine_flag_equal_to_its_default(
            self, tmp_path, monkeypatch):
        """``--resume`` adopts the checkpoint's config only when no engine
        flag is given, even one that equals EngineConfig's default."""
        ck = str(tmp_path / "pr.ckpt")
        graph = load_dataset("web-google-mini", scale=8, seed=7)
        barriers = iter(range(1, 10**6))
        with pytest.raises(RunInterrupted):
            run(ALGORITHMS["PageRank"](), graph, checkpoint=ck,
                config=EngineConfig(threads=8),
                interrupt=lambda: "stop" if next(barriers) == 3 else None)
        results = []
        monkeypatch.setattr(cli, "run", lambda *a, **kw: results.append(
            run(*a, **kw)) or results[-1])
        for flags in ([], ["--threads", "4"]):
            assert main(["run", "PageRank", "--scale", "8",
                         "--resume", ck, *flags]) == 0
        adopted, explicit = results
        assert adopted.config == EngineConfig(threads=8)
        assert explicit.config == EngineConfig(threads=4)
        expected = run(ALGORITHMS["PageRank"](), graph, resume_from=ck,
                       config=EngineConfig(threads=4))
        assert explicit.conflicts.summary() == expected.conflicts.summary()
        assert explicit.num_iterations == expected.num_iterations

    def test_submit_expresses_the_benchmark_job_spec(self):
        """``client submit`` says what the service_jobs workload submits."""
        from bench_e2e.workloads import ServiceJobs

        bench = ServiceJobs(SimpleNamespace(quick=True, seed=3,
                                            tracer=SimpleNamespace(span=None)))
        want = bench.specs[0]
        argv = ["client", "submit", want["algorithm"], "--graph", "web",
                "--vectorized", "--checkpoint-every", "1",
                "--threads", str(want["config"]["threads"]),
                "--jitter", str(want["config"]["jitter"]),
                "--run-seed", str(want["config"]["seed"])]
        assert cli._job_spec(cli._build_parser().parse_args(argv)) == want

    def test_run_and_submit_share_the_switch_flags(self):
        parser = cli._build_parser()
        flags = ["--mode", "sync", "--vectorized", "require", "--threads",
                 "2", "--faults", "crash@2", "--max-restarts", "1"]
        run_args = parser.parse_args(["run", "WCC", *flags])
        submit_args = parser.parse_args(["client", "submit", "WCC",
                                         "--graph", "web", *flags])
        assert cli._switches(run_args) == cli._switches(submit_args) == {
            "mode": "sync", "vectorized": "require", "faults": "crash@2",
            "max_restarts": 1, "config": {"threads": 2}}
        assert cli._switches(parser.parse_args(["run", "WCC"])) == {}
