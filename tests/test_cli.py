"""Tests for the command-line interface."""

import pytest

from repro.cli import ALGORITHMS, main


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
        ["--mode", "chromatic", "--direction", "push"],
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
