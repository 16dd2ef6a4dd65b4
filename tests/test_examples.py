"""Smoke tests: the example scripts must run cleanly end to end.

Each example is executed in-process (importing its ``main``) against
the real library; the slow, minutes-long variance study is covered by
its own benchmark instead.
"""

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str) -> None:
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "Verdict:" in out
    assert "results identical across schedules: True" in out


def test_wcc_recovery(capsys):
    run_example("wcc_recovery.py")
    out = capsys.readouterr().out
    assert "corruption was recovered" in out
    assert "exact result: True" in out


def test_out_of_core(capsys):
    run_example("out_of_core.py")
    out = capsys.readouterr().out
    assert "bit-identical to in-memory: True" in out


def test_examples_all_exist():
    present = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "wcc_recovery.py",
        "pagerank_variance.py",
        "eligibility_audit.py",
        "sssp_schedules.py",
        "beyond_the_paper.py",
        "out_of_core.py",
    } <= present


@pytest.mark.parametrize("name", ["pagerank_variance.py", "eligibility_audit.py",
                                  "sssp_schedules.py", "beyond_the_paper.py"])
def test_other_examples_importable(name):
    """The heavier examples at least parse and expose main()."""
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py") + "_imp", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
