"""Tests for the unified runner: mode registry, config plumbing, observers."""

import pytest

from repro.algorithms import WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.engine.capabilities import MODES
from repro.engine.runner import ENGINES


class TestRunner:
    def test_all_modes_registered(self):
        assert set(ENGINES) == {
            "sync", "deterministic", "chromatic", "nondeterministic",
            "pure-async",
        }
        assert set(MODES) == set(ENGINES) | {"delta"}

    def test_unknown_mode(self, path8):
        with pytest.raises(ValueError, match="unknown mode"):
            run(WeaklyConnectedComponents(), path8, mode="magic")

    def test_config_and_kwargs_exclusive(self, path8):
        with pytest.raises(ValueError, match="not both"):
            run(WeaklyConnectedComponents(), path8,
                config=EngineConfig(), threads=4)

    def test_kwargs_build_config(self, path8):
        res = run(WeaklyConnectedComponents(), path8,
                  mode="nondeterministic", threads=2, seed=9, delay=3.0)
        assert res.config.threads == 2
        assert res.config.seed == 9
        assert res.config.delay == 3.0

    def test_threads_mode_is_unknown(self, path8):
        # The real-thread backend is gone; its mode name is refused like
        # any other, listing the modes that exist.
        with pytest.raises(ValueError, match="unknown mode 'threads'") as exc:
            run(WeaklyConnectedComponents(), path8, mode="threads",
                observer=lambda *a: None)
        assert "nondeterministic" in str(exc.value)

    def test_observer_called_each_iteration(self, path8):
        calls = []
        res = run(WeaklyConnectedComponents(), path8, mode="deterministic",
                  observer=lambda it, state, sched: calls.append(it))
        assert calls == list(range(res.num_iterations))

    def test_resume_from_state(self, path8):
        prog = WeaklyConnectedComponents()
        state = prog.make_state(path8)
        state.vertex("label")[:] = 0.0  # pre-converged labels
        state.edge("label")[:] = 0.0
        res = run(prog, path8, mode="deterministic", state=state)
        assert res.converged
        assert res.num_iterations <= 2

    def test_mode_recorded_in_result(self, path8):
        for mode in ("sync", "deterministic", "nondeterministic"):
            res = run(WeaklyConnectedComponents(), path8, mode=mode)
            assert res.mode == mode
