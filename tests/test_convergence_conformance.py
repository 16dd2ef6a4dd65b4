"""Cross-engine conformance of convergence accounting at the cap.

Every engine claims ``converged=True`` only through the confirming
empty-frontier check at the top of an executed iteration — never by
peeking at the *next* frontier when ``max_iterations`` expires.  With
``K`` = the iteration count of the unbounded run, all engines must
agree:

* cap ``K+1`` → ``(converged=True,  num_iterations=K)`` — the extra
  slot is spent entering the loop once more and confirming emptiness;
* cap ``K``   → ``(converged=False, num_iterations=K)`` — all work
  done, but the confirming iteration never ran;
* cap ``K-1`` → ``(converged=False, num_iterations=K-1)``.

An engine with its own loop once shortcut this with a ``while/else``
that recomputed ``converged`` from the next frontier, over-claiming at
the cap; this suite pins the uniform semantics for every engine.
"""

import pytest

from repro.algorithms import WeaklyConnectedComponents
from repro.engine import EngineConfig, run
from repro.graph import generators

MODES = ["sync", "deterministic", "chromatic", "nondeterministic"]


@pytest.fixture(scope="module")
def graph():
    return generators.rmat(5, 8.0, seed=3)


def _capped_runner(mode, graph):
    base = EngineConfig(threads=2, seed=0, jitter=0.5)

    if mode == "vectorized":
        def invoke(cap):
            return run(WeaklyConnectedComponents(), graph,
                       mode="nondeterministic", vectorized="require",
                       config=base.with_(max_iterations=cap))
    elif mode == "vectorized-sync":
        def invoke(cap):
            return run(WeaklyConnectedComponents(), graph, mode="sync",
                       vectorized="require",
                       config=base.with_(max_iterations=cap))
    elif mode == "vectorized-push":
        def invoke(cap):
            return run(WeaklyConnectedComponents(), graph,
                       mode="nondeterministic", vectorized="require",
                       direction="push",
                       config=base.with_(max_iterations=cap))
    else:
        def invoke(cap):
            return run(WeaklyConnectedComponents(), graph, mode=mode,
                       config=base.with_(max_iterations=cap))
    return invoke


@pytest.mark.parametrize(
    "mode", MODES + ["vectorized", "vectorized-sync", "vectorized-push",
                     "delta"])
def test_at_cap_accounting(graph, mode):
    invoke = _capped_runner(mode, graph)
    free = invoke(10_000)
    assert free.converged
    k = free.num_iterations
    assert k >= 2, f"{mode}: trivial run cannot exercise the cap"

    confirmed = invoke(k + 1)
    assert (confirmed.converged, confirmed.num_iterations) == (True, k), mode

    at_cap = invoke(k)
    assert (at_cap.converged, at_cap.num_iterations) == (False, k), (
        f"{mode}: a run that never executed the confirming empty "
        f"iteration must not report converged")

    short = invoke(k - 1)
    assert (short.converged, short.num_iterations) == (False, k - 1), mode


def test_pure_async_task_budget_truncation(graph):
    """The barrier-free engine has no confirming iteration — it claims
    convergence by *draining its queues*, which is a genuine
    confirmation.  Its cap is a task budget (``max_iterations * n``), so
    the conformance contract is: a truncated budget must never report
    converged, and a sufficient one may."""
    base = EngineConfig(threads=2, seed=0, jitter=0.5)

    def invoke(cap):
        return run(WeaklyConnectedComponents(), graph, mode="pure-async",
                   config=base.with_(max_iterations=cap))

    free = invoke(10_000)
    assert free.converged
    k = free.num_iterations  # ceil(tasks / n): tasks exceed (k-1)*n
    assert k >= 2
    assert invoke(k).converged
    short = invoke(k - 1)
    assert (short.converged, short.num_iterations) == (False, k - 1)
