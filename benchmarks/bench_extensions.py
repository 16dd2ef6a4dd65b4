"""Benchmarks for the future-work extensions (DESIGN.md §7 additions).

E1: push mode — atomic vs racy combine on delta PageRank (the push-mode
    sufficient condition's warning, quantified).
E2: pure asynchronous model — work and fidelity vs the barriered engine.
E3: convergence speed — Theorem 1 chain bound across a schedule grid.
E4: distributed delay model — staleness/iteration cost of NUMA and
    cluster topologies with unchanged results.
E5: error envelope vs ε (precision / range of errors, future work #2).
"""

import numpy as np

from repro.algorithms import BFS, PageRank, WeaklyConnectedComponents, reference
from repro.analysis import epsilon_error_study
from repro.engine import AtomicityPolicy, DelayModel, EngineConfig, run
from repro.experiments.common import format_table
from repro.graph import load_dataset

SCALE = 9


def _graph():
    return load_dataset("web-google-mini", scale=SCALE, seed=7)


def test_e1_push_combine_atomicity(benchmark, record_table):
    graph = _graph()
    ref = reference.pagerank_reference(graph)

    def study():
        rows = []
        for label, policy, p_lost in (
            ("atomic combine", AtomicityPolicy.CACHE_LINE, 0.0),
            ("racy combine (p=0.3)", AtomicityPolicy.NONE, 0.3),
            ("racy combine (p=0.7)", AtomicityPolicy.NONE, 0.7),
        ):
            res = run(
                PageRank(epsilon=1e-7), graph, mode="delta", threads=8,
                seed=1, atomicity=policy, torn_probability=p_lost,
            )
            rows.append({
                "combine": label,
                "lost pushes": res.conflicts.lost_writes,
                "max error": float(np.max(np.abs(res.result() - ref))),
            })
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table("extension_e1_push", format_table(rows, title="E1 — push-mode combine atomicity"))
    assert rows[0]["max error"] < 1e-3
    assert rows[1]["max error"] > rows[0]["max error"]
    assert rows[2]["lost pushes"] > rows[1]["lost pushes"] > 0


def test_e2_pure_async_vs_barriered(benchmark, record_table):
    graph = _graph()
    truth = reference.wcc_reference(graph)

    def study():
        rows = []
        for mode in ("nondeterministic", "pure-async"):
            res = run(WeaklyConnectedComponents(), graph, mode=mode,
                      config=EngineConfig(threads=8, seed=0))
            rows.append({
                "engine": mode,
                "tasks": res.total_updates,
                "exact": bool(np.array_equal(res.result(), truth)),
            })
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table("extension_e2_pure_async", format_table(rows, title="E2 — barriered vs pure async"))
    assert all(r["exact"] for r in rows)
    a, b = rows[0]["tasks"], rows[1]["tasks"]
    assert max(a, b) <= 6 * min(a, b)  # comparable work (GRACE)


def test_e3_chain_bound(benchmark, record_table):
    from repro.theory import measure_convergence_speed

    graph = _graph()

    def study():
        return measure_convergence_speed(
            lambda: BFS(source=0), graph,
            threads_list=(2, 4, 8), delays=(1.0, 4.0, 16.0), seeds=(0, 1),
        )

    report = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table(
        "extension_e3_speed",
        format_table(report.rows(), title="E3 — BFS convergence speed grid"),
    )
    assert report.check_chain_bound()


def test_e4_delay_topologies(benchmark, record_table):
    graph = _graph()
    truth = reference.wcc_reference(graph)
    topologies = [
        ("flat", DelayModel.uniform(2.0)),
        ("numa", DelayModel.numa(4, intra=2.0, inter=8.0)),
        ("cluster", DelayModel.distributed(2, intra=2.0, network=64.0)),
    ]

    def study():
        rows = []
        for name, model in topologies:
            res = run(WeaklyConnectedComponents(), graph, mode="nondeterministic",
                      config=EngineConfig(threads=8, delay_model=model, seed=3))
            rows.append({
                "topology": name,
                "iterations": res.num_iterations,
                "stale reads": res.conflicts.stale_reads,
                "exact": bool(np.array_equal(res.result(), truth)),
            })
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table("extension_e4_topologies", format_table(rows, title="E4 — delay topologies"))
    assert all(r["exact"] for r in rows)
    stale = [r["stale reads"] for r in rows]
    assert stale[0] < stale[1] < stale[2]


def test_e5_error_envelope(benchmark, record_table):
    graph = _graph()
    ref = reference.pagerank_reference(graph)

    def study():
        return epsilon_error_study(
            lambda e: PageRank(epsilon=e), graph, ref,
            epsilons=(1e-1, 1e-2, 1e-3), seeds=(0, 1, 2), top_k=25,
        )

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table("extension_e5_errors", format_table(rows, title="E5 — PageRank error envelope vs epsilon"))
    by = {(r["config"], r["epsilon"]): r for r in rows}
    for config in ("DE", "8NE"):
        assert by[(config, 1e-3)]["worst max_abs"] < by[(config, 1e-1)]["worst max_abs"]


def test_e6_chromatic_baseline(benchmark, record_table):
    """E6: the deterministic-*parallel* alternative (§VI related work).

    Chromatic scheduling scales where the external deterministic
    scheduler cannot, but pays per-color barriers and the coloring
    itself; nondeterministic execution keeps its edge — the ordering
    NE < chromatic < DE the paper's related-work discussion predicts.
    """
    graph = _graph()

    def study():
        from repro.perf import estimate_time

        rows = []
        de = run(WeaklyConnectedComponents(), graph, mode="deterministic")
        rows.append({"scheduler": "external deterministic (DE)",
                     "threads": 1, "virtual_ms": estimate_time(de) * 1e3})
        for threads in (4, 8, 16):
            ch = run(WeaklyConnectedComponents(), graph, mode="chromatic",
                     config=EngineConfig(threads=threads), vectorized=True)
            rows.append({"scheduler": f"chromatic ({ch.extra['num_colors']} colors)",
                         "threads": threads, "virtual_ms": estimate_time(ch) * 1e3})
            ne = run(WeaklyConnectedComponents(), graph, mode="nondeterministic",
                     config=EngineConfig(threads=threads, seed=0))
            rows.append({"scheduler": "nondeterministic (arch)",
                         "threads": threads, "virtual_ms": estimate_time(ne) * 1e3})
        return rows

    rows = benchmark.pedantic(study, rounds=1, iterations=1)
    record_table("extension_e6_chromatic",
                 format_table(rows, title="E6 — scheduler comparison (WCC, web-google-mini)"))
    de_time = rows[0]["virtual_ms"]
    for threads in (4, 8, 16):
        ch = next(r for r in rows if r["threads"] == threads and "chromatic" in r["scheduler"])
        ne = next(r for r in rows if r["threads"] == threads and "nondeterministic" in r["scheduler"])
        assert ne["virtual_ms"] < ch["virtual_ms"] < de_time
