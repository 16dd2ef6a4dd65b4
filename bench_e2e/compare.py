"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

Per (workload, end-to-end metric) prints both medians with quartiles and
sample count, the ratio B/A (base: A), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* *regressed* / *improved*: B's median is worse / better than A's by
  more than the bound;
* *unchanged*: within the bound;
* *unresolved*: the spread inside either file (quartile distance over
  median) exceeds the bound, so the bound cannot be decided -- unless
  every sample of B is better than every sample of A (*improved*).

Exact counts of the traced runs are compared for equality; a difference
is a *semantic change*, never a speed-up.  Exits 1 unless every verdict
is *unchanged* or *improved* and no operation failed.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench_e2e.catalog import EXACT_COUNTS, load_benchmark  # noqa: E402


def verdict(a: dict, b: dict, *, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (b["value"] - a["value"]) / a["value"]
    spread = max((m["q3"] - m["q1"]) / m["value"] for m in (a, b))
    if spread > bound:
        if better == "lower":
            all_better = max(b["samples"]) < min(a["samples"])
        else:
            all_better = min(b["samples"]) > max(a["samples"])
        return "improved" if all_better else "unresolved"
    if worsening > bound:
        return "regressed"
    if worsening < -bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines, and whether B is acceptable against A."""
    lines, accept = [], True
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        runs_a, runs_b = a["workloads"][name], b["workloads"][name]
        lines.append(f"== {name} ==")
        if "untraced" in runs_a and "untraced" in runs_b:
            ua, ub = runs_a["untraced"], runs_b["untraced"]
            for spec in bench["end_to_end"]:
                ma = ua["end_to_end"].get(spec["name"])
                mb = ub["end_to_end"].get(spec["name"])
                if ma is None or mb is None:
                    lines.append(f"  {spec['name']:<22} missing")
                    accept = False
                    continue
                word = verdict(ma, mb, better=spec["better"],
                               bound=spec["bound"])
                accept = accept and word in ("unchanged", "improved")
                lines.append(
                    f"  {spec['name']:<22} "
                    f"A {ma['value']:.5g} [{ma['q1']:.5g}, {ma['q3']:.5g}] n={ma['n']}   "
                    f"B {mb['value']:.5g} [{mb['q1']:.5g}, {mb['q3']:.5g}] n={mb['n']}   "
                    f"B/A {mb['value'] / ma['value']:.4f} (base A {ma['value']:.5g} "
                    f"{spec['unit']}, bound {spec['bound']})   {word}")
            for side, run in (("A", ua), ("B", ub)):
                lines.append(f"  failed_share {side}       "
                             f"{run['failed_share']:.6g} "
                             f"({run['failed']} of {run['attempted']})")
                accept = accept and run["failed"] == 0
        if "traced" in runs_a and "traced" in runs_b:
            for count in EXACT_COUNTS:
                va = runs_a["traced"]["per_layer"][count]["value"]
                vb = runs_b["traced"]["per_layer"][count]["value"]
                if va != vb:
                    lines.append(f"  {count:<22} A {va}  B {vb}   semantic change")
                    accept = False
            lines.append(f"  exact counts: {len(EXACT_COUNTS)} compared")
    return lines, accept


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    lines, accept = compare(*documents, load_benchmark())
    print("\n".join(lines))
    return 0 if accept else 1


if __name__ == "__main__":
    sys.exit(main())
