"""End-to-end benchmark of the reproduction: six workloads, a correctness
gate, per-layer spans.  See README.md in this directory; the entry point
is ``run.py``."""
