"""Delta-accumulative kernels — the Maiter ``(⊕, identity, g_edge)``
triples for the programs that have one.

Importing this module registers the kernels (mirroring
:mod:`repro.algorithms.vectorized`); the delta engine's registry loads it
lazily.  Which programs may *not* appear here is as informative as which
may: SpMV multiplies by signed coefficients (no monotone ⊕), the
counterexample programs fail the algebra outright — see
:func:`repro.theory.eligibility.check_delta_program` for the refusals.

The formulations:

* **PageRank** (⊕ = ADD): the fixpoint ``x = (1−d)·1 + d·M·x`` unrolls
  into a Neumann series; starting from ``x0 = 0`` with seed delta
  ``Δ0 = 1−d`` per vertex, each commit forwards ``d·Δ/outdeg`` along
  out-edges.  ADD has an inverse, so mutation repair is a pure reseed.
  Contraction certificate: each hop multiplies total mass by ``d < 1``.
* **SSSP / BFS** (⊕ = MIN): ``Δ0 = 0`` at the source, ``g = Δ + w``
  (BFS: ``w ≡ 1``).  Strictly positive weights make the gain strict, so
  the value itself is the delete repair's support level.
* **WCC-as-min** (⊕ = MIN, undirected): ``Δ0[v] = v``, ``g = Δ``.  The
  identity gain admits mutual-support cycles, so the kernel declares
  ``strict_gain = False``: its delta cut keeps a support level per vertex,
  a BFS over same-label edges at the first batch, then re-levelled only
  where labels change (:func:`repro.engine.nondet_delta._levels`).
"""

from __future__ import annotations

import numpy as np

from ..engine.nondet_delta import CombineOp, DeltaKernel, register_delta_kernel
from ..graph import DiGraph
from .pagerank import PageRank
from .sssp import SSSP
from .wcc import WeaklyConnectedComponents

__all__ = [
    "PageRankDeltaKernel",
    "SSSPDeltaKernel",
    "WCCDeltaKernel",
]


class PageRankDeltaKernel(DeltaKernel):
    op = CombineOp.ADD
    field = "rank"
    strict_gain = False  # unused for ADD (repair is invertible)
    contraction = 0.85   # default damping; instances refine from program

    def __init__(self, program: PageRank):
        super().__init__(program)
        self.damping = float(program.damping)
        self.base = float(program.base)
        self.contraction = self.damping

    def initial(self, graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        return (np.zeros(n, dtype=np.float64),
                np.full(n, self.base, dtype=np.float64))

    def gains(self, graph: DiGraph, eids: np.ndarray,
              values: np.ndarray) -> np.ndarray:
        outdeg = graph.out_degrees()[graph.edge_src[eids]]
        return self.damping * values / outdeg

    def default_threshold(self) -> float:
        # Stricter than the recompute engines' local ε test: residual
        # mass below τ per vertex bounds the state error by the usual
        # geometric amplification (hub in-degree × d / (1−d)).
        return float(self.program.epsilon) * (1.0 - self.damping)


class SSSPDeltaKernel(DeltaKernel):
    op = CombineOp.MIN
    field = "dist"
    strict_gain = True

    def __init__(self, program: SSSP):
        super().__init__(program)
        self._graph: DiGraph | None = None
        self._weights: np.ndarray | None = None

    def _weights_for(self, graph: DiGraph) -> np.ndarray:
        if self._graph is not graph:
            self._graph = graph
            self._weights = np.asarray(
                self.program.make_weights(graph), dtype=np.float64)
        return self._weights

    def initial(self, graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        x0 = np.full(n, np.inf, dtype=np.float64)
        delta0 = np.full(n, np.inf, dtype=np.float64)
        if 0 <= self.program.source < n:
            delta0[self.program.source] = 0.0
        return x0, delta0

    def gains(self, graph: DiGraph, eids: np.ndarray,
              values: np.ndarray) -> np.ndarray:
        return values + self._weights_for(graph)[eids]


class WCCDeltaKernel(DeltaKernel):
    op = CombineOp.MIN
    field = "label"
    undirected = True
    strict_gain = False

    def initial(self, graph: DiGraph) -> tuple[np.ndarray, np.ndarray]:
        n = graph.num_vertices
        return (np.full(n, np.inf, dtype=np.float64),
                np.arange(n, dtype=np.float64))

    def gains(self, graph: DiGraph, eids: np.ndarray,
              values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)


register_delta_kernel(PageRank, PageRankDeltaKernel)
register_delta_kernel(SSSP, SSSPDeltaKernel)  # BFS resolves via MRO
register_delta_kernel(WeaklyConnectedComponents, WCCDeltaKernel)
