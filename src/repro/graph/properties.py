"""Structural graph properties and reference computations.

These are engine-independent ground truths: degree statistics (Table I),
weakly connected components, reachability and shortest paths computed by
classic sequential algorithms.  The algorithm implementations executed by
the engines (:mod:`repro.algorithms`) are validated against these.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from .digraph import DiGraph, sorted_unique

__all__ = [
    "GraphStats",
    "graph_stats",
    "weakly_connected_components",
    "num_weakly_connected_components",
    "bfs_levels",
    "dijkstra_distances",
    "is_weakly_connected",
]


@dataclass(frozen=True)
class GraphStats:
    """The per-graph summary row of the paper's Table I plus degree stats."""

    num_vertices: int
    num_edges: int
    avg_degree: float  # |E| / |V|
    max_out_degree: int
    max_in_degree: int
    num_self_loops: int
    num_components: int

    def as_row(self) -> dict:
        """Dict form used by the experiment harness when printing tables."""
        return {
            "V": self.num_vertices,
            "E": self.num_edges,
            "E/V": round(self.avg_degree, 2),
            "max_out": self.max_out_degree,
            "max_in": self.max_in_degree,
            "self_loops": self.num_self_loops,
            "WCC": self.num_components,
        }


def graph_stats(graph: DiGraph) -> GraphStats:
    """Compute the summary statistics of ``graph``."""
    n, m = graph.num_vertices, graph.num_edges
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    loops = int(np.count_nonzero(graph.edge_src == graph.edge_dst))
    return GraphStats(
        num_vertices=n,
        num_edges=m,
        avg_degree=(m / n) if n else 0.0,
        max_out_degree=int(out_deg.max()) if n else 0,
        max_in_degree=int(in_deg.max()) if n else 0,
        num_self_loops=loops,
        num_components=num_weakly_connected_components(graph),
    )


def weakly_connected_components(graph: DiGraph) -> np.ndarray:
    """Label each vertex with the smallest vertex id in its weak component.

    This is the ground truth for the paper's WCC algorithm, whose
    converged state assigns every vertex (and edge) the minimum label of
    its component.  Implemented as a union–find over edge endpoints.
    """
    n = graph.num_vertices
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, int(parent[x])
        return root

    for u, v in zip(graph.edge_src.tolist(), graph.edge_dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            # Union by smaller id so roots are already component minima.
            if ru < rv:
                parent[rv] = ru
            else:
                parent[ru] = rv
    return np.array([find(v) for v in range(n)], dtype=np.int64)


def num_weakly_connected_components(graph: DiGraph) -> int:
    if graph.num_vertices == 0:
        return 0
    return int(sorted_unique(weakly_connected_components(graph)).size)


def is_weakly_connected(graph: DiGraph) -> bool:
    return num_weakly_connected_components(graph) <= 1


def bfs_levels(graph: DiGraph, source: int) -> np.ndarray:
    """Directed BFS hop counts from ``source``; unreachable = +inf.

    Ground truth for the paper's BFS (SSSP with unit weights).
    """
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    if n == 0:
        return dist
    dist[source] = 0.0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.out_neighbors(u).tolist():
            if dist[v] == np.inf:
                dist[v] = du + 1.0
                queue.append(v)
    return dist


def dijkstra_distances(graph: DiGraph, source: int, weights: np.ndarray) -> np.ndarray:
    """Single-source shortest paths with non-negative edge ``weights``.

    ``weights`` is indexed by edge id.  Ground truth for the paper's SSSP.
    """
    if weights.shape[0] != graph.num_edges:
        raise ValueError("weights must have one entry per edge")
    if graph.num_edges and float(weights.min()) < 0:
        raise ValueError("Dijkstra requires non-negative weights")
    n = graph.num_vertices
    dist = np.full(n, np.inf)
    if n == 0:
        return dist
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        nbrs, eids = graph.out_edges(u)
        for v, e in zip(nbrs.tolist(), eids.tolist()):
            nd = du + float(weights[e])
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist
