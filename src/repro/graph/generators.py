"""Seeded synthetic graph generators.

These are the substitutes for the paper's real-world datasets (Table I):
R-MAT/Kronecker sampling reproduces the heavy-tailed degree distributions
of the SNAP web/social graphs, and :func:`banded` reproduces the banded
sparsity structure of the UFL ``cage15`` matrix.  A few small structured
topologies (path, cycle, grid, star, ...) exist for tests and worked
examples such as the paper's Fig. 2.

Every generator takes an explicit ``seed`` (or is fully deterministic) so
that experiments are reproducible run to run — the nondeterminism studied
by the paper lives in the *engine*, never in the data.
"""

from __future__ import annotations

import numpy as np

from .builder import GraphBuilder
from .digraph import DiGraph

__all__ = [
    "erdos_renyi",
    "rmat",
    "preferential_attachment",
    "banded",
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "grid_graph",
    "random_tree",
    "two_vertex_conflict_graph",
]


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def erdos_renyi(
    n: int,
    num_edges: int,
    *,
    seed: int | np.random.Generator | None = 0,
    allow_self_loops: bool = False,
) -> DiGraph:
    """G(n, m): ``num_edges`` distinct directed edges sampled uniformly."""
    if n <= 0:
        raise ValueError("n must be positive")
    max_edges = n * n if allow_self_loops else n * (n - 1)
    if num_edges > max_edges:
        raise ValueError(f"num_edges={num_edges} exceeds maximum {max_edges}")
    rng = _rng(seed)
    chosen: set[tuple[int, int]] = set()
    # Rejection sampling; for the sparse regimes we use (m << n^2) the
    # expected number of redraws is negligible.
    while len(chosen) < num_edges:
        need = num_edges - len(chosen)
        src = rng.integers(0, n, size=need * 2 + 8)
        dst = rng.integers(0, n, size=need * 2 + 8)
        for u, v in zip(src.tolist(), dst.tolist()):
            if not allow_self_loops and u == v:
                continue
            chosen.add((u, v))
            if len(chosen) >= num_edges:
                break
    src, dst = zip(*sorted(chosen)) if chosen else ((), ())
    return DiGraph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


def rmat(
    scale: int,
    edge_factor: float,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int | np.random.Generator | None = 0,
    dedup: bool = True,
    drop_self_loops: bool = True,
) -> DiGraph:
    """Recursive-matrix (Kronecker) generator: ``2**scale`` vertices.

    The default ``(a, b, c)`` parameters are the Graph500 values, which
    produce the skewed in/out-degree distributions characteristic of web
    crawls like web-BerkStan and web-Google — the structural feature that
    drives conflict rates in the paper's experiments.

    ``edge_factor`` is the target ``|E| / |V|`` ratio before optional
    deduplication.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    d = 1.0 - a - b - c
    if d < -1e-12 or min(a, b, c) < 0:
        raise ValueError("require a, b, c >= 0 and a + b + c <= 1")
    rng = _rng(seed)
    n = 1 << scale
    m = int(round(edge_factor * n))
    src, dst = np.zeros((2, m), dtype=np.int64)
    # Vectorized recursive descent: one quadrant draw per bit level.
    p_right = b + d  # probability the column bit is 1
    # Row bit is correlated with the column bit through the quadrant
    # probabilities: P(row=1 | col) follows from (a, b, c, d).
    p_row1 = np.array([c / (a + c) if (a + c) > 0 else 0.0,
                       d / (b + d) if (b + d) > 0 else 0.0])
    for level in range(scale):
        col_bit = (rng.random(m) < p_right).astype(np.int64)
        row_bit = (rng.random(m) < p_row1[col_bit]).astype(np.int64)
        src = (src << 1) | row_bit
        dst = (dst << 1) | col_bit
    builder = GraphBuilder(num_vertices=n).add_edge_arrays(src, dst)
    return builder.build(dedup=dedup, drop_self_loops=drop_self_loops)


def preferential_attachment(
    n: int,
    out_degree: int,
    *,
    seed: int | np.random.Generator | None = 0,
) -> DiGraph:
    """Barabási–Albert-style digraph: each new vertex links to ``out_degree``
    earlier vertices chosen proportionally to current total degree.

    Produces the heavy-tailed in-degree profile of social graphs such as
    soc-LiveJournal1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if out_degree < 1:
        raise ValueError("out_degree must be >= 1")
    rng = _rng(seed)
    src: list[int] = []
    dst: list[int] = []
    # "Repeated nodes" trick: a target pool where each vertex appears once
    # per incident edge endpoint gives degree-proportional sampling in O(1).
    pool: list[int] = [0]
    for v in range(1, n):
        k = min(out_degree, v)
        targets: set[int] = set()
        while len(targets) < k:
            pick = pool[rng.integers(0, len(pool))] if rng.random() < 0.9 else int(
                rng.integers(0, v)
            )
            targets.add(pick)
        for t in targets:
            src.append(v)
            dst.append(t)
            pool.append(v)
            pool.append(t)
    return DiGraph(n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))


def banded(
    n: int,
    bandwidth: int,
    density: float,
    *,
    seed: int | np.random.Generator | None = 0,
    symmetric: bool = True,
) -> DiGraph:
    """Random banded digraph: edge ``u -> v`` only when ``0 < |u-v| <= bandwidth``.

    This reproduces the sparsity structure of the ``cage15`` DNA
    electrophoresis matrix (a banded, nearly symmetric operator), the one
    non-SNAP dataset in the paper's Table I.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be in [0, 1]")
    if bandwidth < 1:
        raise ValueError("bandwidth must be >= 1")
    rng = _rng(seed)
    src_list: list[np.ndarray] = []
    dst_list: list[np.ndarray] = []
    for off in range(1, bandwidth + 1):
        count = n - off
        if count <= 0:
            break
        rows = np.flatnonzero(rng.random(count) < density)
        src_list.append(rows)
        dst_list.append(rows + off)
        if symmetric:
            src_list.append(rows + off)
            dst_list.append(rows)
        else:
            rows2 = np.flatnonzero(rng.random(count) < density)
            src_list.append(rows2 + off)
            dst_list.append(rows2)
    none = [np.empty(0, dtype=np.int64)]
    return DiGraph(n, np.concatenate(src_list or none),
                   np.concatenate(dst_list or none))


def _from_pairs(n: int, pairs, undirected: bool) -> DiGraph:
    """``n`` vertices, edges ``pairs``; ``undirected``: both ways (§II)."""
    uv = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if undirected:
        uv = np.concatenate((uv, uv[uv[:, 0] != uv[:, 1], ::-1]))
    return DiGraph(n, uv[:, 0], uv[:, 1])


def path_graph(n: int, *, undirected: bool = True) -> DiGraph:
    """Path ``0 - 1 - ... - n-1``; the chain topology of Theorem 1's proof."""
    return _from_pairs(n, [(v, v + 1) for v in range(n - 1)], undirected)


def cycle_graph(n: int, *, undirected: bool = False) -> DiGraph:
    if n < 1:
        raise ValueError("n must be >= 1")
    return _from_pairs(n, [(v, (v + 1) % n) for v in range(n if n > 1 else 0)],
                       undirected)


def star_graph(n: int, *, undirected: bool = True) -> DiGraph:
    """Hub vertex 0 connected to ``1..n-1`` — maximal write contention."""
    return _from_pairs(n, [(0, v) for v in range(1, n)], undirected)


def complete_graph(n: int) -> DiGraph:
    return _from_pairs(n, [(u, v) for u in range(n) for v in range(n)
                           if u != v], False)


def grid_graph(rows: int, cols: int) -> DiGraph:
    """Undirected 2-D grid (each undirected edge as two directed ones)."""
    v = np.arange(rows * cols).reshape(rows, cols)
    return _from_pairs(rows * cols, np.r_[
        np.c_[v[:, :-1].ravel(), v[:, 1:].ravel()],
        np.c_[v[:-1].ravel(), v[1:].ravel()]], True)


def random_tree(n: int, *, seed: int | np.random.Generator | None = 0) -> DiGraph:
    """Uniform random recursive tree as an undirected graph (connected)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    return _from_pairs(n, [(int(rng.integers(0, v)), v) for v in range(1, n)],
                       True)


def two_vertex_conflict_graph() -> DiGraph:
    """The two-vertex graph of the paper's Fig. 2 (v=0 -> u=1).

    Both update functions touch the single edge, so concurrent execution
    produces exactly the write–write conflict scenario worked through in
    §IV's discussion of Theorem 2.
    """
    return DiGraph(2, np.array([0]), np.array([1]))
