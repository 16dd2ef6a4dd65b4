"""The paper's evaluated algorithms plus extensions and counterexamples."""

from .bfs import BFS
from .counterexamples import AntiParity, ConflictColoring, EdgeIncrementCounter
from .kcore import KCoreDecomposition, kcore_reference
from .label_propagation import MaxLabelPropagation
from .pagerank import PageRank
from .prioritized import PrioritizedPageRank, PrioritizedSSSP
from .spmv import SpMV
from .sssp import SSSP
from .wcc import WeaklyConnectedComponents
from . import reference

__all__ = [
    "PageRank",
    "WeaklyConnectedComponents",
    "SSSP",
    "BFS",
    "SpMV",
    "PrioritizedSSSP",
    "PrioritizedPageRank",
    "MaxLabelPropagation",
    "KCoreDecomposition",
    "kcore_reference",
    "EdgeIncrementCounter",
    "AntiParity",
    "ConflictColoring",
    "reference",
    "PAPER_ALGORITHMS",
]

#: Factories for the four algorithms of the paper's evaluation (§V-A),
#: keyed by the names used in Fig. 3.
PAPER_ALGORITHMS = {
    "PageRank": lambda: PageRank(epsilon=1e-3),
    "WCC": WeaklyConnectedComponents,
    "SSSP": lambda: SSSP(source=0),
    "BFS": lambda: BFS(source=0),
}
