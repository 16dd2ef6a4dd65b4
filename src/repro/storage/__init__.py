"""Graph storage substrates: binary containers, PSW shards, checkpoints,
and shared-memory array pools for the multi-process backend."""

from .binfmt import load_graph, save_graph
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .shards import IOStats, ShardStore, StoreGraphView
from .shm import ArrayLayout, SharedArrayPool

__all__ = [
    "load_graph",
    "save_graph",
    "ArrayLayout",
    "SharedArrayPool",
    "Checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "IOStats",
    "ShardStore",
    "StoreGraphView",
]
