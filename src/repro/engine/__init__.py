"""Vertex-centric execution engines (the paper's system model, §II–§III)."""

from .atomicity import AtomicityPolicy, guarantees_atomicity, tear
from .capabilities import Refused
from .config import EngineConfig
from .conflicts import ConflictEvent, ConflictLog, classify_access_counts
from .dispatch import DispatchPlan, DispatchPolicy, make_plan, plan_arrays
from .frontier import Frontier, initial_frontier
from .gauss_seidel import DeterministicEngine
from .delaymodel import DelayModel
from .nondet_engine import NondeterministicEngine
from .nondet_outofcore import OutOfCoreNondetRunner
from .nondet_parallel import ParallelEngine
from .nondet_core import (
    NondetKernel,
    NondetPassContext,
    PlanCache,
    fallback_reasons,
    register_nondet_kernel,
    resolve_nondet_kernel,
)
from .nondet_delta import CombineOp
from .nondet_vectorized import VectorizedNondetEngine
from .pure_async import PureAsyncEngine
from .ordering import Order, TaskSlot, classify
from .program import EdgeStore, UpdateContext, VertexProgram
from .result import IterationStats, RunResult
from .runner import ENGINES, run
from .state import INF, FieldSpec, State
from .sync_engine import SynchronousEngine
from .traits import AlgorithmTraits, ConflictProfile, ConvergenceKind, Monotonicity

__all__ = [
    "AtomicityPolicy",
    "guarantees_atomicity",
    "tear",
    "EngineConfig",
    "OutOfCoreNondetRunner",
    "ConflictEvent",
    "ConflictLog",
    "classify_access_counts",
    "DispatchPlan",
    "DispatchPolicy",
    "make_plan",
    "plan_arrays",
    "Frontier",
    "initial_frontier",
    "DeterministicEngine",
    "DelayModel",
    "NondeterministicEngine",
    "NondetKernel",
    "NondetPassContext",
    "ParallelEngine",
    "PlanCache",
    "VectorizedNondetEngine",
    "fallback_reasons",
    "register_nondet_kernel",
    "resolve_nondet_kernel",
    "PureAsyncEngine",
    "CombineOp",
    "SynchronousEngine",
    "Order",
    "TaskSlot",
    "classify",
    "EdgeStore",
    "UpdateContext",
    "VertexProgram",
    "IterationStats",
    "RunResult",
    "ENGINES",
    "Refused",
    "run",
    "INF",
    "FieldSpec",
    "State",
    "AlgorithmTraits",
    "ConflictProfile",
    "ConvergenceKind",
    "Monotonicity",
]
