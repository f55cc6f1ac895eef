"""Execution backends for the stateful dataflow IR."""

from .base import InvocationResult, Runtime
from .executor import Instrumentation, OperatorExecutor
from .local import LocalRuntime
from .state import (
    DictStateBackend,
    PartitionedSnapshot,
    PartitionedStore,
    SlotAssignment,
    StateBackend,
    WorkerSlice,
    materialize_snapshot,
)

__all__ = [
    "DictStateBackend",
    "Instrumentation",
    "InvocationResult",
    "LocalRuntime",
    "OperatorExecutor",
    "PartitionedSnapshot",
    "PartitionedStore",
    "Runtime",
    "SlotAssignment",
    "StateBackend",
    "WorkerSlice",
    "materialize_snapshot",
]
