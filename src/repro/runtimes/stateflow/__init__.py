"""StateFlow: transactional dataflow runtime (coordinator + workers,
Aria-style deterministic transactions, consistent snapshots)."""

from ..state import (
    DictStateBackend,
    PartitionedSnapshot,
    PartitionedStore,
    SlotAssignment,
    StateBackend,
)
from .aria import AriaStats, BatchMember, ConflictReport, TxnOutcome, decide
from .aria_view import AriaStateView
from .coordinator import (
    Coordinator,
    CoordinatorConfig,
    RescaleRecord,
    TxnRecord,
)
from .dedup import IdSet
from .runtime import StateflowConfig, StateflowRuntime
from .snapshots import Snapshot, SnapshotStore
from .worker import Worker

__all__ = [
    "AriaStateView",
    "DictStateBackend",
    "IdSet",
    "PartitionedSnapshot",
    "PartitionedStore",
    "StateBackend",
    "AriaStats",
    "BatchMember",
    "ConflictReport",
    "Coordinator",
    "CoordinatorConfig",
    "RescaleRecord",
    "SlotAssignment",
    "Snapshot",
    "SnapshotStore",
    "StateflowConfig",
    "StateflowRuntime",
    "TxnOutcome",
    "TxnRecord",
    "Worker",
    "decide",
]
