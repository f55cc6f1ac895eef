"""Intermediate representation: stateful dataflow graphs and events."""

from .dataflow import (
    EGRESS,
    INGRESS,
    DataflowEdge,
    Operator,
    StatefulDataflow,
    route_hash,
    stable_hash,
)
from .events import (
    Event,
    EventKind,
    ExecutionState,
    Frame,
    TxnContext,
    next_event_id,
)
from .serde import (
    dataflow_from_json,
    dataflow_to_json,
    load_dataflow,
    save_dataflow,
)

__all__ = [
    "DataflowEdge",
    "EGRESS",
    "Event",
    "EventKind",
    "ExecutionState",
    "Frame",
    "INGRESS",
    "Operator",
    "StatefulDataflow",
    "TxnContext",
    "dataflow_from_json",
    "dataflow_to_json",
    "load_dataflow",
    "next_event_id",
    "route_hash",
    "save_dataflow",
    "stable_hash",
]
