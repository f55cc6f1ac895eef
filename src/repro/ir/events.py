"""Events and the travelling execution state (paper Sections 2.3/2.5).

"When invoking a function that was split, the state machine is inserted
into the function-calling event.  As the event flows through the system,
the execution graph is traversed and the proper functions are called.  The
execution graph stores intermediate results."

An :class:`Event` is the only thing operators exchange.  Its
:class:`ExecutionState` is a stack of :class:`Frame` objects — one per
in-flight method invocation (the call chain) — each recording *where* the
invocation is in its state machine (``node``) and its live variables
(``store``, which also carries loop counters as ``_iter_N``/``_idx_N``
compiler temporaries).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from ..core.refs import EntityRef


class EventKind(Enum):
    """What an event asks its target operator to do."""

    #: Start executing a method on an entity (from client or remote call).
    INVOKE = "invoke"
    #: Resume a suspended frame with a remote call's return value.
    RESUME = "resume"
    #: Materialise a freshly constructed entity's state on its partition.
    CREATE = "create"
    #: A method finished; deliver the return value to the caller/client.
    REPLY = "reply"
    #: Control events: snapshot markers, transaction protocol messages.
    CONTROL = "control"


_event_ids = itertools.count()


def next_event_id() -> int:
    return next(_event_ids)


@dataclass(slots=True)
class Frame:
    """One in-flight method invocation."""

    entity: str
    key: Any
    method: str
    node: str
    store: dict[str, Any] = field(default_factory=dict)
    #: Variable in *this* frame's store that receives the callee's return
    #: value when the frame below it on the stack returns.
    result_var: str | None = None

    def to_dict(self) -> dict[str, Any]:
        return {"entity": self.entity, "key": self.key,
                "method": self.method, "node": self.node,
                "store": dict(self.store), "result_var": self.result_var}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Frame":
        return cls(entity=data["entity"], key=data["key"],
                   method=data["method"], node=data["node"],
                   store=dict(data["store"]),
                   result_var=data.get("result_var"))


@dataclass(slots=True)
class ExecutionState:
    """The call stack travelling inside an event."""

    frames: list[Frame] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def push(self, frame: Frame) -> None:
        self.frames.append(frame)

    def pop(self) -> Frame:
        return self.frames.pop()

    def to_dict(self) -> dict[str, Any]:
        return {"frames": [frame.to_dict() for frame in self.frames]}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExecutionState":
        return cls(frames=[Frame.from_dict(f) for f in data["frames"]])


@dataclass(slots=True)
class TxnContext:
    """Transactional metadata attached to events of an ACID invocation
    (StateFlow's Aria-style protocol, paper Section 3)."""

    tid: int
    batch_id: int
    #: Keys read during the execution phase: {(entity, key), ...}
    read_set: set = field(default_factory=set)
    #: Buffered writes: {(entity, key): state_dict}
    write_set: dict = field(default_factory=dict)
    #: Entities created by this transaction: {(entity, key): state_dict}
    create_set: dict = field(default_factory=dict)
    attempt: int = 0
    #: Pipelined epochs: the committed-store version (last closed batch
    #: id) this batch's execution phase reads through.  ``None`` = read
    #: live committed state (no older batch was in flight at seal time —
    #: always the case at pipeline depth 1, and for fallback re-runs).
    base: int | None = None

    def record_read(self, entity: str, key: Any) -> None:
        self.read_set.add((entity, key))

    def record_write(self, entity: str, key: Any, state: dict) -> None:
        self.write_set[(entity, key)] = state

    def record_create(self, entity: str, key: Any, state: dict) -> None:
        self.create_set[(entity, key)] = state
        self.write_set[(entity, key)] = state


@dataclass(slots=True, eq=False)
class Event:
    """One message in the dataflow."""

    kind: EventKind
    target: EntityRef
    event_id: int = field(default_factory=_event_ids.__next__)
    #: INVOKE: (method, args); RESUME: return value; CREATE: state dict;
    #: REPLY: return value or error; CONTROL: protocol-specific.
    payload: Any = None
    method: str | None = None
    args: tuple = ()
    #: Call-chain state for split methods.
    execution: ExecutionState | None = None
    #: Identifier of the external client request this event belongs to
    #: (used by the egress router to reply and for latency accounting).
    request_id: int | None = None
    #: Transaction context (None for non-transactional invocations on
    #: runtimes without universal transactions).
    txn: TxnContext | None = None
    #: Simulated time the *root request* entered the system.
    ingress_time: float | None = None
    #: Error string when a REPLY carries a failure.
    error: str | None = None

    def is_reply(self) -> bool:
        return self.kind is EventKind.REPLY

    def describe(self) -> str:  # pragma: no cover - debugging aid
        return (f"Event#{self.event_id}({self.kind.value} -> {self.target}"
                + (f".{self.method}" if self.method else "") + ")")
