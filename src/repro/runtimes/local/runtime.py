"""The Local runtime (paper Section 3, "Local").

"A StateFlow dataflow graph can execute all its components in a local
environment.  The only difference is that the state is kept in a local
HashMap data structure instead of a state management backend.  Local
execution allows developers to debug, unit test, and validate a StateFlow
program as they would do for an arbitrary application."

Events are processed synchronously from a FIFO queue in one process;
state lives in a :class:`~repro.runtimes.state.DictStateBackend`, the
same map and contract the distributed runtimes use.  Latencies reported
are wall-clock.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Any

from ...compiler.pipeline import CompiledProgram
from ...core.errors import RuntimeExecutionError
from ...core.refs import EntityRef
from ...faults import FaultPlan
from ...ir.events import Event, EventKind
from ..base import InvocationResult, Runtime
from ..executor import Instrumentation, OperatorExecutor
from ..state import DictStateBackend


class LocalRuntime(Runtime):
    """Single-process, synchronous execution with HashMap state.

    ``fault_plan`` applies the message-level subset a clockless, queue-in
    -process runtime can host: delivery *reordering* — queued events are
    popped from a seeded-random position instead of FIFO, with the
    plan's first message profile's ``delay_p`` as the per-pop
    probability.  Drops, duplicates and delay spikes need a network or a
    durable log and are meaningless here; process faults are skipped.
    A correct program's results must be invariant under this reordering
    (every queued event carries its own continuation state) — that is
    exactly what the cross-runtime conformance matrix checks.
    """

    name = "local"

    def __init__(self, program: CompiledProgram,
                 *, check_state_serializable: bool = True,
                 instrumentation: Instrumentation | None = None,
                 fault_plan: FaultPlan | None = None):
        super().__init__(program)
        self.state = DictStateBackend()
        self.instrumentation = instrumentation
        self._executor = OperatorExecutor(
            program.entities,
            check_state_serializable=check_state_serializable,
            instrumentation=instrumentation)
        self._queue: deque[Event] = deque()
        self._replies: dict[int, Event] = {}
        self._request_ids = iter(range(1, 1 << 62))
        self._fault_rng: random.Random | None = None
        self._reorder_p = 0.0
        self.reordered_deliveries = 0
        #: Uniform runtime surface: Local hosts no injector (no clock,
        #: no substrates) — its fault support is the reorder shim above.
        self.faults = None
        if fault_plan is not None:
            fault_plan.validate()
            self._fault_rng = random.Random(fault_plan.seed)
            profiles = [event.profile for event in fault_plan.events
                        if event.kind == "messages"]
            if profiles:
                self._reorder_p = profiles[0].delay_p

    # ------------------------------------------------------------------
    def _pop_next(self) -> Event:
        if (self._fault_rng is not None and len(self._queue) > 1
                and self._fault_rng.random() < self._reorder_p):
            self.reordered_deliveries += 1
            index = self._fault_rng.randrange(len(self._queue))
            self._queue.rotate(-index)
            event = self._queue.popleft()
            self._queue.rotate(index)
            return event
        return self._queue.popleft()

    def _drive(self, request_id: int) -> Event:
        """Process events until *request_id*'s reply appears."""
        while request_id not in self._replies:
            if not self._queue:
                raise RuntimeExecutionError(
                    f"dataflow drained without a reply for request "
                    f"{request_id}")
            event = self._pop_next()
            if event.kind is EventKind.REPLY:
                if event.request_id is not None:
                    self._replies[event.request_id] = event
                continue
            if event.target.entity not in self.program.entities:
                raise RuntimeExecutionError(
                    f"event targets unknown operator {event.target.entity!r}")
            for outbound in self._executor.handle(event, self.state):
                self._queue.append(outbound)
        return self._replies.pop(request_id)

    def _submit(self, event: Event) -> InvocationResult:
        started = time.perf_counter()
        self._queue.append(event)
        reply = self._drive(event.request_id)
        latency_ms = (time.perf_counter() - started) * 1000.0
        return InvocationResult(value=reply.payload, error=reply.error,
                                latency_ms=latency_ms)

    # ------------------------------------------------------------------
    def create(self, entity: str | type, *args: Any) -> EntityRef:
        name = entity if isinstance(entity, str) else entity.__name__
        request_id = next(self._request_ids)
        event = Event(kind=EventKind.INVOKE,
                      target=EntityRef(name, None),
                      method="__init__", args=args,
                      request_id=request_id,
                      ingress_time=time.perf_counter())
        result = self._submit(event)
        ref = result.unwrap()
        if not isinstance(ref, EntityRef):  # pragma: no cover - defensive
            raise RuntimeExecutionError("constructor did not return a ref")
        return ref

    def invoke(self, ref: EntityRef, method: str, *args: Any,
               ) -> InvocationResult:
        request_id = next(self._request_ids)
        event = Event(kind=EventKind.INVOKE, target=ref, method=method,
                      args=args, request_id=request_id,
                      ingress_time=time.perf_counter())
        return self._submit(event)

    def entity_state(self, ref: EntityRef) -> dict[str, Any] | None:
        return self.state.get(ref.entity, ref.key)
