"""Engine-independent operator logic.

This is the behaviour of one dataflow operator from Figure 2: reconstruct
the entity from operator state, run the method's compiled function until
the invocation either returns (REPLY / RESUME to the caller) or performs a
remote call (INVOKE / CREATE to another operator), and flush the entity's
state back.  Every runtime (Local, StateFun-style, StateFlow) wraps this
executor with its own messaging, partitioning, and consistency machinery.

A RESUME whose continuation the compiler marked state-free (no block it
can run uses ``self``; see :mod:`~repro.compiler.state_machine`) skips
both ends: it runs on a blank instance, with no ``get``, no flush and no
serializability check.  The frame's INVOKE visit already read the entity
and wrote it back, so the read and write sets, and their order, are what
they would have been.  :meth:`OperatorExecutor.is_state_free` tells a
runtime which RESUMEs any worker may run.

A visit of a method the compiler marked read-only
(:attr:`~repro.compiler.codegen.CompiledMethod.read_only`: no block of
it may write the entity) reads the entity and skips the flush: no
``extract_state`` and no ``put``.  So a read adds nothing to a write
set or a pinned view's pre-images, and a commit has nothing of it to
install, log or fold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol

from ..compiler.blocks import ConstructTerminator, InvokeTerminator
from ..compiler.codegen import CompiledEntity, CompiledMethod
from ..core.errors import (
    EntityNotFoundError,
    InvocationError,
    RuntimeExecutionError,
)
from ..core.refs import EntityRef
from ..core.serialization import check_serializable, dumps
from ..ir.events import Event, EventKind, ExecutionState, Frame


class StateAccess(Protocol):
    """How the executor touches operator state.  Implementations range
    from a plain dict (Local) to Aria's snapshot-read/buffered-write view
    (StateFlow transactions)."""

    def get(self, entity: str, key: Any) -> dict[str, Any] | None: ...

    def put(self, entity: str, key: Any, state: dict[str, Any]) -> None: ...

    def create(self, entity: str, key: Any, state: dict[str, Any]) -> None: ...


@dataclass(slots=True)
class Instrumentation:
    """Duration accumulator for the overhead-breakdown experiment
    (paper Section 4, "System overhead").

    ``clock`` is the time source the executor reads around each measured
    region; it defaults to the wall clock but is injectable, so tests
    can drive the breakdown with a deterministic counter instead of
    asserting on load-sensitive ``perf_counter`` ratios.
    """

    components: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    clock: Callable[[], float] = time.perf_counter

    def add(self, component: str, seconds: float) -> None:
        self.components[component] = self.components.get(component, 0.0) + seconds
        self.counts[component] = self.counts.get(component, 0) + 1

    def total(self) -> float:
        return sum(self.components.values())

    def share(self, component: str) -> float | None:
        """Measured share of the total, or ``None`` when the component
        was never measured (or nothing was) — an absent measurement is
        unknown, not free, and conflating the two let a breakdown
        claim 0 % for work it simply never timed."""
        total = self.total()
        if component not in self.components or total == 0:
            return None
        return self.components[component] / total


class OperatorExecutor:
    """Executes events against compiled entities.

    ``handle`` is a pure step function: one inbound event in, a list of
    outbound events out.  It never blocks — a remote call suspends the
    frame and emits an INVOKE, exactly as Section 2.3 requires ("a
    streaming dataflow should never stop and wait").
    """

    def __init__(self, entities: dict[str, CompiledEntity],
                 *, check_state_serializable: bool = True,
                 instrumentation: Instrumentation | None = None):
        self._entities = entities
        self._check_serializable = check_state_serializable
        self._instr = instrumentation
        #: RESUMEs dropped because their call stack already unwound —
        #: expected under at-least-once redelivery (fault injection),
        #: a routing bug if it ever moves in a fault-free run.
        self.stale_resumes = 0

    # ------------------------------------------------------------------
    def entity(self, name: str) -> CompiledEntity:
        try:
            return self._entities[name]
        except KeyError:
            raise RuntimeExecutionError(
                f"no compiled entity {name!r}") from None

    def handle(self, event: Event, state: StateAccess) -> list[Event]:
        """Process one event, returning the outbound events it causes."""
        try:
            if event.kind is EventKind.INVOKE:
                return self._handle_invoke(event, state)
            if event.kind is EventKind.RESUME:
                return self._handle_resume(event, state)
            if event.kind is EventKind.CREATE:
                return self._handle_create(event, state)
        except RuntimeExecutionError as exc:
            return [self._error_reply(event, exc)]
        raise RuntimeExecutionError(
            f"operator cannot handle event kind {event.kind!r}")

    def constructor_as_create(self, event: Event) -> Event:
        """*event* itself, unless it is a client's ``__init__`` INVOKE:
        then the CREATE that invocation amounts to.  The constructor
        runs here only to learn the key; the create — and with it the
        duplicate-key check — is left to whoever holds that key's state.
        Handling the CREATE records the same read and create and answers
        with the same reply as handling the INVOKE would.  A constructor
        that fails comes back unchanged, so handling it fails as
        usual."""
        if event.kind is not EventKind.INVOKE or event.method != "__init__":
            return event
        entity = event.target.entity
        try:
            key, state = run_constructor(self.entity(entity), event.args)
            if self._check_serializable:
                check_serializable(state)
        except RuntimeExecutionError:
            return event
        return Event(kind=EventKind.CREATE, target=EntityRef(entity, key),
                     payload=state, request_id=event.request_id,
                     txn=event.txn, ingress_time=event.ingress_time)

    # ------------------------------------------------------------------
    def is_state_free(self, event: Event) -> bool:
        """Whether handling RESUME *event* reads and writes no entity
        state: its frame resumes at a continuation the compiler found
        state-free, so any worker can run it."""
        execution = event.execution
        if execution is None or execution.depth == 0:
            return False
        frame = execution.top
        return frame.node in self.entity(frame.entity).method(
            frame.method).state_free

    def _handle_invoke(self, event: Event, state: StateAccess) -> list[Event]:
        assert event.method is not None
        compiled = self.entity(event.target.entity)
        method = compiled.method(event.method)
        execution = event.execution or ExecutionState()
        frame = Frame(entity=event.target.entity, key=event.target.key,
                      method=event.method, node=method.entry,
                      store=method.initial_store(event.args))
        execution.push(frame)
        return self._run(event, execution, state, compiled, method)

    def _handle_resume(self, event: Event, state: StateAccess) -> list[Event]:
        execution = event.execution
        if execution is None or execution.depth == 0:
            # Stale duplicate of a continuation whose call stack already
            # unwound (an at-least-once channel redelivered it after the
            # original completed).  Dropping it is the dedup.
            self.stale_resumes += 1
            return []
        frame = execution.top
        if frame.result_var is not None:
            frame.store[frame.result_var] = event.payload
            frame.result_var = None
        compiled = self.entity(frame.entity)
        method = compiled.method(frame.method)
        return self._run(event, execution, state, compiled, method,
                         state_free=frame.node in method.state_free)

    def _handle_create(self, event: Event, state: StateAccess) -> list[Event]:
        """Materialise a constructed entity, then resume the creator."""
        entity_name = event.target.entity
        key = event.target.key
        state.create(entity_name, key, dict(event.payload))
        ref = EntityRef(entity=entity_name, key=key)
        execution = event.execution
        if execution is None or execution.depth == 0:
            # Client-initiated creation: reply with the new ref.
            return [Event(kind=EventKind.REPLY,
                          target=EntityRef("__client__", event.request_id),
                          payload=ref, request_id=event.request_id,
                          txn=event.txn, ingress_time=event.ingress_time)]
        caller = execution.top
        return [Event(kind=EventKind.RESUME,
                      target=EntityRef(caller.entity, caller.key),
                      payload=ref, execution=execution,
                      request_id=event.request_id, txn=event.txn,
                      ingress_time=event.ingress_time)]

    # ------------------------------------------------------------------
    def _run(self, event: Event, execution: ExecutionState,
             state: StateAccess, compiled: CompiledEntity,
             method: CompiledMethod, *, state_free: bool = False,
             ) -> list[Event]:
        """Run the top frame until it leaves this operator: one call
        into the method's compiled function.  A *state_free* visit runs
        on a blank instance and neither reads nor writes the entity: the
        frame's earlier visit already read and wrote it, and nothing this
        one runs can change it.  A visit of a read-only method reads the
        entity and never writes it back."""
        frame = execution.top
        is_constructor = frame.method == "__init__"
        writes = not (state_free or method.read_only)

        started = self._instr.clock() if self._instr else 0.0
        if is_constructor or state_free:
            instance = compiled.blank_instance()
        else:
            entity_state = state.get(frame.entity, frame.key)
            if entity_state is None:
                raise EntityNotFoundError(
                    f"no entity {frame.entity}/{frame.key!r}")
            instance = compiled.make_instance(entity_state)
        if self._instr:
            self._instr.add("object_construction",
                            self._instr.clock() - started)

        started = self._instr.clock() if self._instr else 0.0
        kind, node_id, value, target, store = method.run(
            instance, frame.node, frame.store)
        if self._instr:
            self._instr.add("function_execution",
                            self._instr.clock() - started)

        if kind == "return":
            return self._finish_return(event, execution, state, compiled,
                                       instance, frame, value,
                                       is_constructor, writes)
        terminator = method.machine.node(node_id).terminator
        if writes:
            self._flush_state(compiled, instance, frame, state)
        if kind == "invoke":
            return self._suspend_invoke(event, execution, frame, store,
                                        terminator, value, target)
        return self._suspend_construct(event, execution, frame, store,
                                       terminator, value)

    def _flush_state(self, compiled: CompiledEntity, instance: Any,
                     frame: Frame, state: StateAccess,
                     *, create: bool = False) -> None:
        started = self._instr.clock() if self._instr else 0.0
        new_state = compiled.extract_state(instance)
        if self._check_serializable:
            check_serializable(new_state)
        serde_duration = 0.0
        if self._instr:
            # The overhead experiment attributes the wire/storage codec
            # cost separately; it grows with the entity's state size.
            serde_started = self._instr.clock()
            dumps(new_state)
            serde_duration = self._instr.clock() - serde_started
            self._instr.add("state_serde", serde_duration)
        if create:
            state.create(frame.entity, compiled.key_of_state(new_state),
                         new_state)
        else:
            state.put(frame.entity, frame.key, new_state)
        if self._instr:
            self._instr.add("state_storage",
                            self._instr.clock() - started - serde_duration)

    # -- terminator handlers -------------------------------------------------
    def _finish_return(self, event: Event, execution: ExecutionState,
                       state: StateAccess, compiled: CompiledEntity,
                       instance: Any, frame: Frame, value: Any,
                       is_constructor: bool, writes: bool,
                       ) -> list[Event]:
        if is_constructor:
            new_state = compiled.extract_state(instance)
            if self._check_serializable:
                check_serializable(new_state)
            key = compiled.key_of_state(new_state)
            state.create(frame.entity, key, new_state)
            value = EntityRef(entity=frame.entity, key=key)
        elif writes:
            self._flush_state(compiled, instance, frame, state)

        # State-machine bookkeeping (the "split instrumentation" cost of
        # the overhead experiment) is just the frame pop; reply/resume
        # event assembly happens for unsplit functions too and counts as
        # runtime messaging.
        started = self._instr.clock() if self._instr else 0.0
        execution.pop()
        if self._instr:
            self._instr.add("split_instrumentation",
                            self._instr.clock() - started)
        if execution.depth == 0:
            return [Event(kind=EventKind.REPLY,
                          target=EntityRef("__client__", event.request_id),
                          payload=value, request_id=event.request_id,
                          txn=event.txn, ingress_time=event.ingress_time)]
        caller = execution.top
        return [Event(kind=EventKind.RESUME,
                      target=EntityRef(caller.entity, caller.key),
                      payload=value, execution=execution,
                      request_id=event.request_id, txn=event.txn,
                      ingress_time=event.ingress_time)]

    def _suspend_invoke(self, event: Event, execution: ExecutionState,
                        frame: Frame, store: dict[str, Any],
                        terminator: InvokeTerminator,
                        args: tuple, target: Any) -> list[Event]:
        started = self._instr.clock() if self._instr else 0.0
        frame.store = store
        frame.node = terminator.continuation
        frame.result_var = terminator.result_var
        if terminator.is_self_call:
            target = EntityRef(entity=frame.entity, key=frame.key)
        elif not isinstance(target, EntityRef):
            raise InvocationError(
                f"remote call receiver {terminator.receiver!r} did not "
                f"hold an EntityRef (got {type(target).__name__})")
        invoke = Event(kind=EventKind.INVOKE, target=target,
                       method=terminator.method, args=args,
                       execution=execution, request_id=event.request_id,
                       txn=event.txn, ingress_time=event.ingress_time)
        if self._instr:
            self._instr.add("split_instrumentation",
                            self._instr.clock() - started)
        return [invoke]

    def _suspend_construct(self, event: Event, execution: ExecutionState,
                           frame: Frame, store: dict[str, Any],
                           terminator: ConstructTerminator,
                           args: tuple) -> list[Event]:
        frame.store = store
        frame.node = terminator.continuation
        frame.result_var = terminator.result_var
        # Run the callee's __init__ locally (validated to be remote-free)
        # to derive the new entity's key, then ship its state to the
        # owning partition.
        key, new_state = run_constructor(
            self.entity(terminator.entity_type), args)
        if self._check_serializable:
            check_serializable(new_state)
        create = Event(kind=EventKind.CREATE,
                       target=EntityRef(terminator.entity_type, key),
                       payload=new_state, execution=execution,
                       request_id=event.request_id, txn=event.txn,
                       ingress_time=event.ingress_time)
        return [create]

    # ------------------------------------------------------------------
    def _error_reply(self, event: Event, exc: RuntimeExecutionError) -> Event:
        return Event(kind=EventKind.REPLY,
                     target=EntityRef("__client__", event.request_id),
                     payload=None, error=str(exc),
                     request_id=event.request_id, txn=event.txn,
                     ingress_time=event.ingress_time)


def run_constructor(compiled: CompiledEntity,
                    args: tuple) -> tuple[Any, dict[str, Any]]:
    """Execute an entity's ``__init__`` to completion locally and return
    ``(key, state)``.  Used for in-method construction and for bulk
    pre-loading benchmark datasets without driving the full protocol for
    every row (constructors are validated to be remote-free, so this is
    always safe)."""
    init = compiled.method("__init__")
    instance = compiled.blank_instance()
    kind, *_ = init.run(instance, init.entry, init.initial_store(args))
    if kind != "return":
        raise RuntimeExecutionError(
            "constructors must not perform remote calls")
    state = compiled.extract_state(instance)
    return compiled.key_of_state(state), state
