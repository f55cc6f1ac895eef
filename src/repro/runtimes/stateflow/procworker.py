"""Real-process StateFlow workers (the ``process`` spawner).

Each worker runs in its own forked OS process and talks to the
coordinator's process over a duplex ``multiprocessing`` pipe carrying
the batched binary frames of :mod:`repro.substrates.wire`.  On the
coordinator side, :class:`ProcessWorkerProxy` mirrors the full
:class:`~repro.runtimes.stateflow.worker.Worker` API, so the runtime's
dispatch/commit/migration hooks and the coordinator protocol are
identical across substrates — only what sits behind the method calls
changes.

A call chain stays where its state is
-------------------------------------

The child knows what it owns: its :class:`~repro.substrates.wire.Seed`
carries the routing table (a real
:class:`~repro.runtimes.state.SlotAssignment`, so ``worker_of`` is the
one routing function on both sides of the pipe), and the proxy sends the
table again (:class:`~repro.substrates.wire.Routing`) ahead of the next
event whenever its epoch has moved.  While handling a ``Deliver`` the
child keeps executing, in FIFO order, every INVOKE/RESUME/CREATE it
emits whose target it owns (:func:`run_chains`); its ``Out`` hands back
only replies and events for other owners, plus the number of executor
visits it made — exactly as two entities on one simulator ``Worker``
share one process.  A chain between two owners still relays through the
parent, hop by hop.  With ``channel_mode="kafka"`` every hop loops
through the broker by definition: the proxy is built without a table,
sends none, and the child continues nothing.

State model
-----------

The parent's :class:`~repro.runtimes.state.PartitionedStore` is the
single authority — snapshots, recovery restores and slot captures all
happen against it in the parent, exactly as in the simulator — so a
child crash loses nothing but in-flight work.  The child holds a flat
``(entity, key) -> state`` **replica**, seeded from a committed-store
snapshot, whose guarantee is:

* **current for the keys the child owns** — commit buckets reach the
  owner acked, single-key write-backs happen in the owner's child, and
  when a slot changes hands the destination proxy ships the slot's
  entries to its child (:class:`~repro.substrates.wire.InstallSlot`,
  un-acked, FIFO ahead of the new table and of any event routed under
  it);
* **existence-only elsewhere** — every commit bucket is also broadcast
  un-acked to the other children, so creates are visible everywhere (a
  constructor's duplicate-key check runs before its key has an owner),
  but single-key writes are *not* replicated: another owner's values
  may be stale, and a child never executes an event for a key it does
  not own.

Replica reads can be stale relative to an in-flight older batch (the
child has no version-pinned views), which is exactly the hazard Aria's
deterministic conflict check already handles: any transaction whose
read set overlaps an in-flight older batch's writes is aborted as stale
and re-run in the fallback, so stale replica reads never commit.

Incarnation fencing carries over unchanged: every frame is stamped with
the worker incarnation it was addressed to, a recovery tears the child
down and respawns it under a bumped incarnation (re-seeded with the
current store and table), and responses from the old incarnation are
dropped by the proxy.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from collections import deque
from typing import Any, Callable

from ...compiler.codegen import CompiledEntity
from ...ir.events import Event, EventKind
from ...substrates.wire import (
    Ack,
    ApplyWrites,
    Deliver,
    ExecuteSingleKey,
    InstallSlot,
    Out,
    Routing,
    Seed,
    Shutdown,
    SingleKeyDone,
    decode_frame,
    encode_frame,
)
from ..executor import OperatorExecutor
from ..state import (
    SlotAssignment,
    StateBackend,
    fast_deepcopy,
    materialize_snapshot,
)
from .aria_view import AriaStateView

#: Fork, not spawn: the child inherits the compiled program (closures
#: and generated classes are not picklable) and starts in milliseconds.
_MP_CONTEXT = multiprocessing.get_context("fork")


class ReplicaStore:
    """The child's flat committed-state replica.

    Same read/write isolation convention as the parent's backend: values
    are isolated with :func:`~repro.runtimes.state.fast_deepcopy` on the
    way in and out, so executor-side mutation of a returned dict can
    never corrupt the replica.
    """

    def __init__(self) -> None:
        self.store: dict[tuple[str, Any], dict] = {}

    def replace(self, payload: dict) -> None:
        self.store = {key: fast_deepcopy(state)
                      for key, state in payload.items()}

    def get(self, entity: str, key: Any) -> dict | None:
        state = self.store.get((entity, key))
        return fast_deepcopy(state) if state is not None else None

    def put(self, entity: str, key: Any, state: dict) -> None:
        self.store[(entity, key)] = fast_deepcopy(state)

    def create(self, entity: str, key: Any, state: dict) -> None:
        self.put(entity, key, state)

    def exists(self, entity: str, key: Any) -> bool:
        return (entity, key) in self.store

    def delete(self, entity: str, key: Any) -> None:
        self.store.pop((entity, key), None)

    def apply_writes(self, writes: dict) -> None:
        for (entity, key), state in writes.items():
            self.put(entity, key, state)

    def install_slot(self, slot: int, entries: dict,
                     routing: SlotAssignment | None) -> None:
        """Make the replica hold exactly *entries* for *slot*.  Telling
        which held keys hash to the slot takes the table's ``slot_of``;
        a child without one (it continues nothing) only overwrites."""
        if routing is not None:
            for composite in [
                    composite for composite in self.store
                    if composite not in entries
                    and routing.slot_of(*composite) == slot]:
                del self.store[composite]
        self.apply_writes(entries)


class RecordingStore:
    """Write-capture overlay for the single-key phase: reads hit the
    replica (through this store's own writes first), writes land in the
    replica *and* in :attr:`writes` so the parent can install them into
    the authoritative store."""

    def __init__(self, replica: ReplicaStore) -> None:
        self._replica = replica
        self.writes: dict[tuple[str, Any], dict] = {}

    def get(self, entity: str, key: Any) -> dict | None:
        return self._replica.get(entity, key)

    def put(self, entity: str, key: Any, state: dict) -> None:
        self._replica.put(entity, key, state)
        self.writes[(entity, key)] = fast_deepcopy(state)

    def create(self, entity: str, key: Any, state: dict) -> None:
        self.put(entity, key, state)

    def exists(self, entity: str, key: Any) -> bool:
        return self._replica.exists(entity, key)


def run_chains(executor: OperatorExecutor, replica: ReplicaStore,
               routing: SlotAssignment | None, index: int,
               events: list[Event]) -> tuple[list[Event], int]:
    """Execute *events* and, in FIFO order, every INVOKE/RESUME/CREATE
    they emit whose target worker *index* owns under *routing*.  Returns
    what is left for others — replies and events for other owners — and
    the number of executor visits made.  Without a table nothing is
    continued: every emitted event goes back."""
    queue = deque(events)
    out: list[Event] = []
    visits = 0
    while queue:
        event = queue.popleft()
        visits += 1
        for emitted in executor.handle(
                event, AriaStateView(replica, event.txn)):
            if (routing is not None
                    and emitted.kind is not EventKind.REPLY
                    and routing.worker_of(emitted.target.entity,
                                          emitted.target.key) == index):
                queue.append(emitted)
            else:
                out.append(emitted)
    return out, visits


def _worker_main(conn: Any, index: int,
                 entities: dict[str, CompiledEntity],
                 check_state_serializable: bool) -> None:  # pragma: no cover
    """Child-process main loop: decode one frame, act, reply.

    Untraced by coverage (it runs in a forked process); its behaviour is
    exercised end-to-end by the process-spawner smoke and parity tests.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    executor = OperatorExecutor(
        entities, check_state_serializable=check_state_serializable)
    replica = ReplicaStore()
    routing: SlotAssignment | None = None
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return  # parent died or tore us down
        message = decode_frame(frame)
        if isinstance(message, Shutdown):
            return
        reply: Any = None
        if isinstance(message, Seed):
            replica.replace(message.payload)
            routing = message.routing
        elif isinstance(message, Routing):
            routing = message.routing
        elif isinstance(message, InstallSlot):
            replica.install_slot(message.slot, message.payload, routing)
        elif isinstance(message, Deliver):
            out, visits = run_chains(executor, replica, routing, index,
                                     message.events)
            reply = Out(out, message.incarnation, visits)
        elif isinstance(message, ApplyWrites):
            replica.apply_writes(message.writes)
            if message.ack:
                reply = Ack(message.seq, incarnation=message.incarnation)
        elif isinstance(message, ExecuteSingleKey):
            recording = RecordingStore(replica)
            replies: list[Event] = []
            for event in message.events:
                replies.extend(executor.handle(event, recording))
            reply = SingleKeyDone(
                message.seq, replies=replies, writes=recording.writes,
                incarnation=message.incarnation)
        if reply is not None:
            try:
                conn.send_bytes(encode_frame(reply))
            except (BrokenPipeError, OSError):
                return


class ProcessWorkerProxy:
    """Parent-side stand-in for a worker process.

    Mirrors the :class:`~repro.runtimes.stateflow.worker.Worker` surface
    (``deliver``/``apply_writes``/``execute_single_key``/slot migration/
    failure model) so the StateFlow runtime's hooks work unchanged.

    Messaging is **coalesced**: ``deliver`` calls buffer into an outbox
    that a zero-delay flush turns into a single :class:`Deliver` frame —
    an epoch's worth of execution events crosses the pipe as one frame,
    one pickle, instead of one Python object copy per message.

    *routing* is the table the child continues call chains under (the
    committed store's own :class:`SlotAssignment`, read live); ``None``
    builds a child that continues nothing.
    """

    def __init__(self, index: int, kernel: Any,
                 committed: Any,
                 entities: dict[str, CompiledEntity],
                 emit: Callable[[Event], None],
                 *, check_state_serializable: bool = False,
                 routing: SlotAssignment | None = None,
                 peers: Callable[[], list["ProcessWorkerProxy"]]
                 = lambda: []):
        self.index = index
        self.sim = kernel
        self.alive = True
        self.retired = False
        self.incarnation = 0
        self.events_processed = 0
        self.writes_applied = 0
        self.slots_captured = 0
        self.slots_installed = 0
        self.stale_executions_dropped = 0
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self._committed = committed
        #: This worker's slice of the authoritative store — the object
        #: commit-phase writes and slot migration mutate, same as the
        #: simulator Worker's ``store``.
        self.store: StateBackend = committed.partition(index)
        self._entities = entities
        self._emit = emit
        self._check_serializable = check_state_serializable
        self._peers = peers
        self._routing = routing
        #: ``routing.epoch`` of the table last sent to a child.  A child
        #: yet to be seeded holds none, which is the safe side: it
        #: continues nothing.
        self._routing_epoch: int | None = None
        self._seq = 0
        self._pending: dict[int, Callable[[Any], None]] = {}
        self._outbox: list[Event] = []
        self._flush_scheduled = False
        self._process: Any = None
        self._conn: Any = None
        self._spawn()

    # -- child lifecycle -------------------------------------------------
    def _spawn(self) -> None:
        parent_conn, child_conn = _MP_CONTEXT.Pipe(duplex=True)
        process = _MP_CONTEXT.Process(
            target=_worker_main,
            args=(child_conn, self.index, self._entities,
                  self._check_serializable),
            name=f"stateflow-worker-{self.index}", daemon=True)
        process.start()
        child_conn.close()
        self._process = process
        self._conn = parent_conn
        self.sim.register_connection(parent_conn, self._on_raw)
        # Seed on the next kernel turn, not inline: at construction time
        # the committed store may still be empty (preload runs after the
        # runtime builds its workers), and during recovery the restore
        # that must precede the seed happens later in the same
        # synchronous recover() call.
        self.sim.schedule(0, self._reseed)

    def _teardown(self) -> None:
        if self._conn is not None:
            self.sim.unregister_connection(self._conn)
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None
        if self._process is not None:
            process = self._process
            self._process = None
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - last resort
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=5.0)
        self._pending.clear()
        self._outbox.clear()
        self._flush_scheduled = False

    def _reseed(self) -> None:
        if not self.alive or self._conn is None:
            return
        payload = materialize_snapshot(self._committed.snapshot())
        if self._routing is not None:
            self._routing_epoch = self._routing.epoch
        self._send(Seed(payload, incarnation=self.incarnation,
                        routing=self._routing))

    def _send_routing_if_moved(self) -> None:
        """Ahead of anything the child executes: the table it routes
        under must be the one the event was routed under."""
        routing = self._routing
        if routing is not None and routing.epoch != self._routing_epoch:
            self._routing_epoch = routing.epoch
            self._send(Routing(routing, incarnation=self.incarnation))

    # -- wire plumbing ---------------------------------------------------
    def _send(self, message: Any) -> None:
        if self._conn is None:
            return
        frame = encode_frame(message)
        try:
            self._conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            # Child died: the coordinator's failure detector will notice
            # the missing acks and drive recovery; nothing to do here.
            return
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def _on_raw(self, payload: bytes) -> None:
        message = decode_frame(payload)
        self.frames_received += 1
        if getattr(message, "incarnation", self.incarnation) \
                != self.incarnation:
            return  # response from a pre-recovery incarnation
        if not self.alive:
            return
        if isinstance(message, Out):
            self.events_processed += message.visits
            for event in message.events:
                self._emit(event)
        elif isinstance(message, (Ack, SingleKeyDone)):
            handler = self._pending.pop(message.seq, None)
            if handler is not None:
                handler(message)

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- Worker API: execution phase ------------------------------------
    def deliver(self, event: Event) -> None:
        if not self.alive or self._conn is None:
            return
        self._outbox.append(event)
        if not self._flush_scheduled:
            self._flush_scheduled = True
            self.sim.schedule(0, self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if not self.alive or not self._outbox:
            self._outbox.clear()
            return
        events, self._outbox = self._outbox, []
        self._send_routing_if_moved()
        self._send(Deliver(events, incarnation=self.incarnation))

    # -- Worker API: single-key phase -----------------------------------
    def execute_single_key(self, events: list[Event],
                           on_done: Callable[[list[Event]], None],
                           *, incarnation: int | None = None) -> None:
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return
        seq = self._next_seq()

        def finish(message: SingleKeyDone) -> None:
            self.events_processed += len(events)
            # The child executed against its replica; the write-backs
            # must land in the parent's authoritative store too.
            if message.writes:
                self.store.apply_writes(message.writes)
            on_done(message.replies)

        self._pending[seq] = finish
        self._send_routing_if_moved()
        self._send(ExecuteSingleKey(events, seq=seq,
                                    incarnation=self.incarnation))

    # -- Worker API: commit phase ---------------------------------------
    def apply_writes(self, writes: dict, on_done: Callable[[], None],
                     *, incarnation: int | None = None) -> None:
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return
        # Authoritative store first (parent-side, synchronous): snapshot
        # cuts and recovery read this store, exactly as in the simulator.
        self.store.apply_writes(writes)
        self.writes_applied += len(writes)
        # Replicate the bucket to every live child so every replica
        # knows which keys exist; only the owner's copy carries an ack.
        for peer in self._peers():
            if peer is not self and peer.alive:
                peer.replicate_writes(writes)
        seq = self._next_seq()
        self._pending[seq] = lambda message: on_done()
        self._send(ApplyWrites(writes, seq=seq,
                               incarnation=self.incarnation, ack=True))

    def replicate_writes(self, writes: dict) -> None:
        """Install another owner's committed bucket into this worker's
        child replica (no ack, no authoritative-store touch)."""
        if not self.alive:
            return
        self._send(ApplyWrites(writes, seq=0,
                               incarnation=self.incarnation, ack=False))

    # -- Worker API: slot migration (parent-side) -----------------------
    def capture_slot(self, slot: int, on_done: Callable[[Any], None],
                     *, incarnation: int | None = None,
                     mode: str = "full") -> None:
        """The parent's store is the authority, so nothing has to come
        out of the source's child: capture reads the authoritative slice
        in the parent and acks on the next kernel turn (preserving the
        hooks' asynchronous shape)."""
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return
        token = self.incarnation

        def capture() -> None:
            if not self.alive or token != self.incarnation:
                return
            self.slots_captured += 1
            on_done(self.store.capture_slot(slot, mode))

        self.sim.schedule(0, capture)

    def install_slot(self, slot: int, fragment: Any,
                     on_done: Callable[[], None],
                     *, incarnation: int | None = None) -> None:
        if not self.alive:
            return
        if incarnation is not None and incarnation != self.incarnation:
            return
        token = self.incarnation

        def install() -> None:
            if not self.alive or token != self.incarnation:
                return
            self.store.install_slot(slot, fragment)
            self.slots_installed += 1
            # The child becomes the slot's owner: what it holds for it
            # may lack single-key writes made at the previous owner.
            # Un-acked: the pipe is FIFO, so the entries are in place
            # before the new table and any event routed under it.
            self._send(InstallSlot(slot, materialize_snapshot(fragment),
                                   incarnation=self.incarnation))
            on_done()

        self.sim.schedule(0, install)

    # -- failure model ---------------------------------------------------
    def kill(self) -> None:
        """Real crash: the OS process dies, in-flight work and the
        replica die with it."""
        self.alive = False
        self._teardown()

    def restart(self) -> None:
        self._teardown()
        self.alive = not self.retired
        self.incarnation += 1
        if self.alive:
            self._spawn()

    # -- elasticity ------------------------------------------------------
    def retire(self) -> None:
        self.retired = True
        self.alive = False
        self._teardown()

    def revive(self) -> None:
        if not self.retired:
            return
        self.retired = False
        self.alive = True
        self.incarnation += 1
        self._spawn()

    # -- shutdown --------------------------------------------------------
    def shutdown(self) -> None:
        """Orderly close (runtime.close()): ask the child to exit, then
        reap it."""
        if self._conn is not None:
            self._send(Shutdown())
        self.alive = False
        self._teardown()
