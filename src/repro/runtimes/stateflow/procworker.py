"""Real-process StateFlow workers (the ``process`` spawner).

Each worker runs in its own forked OS process and talks to the
coordinator's process over a duplex ``multiprocessing`` pipe carrying
the batched binary frames of :mod:`repro.substrates.wire`.  On the
coordinator side, :class:`ProcessWorkerProxy` mirrors the full
:class:`~repro.runtimes.stateflow.worker.Worker` API, so the runtime's
dispatch/commit/migration hooks and the coordinator protocol are
identical across substrates — only what sits behind the method calls
changes.

State model
-----------

The parent's :class:`~repro.runtimes.state.PartitionedStore` is the
single authority — snapshots, recovery restores and slot captures all
happen against it in the parent, exactly as in the simulator — so a
child crash loses nothing but in-flight work.  A child holds **only the
slots it owns**, in a :class:`~repro.runtimes.state.PartitionedStore` of
its own that routes under the parent's table, and reads it through its
:class:`~repro.runtimes.state.WorkerSlice`, which answers ``None`` for
a key another worker owns:

* its :class:`~repro.substrates.wire.Seed` carries the entries of the
  slots it owns, and the table;
* a commit bucket goes to its owner alone, acked, and single-key
  write-backs happen in the owner's child;
* when a slot changes hands the destination proxy ships the slot's
  entries to its child (:class:`~repro.substrates.wire.InstallSlot`,
  un-acked, FIFO ahead of the new table), and a child drops the slots a
  new table no longer gives it.

No child reads a key it does not own, a constructor's duplicate-key
check included.  A client's ``__init__`` runs wherever the coordinator
routed it, and its key is known only once it has run, so the child
turns it into the CREATE it amounts to
(:meth:`~repro.runtimes.executor.OperatorExecutor.constructor_as_create`)
and the key's owner does the create and the check.

A child's reads are not version-pinned: it can see writes of an
in-flight older batch, which is exactly the hazard Aria's deterministic
conflict check already handles — any transaction whose read set overlaps
an in-flight older batch's writes is aborted as stale and re-run in the
fallback, so such reads never commit.

A call chain stays where its state is
-------------------------------------

While handling a frame the child keeps executing, in FIFO order, every
INVOKE/RESUME/CREATE it emits whose target it owns (:func:`run_chains`).
An event for another owner goes straight to that owner's child as a
:class:`~repro.substrates.wire.Hop` over a direct channel, as the
simulator's workers exchange events (§4's "internal function-to-function
communication").  The child's ``Out`` hands the parent only replies,
events for an owner it has no channel to, and the executor visits no
frame has reported yet.  A transfer between two owners is one
``Deliver``, two ``Hop`` frames and one ``Out``.

The parent sets the channels up over the control pipes
(:class:`~repro.substrates.wire.Connect`, then one passed descriptor)
whenever a child is spawned — at launch, on respawn after a recovery and
on revive in a rescale — and keeps ingress, commit, the failure detector
and every slot move.  Before the first event routed under a new table
reaches any child, every child is sent that table; a ``Hop`` stamped
with a table epoch its receiver has not been sent yet (or that arrives
before its ``Seed``) is held until the table arrives.  Channels are
non-blocking sockets with an outbox per peer, so two children sending to
each other never deadlock.  With ``channel_mode="kafka"`` every hop
loops through the broker by definition: the child continues nothing, no
channel is set up, and every emitted event goes back in the ``Out``.

Incarnation fencing carries over unchanged: every frame to a child is
stamped with the worker incarnation it was addressed to, a recovery
tears every child down and respawns it under a bumped incarnation
(re-seeded with the current store and table, re-connected to its
peers), and responses from an old incarnation are dropped by the proxy.
A channel lives exactly as long as the two processes at its ends, so a
``Hop`` never outlives a recovery.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import signal
import socket
from collections import deque
from multiprocessing import reduction
from typing import Any, Callable

from ...compiler.codegen import CompiledEntity
from ...ir.events import Event, EventKind, TxnContext
from ...substrates.wire import (
    Ack,
    ApplyWrites,
    Connect,
    Deliver,
    ExecuteSingleKey,
    FrameDecoder,
    Hop,
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
# ``fast_deepcopy`` is looked up here by perf/trace.py, which wraps each
# layer's entry points in the namespace that calls them.
from ..state import (  # noqa: F401
    PartitionedStore,
    SlotAssignment,
    StateBackend,
    fast_deepcopy,
)
from .aria_view import AriaStateView

#: Fork, not spawn: the child inherits the compiled program (closures
#: and generated classes are not picklable) and starts in milliseconds.
_MP_CONTEXT = multiprocessing.get_context("fork")

#: Largest read from a channel in one call.
_RECV_BYTES = 1 << 16


def run_chains(executor: OperatorExecutor, store: Any,
               routing: SlotAssignment, index: int, events: list[Event],
               *, direct: bool,
               ) -> tuple[list[Event], dict[int, list[Event]], int]:
    """Execute *events* and, in FIFO order, every INVOKE/RESUME/CREATE
    they emit whose target worker *index* owns under *routing*.  Returns
    the replies, the events for other owners by owner, and the number of
    executor visits made.  A client's constructor first becomes the
    CREATE it amounts to, which only its key's owner executes.  Unless
    *direct*, nothing is continued and nothing is sorted by owner: every
    event for anyone comes back with the replies."""
    queue = deque(events)
    out: list[Event] = []
    others: dict[int, list[Event]] = {}
    visits = 0
    while queue:
        event = executor.constructor_as_create(queue.popleft())
        if event.kind is EventKind.CREATE:
            owner = routing.worker_of(event.target.entity, event.target.key)
            if owner != index:
                if direct:
                    others.setdefault(owner, []).append(event)
                else:
                    out.append(event)
                continue
        visits += 1
        for emitted in executor.handle(
                event, AriaStateView(store, event.txn)):
            if not direct or emitted.kind is EventKind.REPLY:
                out.append(emitted)
                continue
            owner = routing.worker_of(emitted.target.entity,
                                      emitted.target.key)
            if owner == index:
                queue.append(emitted)
            else:
                others.setdefault(owner, []).append(emitted)
    return out, others, visits


class ChildWorker:
    """What a worker process does with each frame, without the I/O.

    :meth:`on_control` takes a frame from the parent and :meth:`on_hop`
    one from another worker; each returns what to send — a frame for the
    parent (or ``None``) and a :class:`~repro.substrates.wire.Hop` per
    other owner.  The process loop (:func:`_worker_main`) only moves
    bytes, and keeps :attr:`peers` current.
    """

    def __init__(self, index: int, executor: OperatorExecutor) -> None:
        self.index = index
        self._executor = executor
        #: The slots this worker owns; the rest are empty.
        self.store = PartitionedStore(1)
        self.slice = self.store.partition(index)
        self.routing: SlotAssignment | None = None
        self.direct = False
        self.incarnation = 0
        #: Owners this worker has a channel to.
        self.peers: set[int] = set()
        #: Executor visits no frame has reported yet.
        self._visits = 0
        #: Hops routed under a table this worker has not received yet.
        self._held: list[Hop] = []

    # -- frames ----------------------------------------------------------
    def on_control(self, message: Any) -> tuple[Any, dict[int, Hop]]:
        if isinstance(message, Seed):
            self.incarnation = message.incarnation
            self.direct = message.direct
            self.store = PartitionedStore(1, slots=message.routing.slots)
            self.slice = self.store.partition(self.index)
            for slot, entries in message.slots.items():
                self.store.install_slot(slot, entries)
            return self._install_table(message.routing)
        if isinstance(message, Routing):
            return self._install_table(message.routing)
        if isinstance(message, InstallSlot):
            self.store.install_slot(message.slot, message.payload)
        elif isinstance(message, ApplyWrites):
            self.store.apply_writes(message.writes)
            if message.ack:
                return Ack(message.seq, incarnation=message.incarnation), {}
        elif isinstance(message, Deliver):
            return self._run([message.events])
        elif isinstance(message, ExecuteSingleKey):
            return self._single_key(message), {}
        return None, {}

    def on_hop(self, hop: Hop) -> tuple[Any, dict[int, Hop]]:
        self._held.append(hop)
        return self._release()

    # -- state -----------------------------------------------------------
    def _install_table(self, routing: SlotAssignment,
                       ) -> tuple[Any, dict[int, Hop]]:
        """Route under *routing* (the parent's table, epoch and all),
        drop the slots it gives to others, and run the hops held for
        it."""
        self.routing = routing
        self.store.assignment = routing
        for slot, owner in enumerate(routing.owners):
            if owner != self.index and self.store.slot_size(slot):
                self.store.install_slot(slot, {})
        return self._release()

    def _release(self) -> tuple[Any, dict[int, Hop]]:
        """Run, in arrival order, the held hops routed under a table
        this worker has; the others wait for theirs."""
        if self.routing is None:
            return None, {}
        epoch = self.routing.epoch
        ready = [hop for hop in self._held if hop.epoch <= epoch]
        self._held = [hop for hop in self._held if hop.epoch > epoch]
        self._visits += sum(hop.visits for hop in ready)
        return self._run([hop.events for hop in ready])

    def _run(self, batches: list[list[Event]]) -> tuple[Any, dict[int, Hop]]:
        """Run each batch's chains; frame for the parent the replies and
        the events for owners this worker has no channel to, and a hop
        for each owner it has one to.  The unreported visits ride the
        ``Out`` if there is one, else the first hop."""
        assert self.routing is not None
        out: list[Event] = []
        others: dict[int, list[Event]] = {}
        for events in batches:
            more, elsewhere, visits = run_chains(
                self._executor, self.slice, self.routing, self.index,
                events, direct=self.direct)
            self._visits += visits
            out += more
            for owner, hopping in elsewhere.items():
                if owner in self.peers:
                    others.setdefault(owner, []).extend(hopping)
                else:
                    out += hopping
        hops = {owner: Hop(events, self.routing.epoch)
                for owner, events in others.items()}
        if out:
            reply = Out(out, self.incarnation, self._visits)
        elif hops:
            reply = None
            next(iter(hops.values())).visits = self._visits
        else:
            return None, {}
        self._visits = 0
        return reply, hops

    def _single_key(self, message: ExecuteSingleKey) -> SingleKeyDone:
        """Serially, each event against what the ones before it wrote;
        the write-backs go back so the parent installs them too."""
        replies: list[Event] = []
        writes: dict = {}
        for event in message.events:
            buffered = TxnContext(tid=0, batch_id=0)
            replies += self._executor.handle(
                event, AriaStateView(self.slice, buffered))
            self.slice.apply_writes(buffered.write_set)
            writes.update(buffered.write_set)
        return SingleKeyDone(message.seq, replies=replies, writes=writes,
                             incarnation=message.incarnation)


class _Channel:
    """This process's end of a channel to another worker: a
    non-blocking socket, the bytes the peer has not taken yet, and the
    frames that arrived torn across reads."""

    __slots__ = ("peer", "sock", "outbox", "decoder")

    def __init__(self, peer: int, fd: int) -> None:
        self.peer = peer
        self.sock = socket.socket(fileno=fd)
        self.sock.setblocking(False)
        self.outbox = bytearray()
        self.decoder = FrameDecoder()


def _worker_main(conn: Any, index: int,
                 entities: dict[str, CompiledEntity],
                 check_state_serializable: bool) -> None:  # pragma: no cover
    """Child-process main loop: wait on the control pipe and every
    channel, hand each frame to the :class:`ChildWorker`, send what it
    returns.

    Untraced by coverage (it runs in a forked process); its behaviour is
    exercised end-to-end by the process-spawner smoke and parity tests.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # parent owns shutdown
    worker = ChildWorker(index, OperatorExecutor(
        entities, check_state_serializable=check_state_serializable))
    selector = selectors.DefaultSelector()
    selector.register(conn, selectors.EVENT_READ)
    channels: dict[int, _Channel] = {}
    readable, writable = selectors.EVENT_READ, selectors.EVENT_WRITE

    def drop(channel: _Channel) -> None:
        """The peer died or was replaced: the parent's watchdog recovers
        whatever was in flight."""
        if channel.sock.fileno() < 0:
            return
        if channels.get(channel.peer) is channel:
            del channels[channel.peer]
            worker.peers.discard(channel.peer)
        selector.unregister(channel.sock)
        channel.sock.close()

    def write(channel: _Channel, data: Any) -> None:
        """Send what the socket takes now and keep the rest, waiting
        for writability only while something is kept."""
        try:
            sent = channel.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            drop(channel)
            return
        kept = bool(channel.outbox)
        if kept:
            del channel.outbox[:sent]
        elif sent < len(data):
            channel.outbox += data[sent:]
        if kept != bool(channel.outbox):
            selector.modify(channel.sock,
                            readable | (writable if channel.outbox else 0),
                            channel)

    def send(reply: Any, hops: dict[int, Hop]) -> bool:
        for peer, hop in hops.items():
            channel = channels.get(peer)
            if channel is None:
                continue
            if channel.outbox:
                channel.outbox += encode_frame(hop)
            else:
                write(channel, encode_frame(hop))
        if reply is None:
            return True
        try:
            conn.send_bytes(encode_frame(reply))
        except (BrokenPipeError, OSError):
            return False
        return True

    while True:
        for key, mask in selector.select():
            channel = key.data
            if channel is None:
                try:
                    message = decode_frame(conn.recv_bytes())
                except (EOFError, OSError):
                    return  # parent died or tore us down
                if isinstance(message, Shutdown):
                    return
                if isinstance(message, Connect):
                    if message.peer in channels:
                        drop(channels[message.peer])
                    channel = _Channel(message.peer,
                                       reduction.recv_handle(conn))
                    channels[message.peer] = channel
                    worker.peers.add(message.peer)
                    selector.register(channel.sock, readable, channel)
                elif not send(*worker.on_control(message)):
                    return
                continue
            if mask & writable and channel.sock.fileno() >= 0:
                write(channel, channel.outbox)
            if not mask & readable or channel.sock.fileno() < 0:
                continue  # or dropped earlier in this round
            try:
                chunk = channel.sock.recv(_RECV_BYTES)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            if not chunk:
                drop(channel)
                continue
            for hop in channel.decoder.feed(chunk):
                if not send(*worker.on_hop(hop)):
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

    *committed* is the authoritative store; its table says what the
    child owns.  *direct* children continue call chains and hop between
    each other; the others continue nothing.  *peers* lists every proxy
    of the runtime, this one included.
    """

    def __init__(self, index: int, kernel: Any,
                 committed: PartitionedStore,
                 entities: dict[str, CompiledEntity],
                 emit: Callable[[Event], None],
                 *, check_state_serializable: bool = False,
                 direct: bool = False,
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
        self._direct = direct
        self._peers = peers
        #: ``routing.epoch`` of the table last sent to the child; ``None``
        #: until its ``Seed`` is out (the seed carries the table).
        self._routing_epoch: int | None = None
        #: peer index -> that peer's incarnation the child has a channel
        #: to.
        self._links: dict[int, int] = {}
        self._seq = 0
        self._pending: dict[int, Callable[[Any], None]] = {}
        self._outbox: list[Event] = []
        self._flush_scheduled = False
        self._process: Any = None
        self._conn: Any = None
        self._spawn()

    @property
    def pid(self) -> int | None:
        return self._process.pid if self._process is not None else None

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
        self._routing_epoch = None
        self._links = {}
        self.sim.register_connection(parent_conn, self._on_raw)
        # Seed on the next kernel turn, not inline: at construction time
        # the committed store may still be empty (preload runs after the
        # runtime builds its workers), and during recovery the restore
        # that must precede the seed happens later in the same
        # synchronous recover() call — as does the respawn of every
        # other child, whose new process the channels must reach.
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
        routing = self._committed.assignment
        self._send(Seed(
            {slot: self._committed.snapshot_slot(slot)
             for slot in routing.slots_of(self.index)},
            routing, incarnation=self.incarnation, direct=self._direct))
        self._routing_epoch = routing.epoch
        if self._direct:
            for peer in self._peers():
                if peer is not self:
                    self._connect(peer)

    def _connect(self, peer: "ProcessWorkerProxy") -> None:
        """Give this child and *peer*'s a channel to each other, unless
        they hold one between these two incarnations already."""
        if (not peer.alive or peer._conn is None
                or self._links.get(peer.index) == peer.incarnation):
            return
        ours, theirs = socket.socketpair()
        try:
            for proxy, end, other in ((self, ours, peer),
                                      (peer, theirs, self)):
                proxy._links[other.index] = other.incarnation
                proxy._send(Connect(other.index,
                                    incarnation=proxy.incarnation))
                try:
                    reduction.send_handle(proxy._conn, end.fileno(),
                                          proxy.pid)
                except OSError:
                    pass  # that child died: the watchdog recovers
        finally:
            ours.close()
            theirs.close()

    def _send_routing_if_moved(self) -> None:
        """Ahead of anything the child executes: the table it routes
        under must be the one the event was routed under."""
        routing = self._committed.assignment
        if (self.alive and self._routing_epoch is not None
                and routing.epoch != self._routing_epoch):
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
        # A chain that starts here may hop to any other child: each must
        # hold the table the events were routed under before they land.
        self._send_routing_if_moved()
        if self._direct:
            for peer in self._peers():
                if peer is not self:
                    peer._send_routing_if_moved()
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
            # The child executed against its own slots; the write-backs
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
        seq = self._next_seq()
        self._pending[seq] = lambda message: on_done()
        self._send(ApplyWrites(writes, seq=seq,
                               incarnation=self.incarnation, ack=True))

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
            # The child becomes the slot's owner and holds nothing of it
            # yet.  Un-acked: the pipe is FIFO, so the entries are in
            # place before the new table and any event routed under it.
            self._send(InstallSlot(slot, fragment,
                                   incarnation=self.incarnation))
            on_done()

        self.sim.schedule(0, install)

    # -- failure model ---------------------------------------------------
    def kill(self) -> None:
        """Real crash: the OS process dies, and in-flight work and the
        slots it held die with it."""
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
