"""Binary wire format of the process execution substrate.

The simulator substrate moves messages between the coordinator and its
workers as Python objects (isolated by ``copy.deepcopy``).  The process
substrate (:mod:`repro.substrates.spawner`) crosses real OS-process
boundaries, so it needs a real wire format: **length-prefixed binary
frames** carrying pickle-protocol-5 bodies with out-of-band buffer
support.  One frame carries one typed message; a message may batch many
logical deliveries (an epoch's worth of execution events or a whole
commit bucket), so the per-message overhead is paid per *frame*, not per
Python object.

**Events travel flat.**  The five messages that carry events
(:class:`Deliver`, :class:`Out`, :class:`ExecuteSingleKey`,
:class:`SingleKeyDone`, and :class:`Hop` between two workers) put each
:class:`~repro.ir.events.Event` on the wire as one tuple of primitives
(:func:`_flatten`) and rebuild the dataclasses positionally on the other
side (:func:`_event`) — the pickler walks tuples, strings and numbers in
C instead of reducing six slotted dataclasses and an ``Enum`` per event
through Python.  The layout is decided here alone (``__reduce__`` on
those five types); every other message, and every frame
:mod:`repro.storage` writes, is pickled as before, byte for byte.

Frame layout (all integers big-endian)::

    magic(2) | length(4) | nbuffers(2) | [buf_len(4) buf_bytes]* | body

``length`` counts everything after itself.  ``nbuffers`` out-of-band
pickle-5 buffers precede the body; the decoder rehydrates them in order.
Truncated or corrupt input raises :class:`FrameError` — never a partial
message.

This is trusted intra-host IPC between a parent and the worker processes
it forked, and between those workers; frames are not authenticated.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass, field
from typing import Any

from ..core.refs import EntityRef
from ..ir.events import Event, EventKind, ExecutionState, Frame, TxnContext

#: Frame preamble: catches stream desync and non-frame garbage early.
MAGIC = b"SF"
_LEN = struct.Struct(">I")
_NBUF = struct.Struct(">H")
#: Upper bound on a single frame (1 GiB): a corrupt length prefix must
#: not make the decoder try to buffer gigabytes.
MAX_FRAME_BYTES = 1 << 30


class FrameError(Exception):
    """Raised on truncated, oversized, or corrupt frames."""


# ---------------------------------------------------------------------------
# Events on the wire
# ---------------------------------------------------------------------------

_KINDS = tuple(EventKind)


def _flatten(event: Event) -> tuple:
    """One event as one tuple of primitives: kind as an index into
    ``tuple(EventKind)``, the target's entity and key, the call stack
    as ``(entity, key, method, node, store, result_var)`` tuples, the
    transaction context as a tuple of its fields.  Payload, args and
    frame stores hold user values and travel as they are."""
    target, execution, txn = event.target, event.execution, event.txn
    return (
        _KINDS.index(event.kind), target.entity, target.key, event.event_id,
        event.payload, event.method, event.args,
        None if execution is None else [
            (frame.entity, frame.key, frame.method, frame.node, frame.store,
             frame.result_var) for frame in execution.frames],
        event.request_id,
        None if txn is None else (
            txn.tid, txn.batch_id, txn.read_set, txn.write_set,
            txn.create_set, txn.attempt, txn.base),
        event.ingress_time, event.error)


def _event(flat: tuple) -> Event:
    """Inverse of :func:`_flatten`; every dataclass is built
    positionally, ``event_id`` included (an event keeps its identity
    across the pipe)."""
    (kind, entity, key, event_id, payload, method, args, frames,
     request_id, txn, ingress_time, error) = flat
    return Event(
        _KINDS[kind], EntityRef(entity, key), event_id, payload, method, args,
        None if frames is None else ExecutionState(
            [Frame(*frame) for frame in frames]),
        request_id, None if txn is None else TxnContext(*txn),
        ingress_time, error)


def _events(flats: list) -> list:
    return [_event(flat) for flat in flats]


def _flats(events: list) -> list:
    return [_flatten(event) for event in events]


# ---------------------------------------------------------------------------
# Message types: coordinator/runtime -> worker process
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Seed:
    """Replace what the worker holds with the slots it owns (initial
    launch, respawn after a recovery, revive on a rescale): ``slots``
    maps each owned slot to its entries.  ``routing`` is the table that
    says what the worker owns (a
    :class:`~repro.runtimes.state.SlotAssignment`); ``direct`` is
    whether the worker continues call chains and hands events for
    other owners to their workers itself, or returns every emitted
    event to the parent."""

    slots: dict
    routing: Any
    incarnation: int = 0
    direct: bool = False


@dataclass(slots=True)
class Routing:
    """The routing table moved (a rescale or a recovery): replaces the
    one the :class:`Seed` carried.  Every worker is sent it ahead of the
    first event routed under it."""

    routing: Any
    incarnation: int = 0


@dataclass(slots=True)
class Connect:
    """A channel to worker *peer*'s process follows this frame on the
    same pipe, as one passed file descriptor; it replaces any channel
    to that worker held before."""

    peer: int
    incarnation: int = 0


@dataclass(slots=True)
class Deliver:
    """A batched frame of execution-phase events: everything the proxy
    coalesced since its last flush travels as one frame."""

    events: list
    incarnation: int = 0

    def __reduce__(self):
        return _deliver, (_flats(self.events), self.incarnation)


@dataclass(slots=True)
class ApplyWrites:
    """Install a committed write set into the owner's store.  ``ack``
    asks for an :class:`Ack` once it is installed."""

    writes: dict
    seq: int = 0
    incarnation: int = 0
    ack: bool = True


@dataclass(slots=True)
class ExecuteSingleKey:
    """Run a batch's single-key events serially against the worker's
    store and report replies plus the resulting write-backs."""

    events: list
    seq: int = 0
    incarnation: int = 0

    def __reduce__(self):
        return _execute_single_key, (
            _flats(self.events), self.seq, self.incarnation)


@dataclass(slots=True)
class InstallSlot:
    """A slot changed hands: the entries of *slot* as the authoritative
    store holds them, shipped to the new owner's worker.  The worker
    replaces what it held for the slot; no ack."""

    slot: int
    payload: dict
    incarnation: int = 0


@dataclass(slots=True)
class Shutdown:
    """Orderly worker-process exit."""


# ---------------------------------------------------------------------------
# Message types: worker process -> coordinator/runtime
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Out:
    """What a worker hands back to the parent: replies, and events for
    an owner it has no channel to (every event it emits, when it
    continues nothing).  ``visits`` counts the executor visits no frame
    has reported yet — the worker's own, events it emitted to itself
    and kept executing included, and those a :class:`Hop` brought in."""

    events: list
    incarnation: int = 0
    visits: int = 0

    def __reduce__(self):
        return _out, (_flats(self.events), self.incarnation, self.visits)


# ---------------------------------------------------------------------------
# Message types: worker process -> worker process
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Hop:
    """A call chain's next steps for another owner, sent worker to
    worker: events routed under routing-table ``epoch``, and the
    executor visits the sender made that no frame has reported yet."""

    events: list
    epoch: int = 0
    visits: int = 0

    def __reduce__(self):
        return _hop, (_flats(self.events), self.epoch, self.visits)


@dataclass(slots=True)
class Ack:
    """Completion of a sequenced request (ApplyWrites)."""

    seq: int
    incarnation: int = 0


@dataclass(slots=True)
class SingleKeyDone:
    """Replies and write-backs of an ExecuteSingleKey request."""

    seq: int
    replies: list = field(default_factory=list)
    writes: dict = field(default_factory=dict)
    incarnation: int = 0

    def __reduce__(self):
        return _single_key_done, (
            self.seq, _flats(self.replies), self.writes, self.incarnation)


# Unpickle hooks of the five event-carrying messages, one per type so a
# frame names one global, not a hook and a class.


def _deliver(flats: list, incarnation: int) -> Deliver:
    return Deliver(_events(flats), incarnation)


def _execute_single_key(flats: list, seq: int,
                        incarnation: int) -> ExecuteSingleKey:
    return ExecuteSingleKey(_events(flats), seq, incarnation)


def _out(flats: list, incarnation: int, visits: int) -> Out:
    return Out(_events(flats), incarnation, visits)


def _single_key_done(seq: int, flats: list, writes: dict,
                     incarnation: int) -> SingleKeyDone:
    return SingleKeyDone(seq, _events(flats), writes, incarnation)


def _hop(flats: list, epoch: int, visits: int) -> Hop:
    return Hop(_events(flats), epoch, visits)


#: Every frameable message type (the property tests sweep this).
MESSAGE_TYPES: tuple[type, ...] = (
    Seed, Routing, Connect, Deliver, ApplyWrites, ExecuteSingleKey,
    InstallSlot, Shutdown, Out, Ack, SingleKeyDone, Hop)


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------


def encode_frame(message: Any) -> bytes:
    """One message -> one self-contained frame."""
    buffers: list[pickle.PickleBuffer] = []
    body = pickle.dumps(message, protocol=5, buffer_callback=buffers.append)
    chunks = [_NBUF.pack(len(buffers))]
    for buffer in buffers:
        raw = buffer.raw().tobytes()
        chunks.append(_LEN.pack(len(raw)))
        chunks.append(raw)
    chunks.append(body)
    payload = b"".join(chunks)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large ({len(payload)} bytes)")
    return MAGIC + _LEN.pack(len(payload)) + payload


def _decode_payload(payload: bytes) -> Any:
    offset = 0
    if len(payload) < _NBUF.size:
        raise FrameError("frame payload truncated (no buffer count)")
    (nbuffers,) = _NBUF.unpack_from(payload, offset)
    offset += _NBUF.size
    buffers: list[bytes] = []
    for _ in range(nbuffers):
        if len(payload) - offset < _LEN.size:
            raise FrameError("frame payload truncated (buffer length)")
        (buf_len,) = _LEN.unpack_from(payload, offset)
        offset += _LEN.size
        if len(payload) - offset < buf_len:
            raise FrameError("frame payload truncated (buffer body)")
        buffers.append(payload[offset:offset + buf_len])
        offset += buf_len
    try:
        return pickle.loads(payload[offset:], buffers=buffers)
    except Exception as exc:
        raise FrameError(f"corrupt frame body: {exc}") from exc


def decode_frame(frame: bytes) -> Any:
    """Decode exactly one complete frame; anything less (or more) is an
    error — transports with message boundaries use this directly."""
    header = len(MAGIC) + _LEN.size
    if len(frame) < header:
        raise FrameError(f"truncated frame header ({len(frame)} bytes)")
    if frame[:len(MAGIC)] != MAGIC:
        raise FrameError("bad frame magic")
    (length,) = _LEN.unpack_from(frame, len(MAGIC))
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds cap")
    if len(frame) != header + length:
        raise FrameError(
            f"frame length mismatch: header says {length}, "
            f"got {len(frame) - header} payload bytes")
    return _decode_payload(frame[header:])


class FrameDecoder:
    """Incremental decoder for byte-stream transports (sockets): feed
    arbitrary chunks, collect complete messages.  A frame torn across
    chunks is buffered until its remainder arrives; garbage raises
    :class:`FrameError` immediately."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> list[Any]:
        self._buffer.extend(chunk)
        messages: list[Any] = []
        header = len(MAGIC) + _LEN.size
        while True:
            if len(self._buffer) < header:
                break
            if bytes(self._buffer[:len(MAGIC)]) != MAGIC:
                raise FrameError("bad frame magic in stream")
            (length,) = _LEN.unpack_from(self._buffer, len(MAGIC))
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"frame length {length} exceeds cap")
            if len(self._buffer) < header + length:
                break  # torn frame: wait for the rest
            payload = bytes(self._buffer[header:header + length])
            del self._buffer[:header + length]
            messages.append(_decode_payload(payload))
        return messages

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)
