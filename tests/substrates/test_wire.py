"""Property tests for the process substrate's binary wire format.

Every message type must survive an encode/decode round trip unchanged —
including identity-sensitive payloads (``TOMBSTONE``), whole-slot
migration fragments, real travelling events (``Event``
is ``eq=False``, so they are compared field by field, ``event_id``
included) and frames torn at arbitrary byte boundaries across
``FrameDecoder.feed`` calls.  Truncated or corrupt input must raise
:class:`FrameError`, never yield a partial message.  What must *not*
change — the frames of messages that carry no event, and everything
``repro.storage`` writes — is pinned with golden bytes.
"""

from __future__ import annotations

import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.refs import EntityRef
from repro.ir.events import (
    Event,
    EventKind,
    ExecutionState,
    Frame,
    TxnContext,
)
from repro.runtimes.state import TOMBSTONE, PartitionedStore, SlotAssignment
from repro.runtimes.stateflow.snapshots import ChangelogRecord
from repro.substrates.wire import (
    MAGIC,
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    Ack,
    ApplyWrites,
    Connect,
    Deliver,
    ExecuteSingleKey,
    FrameDecoder,
    FrameError,
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

# ---------------------------------------------------------------------------
# Strategies: state values and events as they actually appear on the wire
# ---------------------------------------------------------------------------

_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=20),
    st.binary(max_size=20),
    st.floats(allow_nan=False, allow_infinity=False))

_states = st.one_of(
    _scalars,
    st.just(TOMBSTONE),
    st.dictionaries(st.text(max_size=8), _scalars, max_size=4),
    st.lists(_scalars, max_size=4),
    st.tuples(_scalars, _scalars))

_entity_keys = st.one_of(st.integers(), st.text(max_size=8))
_keys = st.tuples(st.sampled_from(["Account", "Cart"]), _entity_keys)

_write_sets = st.dictionaries(_keys, _states, max_size=5)

_refs = st.builds(EntityRef, st.sampled_from(["Account", "Cart"]),
                  _entity_keys)
#: What user code puts in arguments, frame stores and entity state.
_values = st.one_of(_scalars, _refs,
                    st.lists(st.one_of(_scalars, _refs), max_size=3))
_entity_states = st.dictionaries(st.text(max_size=8), _values, max_size=4)
_names = st.text(min_size=1, max_size=10)

_frames = st.builds(
    Frame, entity=st.sampled_from(["Account", "Cart"]), key=_entity_keys,
    method=_names, node=_names,
    store=st.dictionaries(_names, _values, max_size=4),
    result_var=st.one_of(st.none(), _names))

_txns = st.builds(
    TxnContext, tid=st.integers(0, 2_000_000), batch_id=st.integers(0, 10_000),
    read_set=st.sets(_keys, max_size=3),
    write_set=st.dictionaries(_keys, _entity_states, max_size=3),
    create_set=st.dictionaries(_keys, _entity_states, max_size=2),
    attempt=st.integers(0, 4),
    base=st.one_of(st.none(), st.integers(0, 10_000)))

_events = st.builds(
    Event, kind=st.sampled_from(EventKind), target=_refs,
    payload=st.one_of(_values, _entity_states),
    method=st.one_of(st.none(), _names),
    args=st.lists(_values, max_size=3).map(tuple),
    execution=st.one_of(
        st.none(), st.builds(ExecutionState, st.lists(_frames, max_size=3))),
    request_id=st.one_of(st.none(), st.integers(0, 1 << 40)),
    txn=st.one_of(st.none(), _txns),
    ingress_time=st.one_of(
        st.none(), st.floats(min_value=0, max_value=1e9, allow_nan=False)),
    error=st.one_of(st.none(), st.text(max_size=30)))

_event_lists = st.lists(_events, max_size=4)


@st.composite
def _routings(draw) -> SlotAssignment:
    workers = draw(st.integers(1, 4))
    routing = SlotAssignment(workers, slots=draw(st.integers(workers, 16)))
    target = draw(st.integers(1, min(4, routing.slots)))
    if target != workers:
        routing.apply(target, routing.plan(target))
    return routing


def _messages() -> st.SearchStrategy:
    return st.one_of(
        st.builds(Seed,
                  slots=st.dictionaries(st.integers(0, 127), _write_sets,
                                        max_size=3),
                  routing=_routings(), incarnation=st.integers(0, 5),
                  direct=st.booleans()),
        st.builds(Routing, routing=_routings(),
                  incarnation=st.integers(0, 5)),
        st.builds(Connect, peer=st.integers(0, 8),
                  incarnation=st.integers(0, 5)),
        st.builds(Deliver, events=_event_lists,
                  incarnation=st.integers(0, 5)),
        st.builds(ApplyWrites, writes=_write_sets,
                  seq=st.integers(0, 1000), incarnation=st.integers(0, 5),
                  ack=st.booleans()),
        st.builds(ExecuteSingleKey, events=_event_lists,
                  seq=st.integers(0, 1000), incarnation=st.integers(0, 5)),
        st.builds(InstallSlot, slot=st.integers(0, 127),
                  payload=_write_sets, incarnation=st.integers(0, 5)),
        st.builds(Shutdown),
        st.builds(Out, events=_event_lists, incarnation=st.integers(0, 5),
                  visits=st.integers(0, 50)),
        st.builds(Ack, seq=st.integers(0, 1000),
                  incarnation=st.integers(0, 5)),
        st.builds(SingleKeyDone, seq=st.integers(0, 1000),
                  replies=_event_lists, writes=_write_sets,
                  incarnation=st.integers(0, 5)),
        st.builds(Hop, events=_event_lists, epoch=st.integers(0, 5),
                  visits=st.integers(0, 50)))


def assert_same(decoded, original) -> None:
    """Equality that looks inside what defines none: an ``Event`` and a
    ``SlotAssignment`` compare by identity, so walk their fields."""
    assert type(decoded) is type(original)
    if isinstance(original, Event):
        for name in Event.__slots__:
            assert_same(getattr(decoded, name), getattr(original, name))
    elif isinstance(original, SlotAssignment):
        assert (decoded.slots, decoded.epoch, decoded.freeze()) == (
            original.slots, original.epoch, original.freeze())
    elif type(original) in MESSAGE_TYPES:
        for spec in fields(original):
            assert_same(getattr(decoded, spec.name),
                        getattr(original, spec.name))
    elif isinstance(original, list):
        assert len(decoded) == len(original)
        for ours, theirs in zip(decoded, original):
            assert_same(ours, theirs)
    else:
        assert decoded == original


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_messages())
def test_round_trip_every_message_type(message) -> None:
    assert_same(decode_frame(encode_frame(message)), message)


@settings(max_examples=150, deadline=None)
@given(_events)
def test_event_round_trip_keeps_every_field(event) -> None:
    """Through each of the five messages that carry events."""
    for message, carried in (
            (Deliver([event], 1), "events"),
            (Out([event], 1, visits=3), "events"),
            (ExecuteSingleKey([event], seq=2, incarnation=1), "events"),
            (SingleKeyDone(2, replies=[event], incarnation=1), "replies"),
            (Hop([event], epoch=2, visits=1), "events")):
        (decoded,) = getattr(decode_frame(encode_frame(message)), carried)
        assert decoded is not event
        assert_same(decoded, event)


def test_transaction_footprint_sharing_survives() -> None:
    """``record_create`` puts one state object in both sets; a frame
    must not turn it into two."""
    txn = TxnContext(tid=3, batch_id=9, attempt=2, base=8)
    txn.record_read("Account", "a")
    txn.record_create("Account", "a", {"balance": 1})
    event = Event(kind=EventKind.REPLY, target=EntityRef("__client__", 4),
                  request_id=4, txn=txn, error="boom")
    (decoded,) = decode_frame(encode_frame(Out([event], visits=1))).events
    assert decoded.txn == txn
    assert decoded.txn.create_set[("Account", "a")] \
        is decoded.txn.write_set[("Account", "a")]
    assert decoded.error == "boom" and decoded.execution is None


def test_message_types_registry_is_exhaustive() -> None:
    swept = {Seed, Routing, Connect, Deliver, ApplyWrites, ExecuteSingleKey,
             InstallSlot, Shutdown, Out, Ack, SingleKeyDone, Hop}
    assert set(MESSAGE_TYPES) == swept


def test_tombstone_survives_by_identity() -> None:
    message = ApplyWrites(writes={("Account", 1): TOMBSTONE,
                                  ("Account", 2): {"balance": 7}})
    decoded = decode_frame(encode_frame(message))
    assert decoded.writes[("Account", 1)] is TOMBSTONE
    assert decoded.writes[("Account", 2)] == {"balance": 7}


def test_slot_fragment_round_trip() -> None:
    store = PartitionedStore(2, slots=4)
    for key in range(8):
        store.put("Account", key, {"balance": key})
    slot = store.slot_of("Account", 1)
    fragment = store.snapshot_slot(slot)
    decoded = decode_frame(encode_frame(InstallSlot(slot, payload=fragment)))
    assert decoded.payload == fragment
    assert decoded.payload[("Account", 1)] == {"balance": 1}


def test_out_of_band_buffers_round_trip() -> None:
    blob = b"x" * 4096
    message = Deliver(events=[Event(
        kind=EventKind.RESUME, target=EntityRef("Account", 1),
        payload=pickle.PickleBuffer(blob))])
    frame = encode_frame(message)
    decoded = decode_frame(frame)
    assert bytes(decoded.events[0].payload) == blob


# ---------------------------------------------------------------------------
# Streaming: torn frames, batched chunks
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(_messages(), min_size=1, max_size=5),
       st.integers(min_value=1, max_value=13))
def test_decoder_reassembles_torn_frames(messages, chunk_size) -> None:
    stream = b"".join(encode_frame(m) for m in messages)
    decoder = FrameDecoder()
    collected = []
    for start in range(0, len(stream), chunk_size):
        collected.extend(decoder.feed(stream[start:start + chunk_size]))
    assert_same(collected, messages)
    assert decoder.buffered_bytes == 0


def test_decoder_holds_partial_frame() -> None:
    frame = encode_frame(Ack(seq=7))
    decoder = FrameDecoder()
    assert decoder.feed(frame[:-1]) == []
    assert decoder.buffered_bytes == len(frame) - 1
    assert decoder.feed(frame[-1:]) == [Ack(seq=7)]


# ---------------------------------------------------------------------------
# Rejection: garbage must never decode
# ---------------------------------------------------------------------------


def test_truncated_frame_raises() -> None:
    frame = encode_frame(InstallSlot(1, payload={("Account", 1): {"v": 1}}))
    for cut in (1, len(MAGIC), len(MAGIC) + 2, len(frame) - 1):
        with pytest.raises(FrameError):
            decode_frame(frame[:cut])


def test_trailing_garbage_raises() -> None:
    with pytest.raises(FrameError):
        decode_frame(encode_frame(Ack(seq=1)) + b"junk")


def test_bad_magic_raises() -> None:
    frame = bytearray(encode_frame(Ack(seq=1)))
    frame[0] ^= 0xFF
    with pytest.raises(FrameError):
        decode_frame(bytes(frame))
    with pytest.raises(FrameError):
        FrameDecoder().feed(bytes(frame))


def test_corrupt_body_raises() -> None:
    frame = bytearray(encode_frame(Ack(seq=1)))
    frame[-1] ^= 0xFF  # smash the pickle body, keep the length honest
    with pytest.raises(FrameError):
        decode_frame(bytes(frame))


def test_oversize_length_prefix_raises() -> None:
    bogus = MAGIC + (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"\0" * 8
    with pytest.raises(FrameError):
        decode_frame(bogus)
    with pytest.raises(FrameError):
        FrameDecoder().feed(bogus)


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=64))
def test_random_garbage_never_decodes_silently(garbage) -> None:
    try:
        decoded = decode_frame(garbage)
    except FrameError:
        return
    # The only way random bytes decode is by being a genuine frame.
    assert_same(decode_frame(encode_frame(decoded)), decoded)


# ---------------------------------------------------------------------------
# Golden bytes: what the flat event layout must not touch
# ---------------------------------------------------------------------------

def _row(i: int) -> dict:
    return {"account_id": f"acct-{i:06d}", "balance": 1_000_000,
            "payload": ""}


#: Recorded at the commit before events went flat (PR 16).
GOLDEN = {
    "apply": (
        ApplyWrites({("Account", "acct-000000"): _row(0),
                     ("Cart", 7): {"skus": [EntityRef("Product", "sku-1")],
                                   "n": 2}},
                    seq=3, incarnation=1, ack=False),
        "53460000011b00008005950e010000000000008c15726570726f2e73756273747261"
        "7465732e77697265948c0b4170706c795772697465739493942981944e7d94288c06"
        "777269746573947d94288c074163636f756e74948c0b616363742d30303030303094"
        "86947d94288c0a6163636f756e745f6964948c0b616363742d303030303030948c07"
        "62616c616e6365944a40420f008c077061796c6f6164948c0094758c044361727494"
        "4b0786947d94288c04736b7573945d948c0f726570726f2e636f72652e7265667394"
        "8c09456e746974795265669493942981945d94288c0750726f64756374948c05736b"
        "752d31946562618c016e944b0275758c03736571944b038c0b696e6361726e617469"
        "6f6e944b018c0361636b9489758694622e"),
    "ack": (
        Ack(seq=3, incarnation=1),
        "534600000051000080059544000000000000008c15726570726f2e73756273747261"
        "7465732e77697265948c0341636b9493942981944e7d94288c03736571944b038c0b"
        "696e6361726e6174696f6e944b01758694622e"),
    # One changelog record as ``FileChangelogStore.append`` frames it:
    # the 273 bytes the ledger reports as ``storage.bytes_per_record``.
    "record": (
        ChangelogRecord(seq=1, batch_id=1, at_ms=12.5, writes={
            ("Account", f"acct-{i:06d}"): _row(i) for i in range(2)}),
        "53460000010b0000800595fe000000000000008c22726570726f2e72756e74696d65"
        "732e7374617465666c6f772e736e617073686f7473948c0f4368616e67656c6f6752"
        "65636f72649493942981944e7d94288c03736571944b018c0862617463685f696494"
        "4b018c06777269746573947d94288c074163636f756e74948c0b616363742d303030"
        "3030309486947d94288c0a6163636f756e745f6964948c0b616363742d3030303030"
        "30948c0762616c616e6365944a40420f008c077061796c6f6164948c00947568098c"
        "0b616363742d3030303030319486947d9428680d8c0b616363742d30303030303194"
        "680f4a40420f006810681175758c0561745f6d7394474029000000000000758694"
        "622e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_frames_without_events_are_byte_identical(name) -> None:
    message, golden = GOLDEN[name]
    assert encode_frame(message).hex() == golden
    assert decode_frame(bytes.fromhex(golden)) == message


def test_changelog_record_stays_273_bytes() -> None:
    assert len(bytes.fromhex(GOLDEN["record"][1])) == 273
