"""Property tests for the delta-chain algebra behind incremental
snapshots.

The laws the snapshot store's bounded-depth compaction and the
changelog repair path rely on:

- **capture/apply round trip** — replaying every captured delta over a
  captured base reproduces the live store, for any interleaving of
  writes, creates and deletes, on a lone backend and on the slotted
  store (whose deltas are per-slot fragments);
- **compaction equivalence** — ``apply(base, d1..dn)`` equals
  ``apply(base, compact(d1..dn))``;
- **replay idempotence** — applying a delta (or a changelog record)
  twice equals applying it once: entries are absolute states, so
  duplicate delivery cannot diverge (the PR 2 incarnation fences make
  duplicates *rare*; the algebra makes them *harmless*).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_state import SHAPES

from repro.runtimes.state import (DictStateBackend, FullFragment,
                                  PartitionedDelta, PartitionedStore,
                                  StateDelta, compact_deltas,
                                  resolve_payload)
from repro.runtimes.stateflow.snapshots import ChangelogStore

KEYS = [f"k{i}" for i in range(8)]

#: One mutation: (op, key, value).  Deletes of absent keys are legal.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(["put", "create", "delete"]),
              st.sampled_from(KEYS),
              st.integers(min_value=0, max_value=99)),
    min_size=0, max_size=40)

#: Where to split the op sequence into capture segments.
cuts_strategy = st.lists(st.integers(min_value=0, max_value=40),
                         min_size=0, max_size=4)


def apply_ops(backend, ops):
    for op, key, value in ops:
        if op == "delete":
            backend.delete("E", key)
        else:
            backend.put("E", key, {"v": value})


def contents(backend):
    return {key: backend.get(*key) for key in sorted(backend.keys())}


def run_segments(ops, cuts, shape="backend"):
    """Drive a backend (or store) through *ops*, capturing a base up
    front and a delta at every cut point; returns (base, deltas,
    final_contents)."""
    backend = SHAPES[shape]()
    base = backend.capture_base()
    deltas = []
    boundaries = sorted(set(min(c, len(ops)) for c in cuts))
    start = 0
    for boundary in boundaries:
        apply_ops(backend, ops[start:boundary])
        deltas.append(backend.capture_delta())
        start = boundary
    apply_ops(backend, ops[start:])
    deltas.append(backend.capture_delta())
    assert all(delta is not None for delta in deltas)
    return base, deltas, contents(backend)


class TestCaptureApplyRoundTrip:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deltas_reproduce_the_store(self, shape, ops, cuts):
        base, deltas, final = run_segments(ops, cuts, shape)
        replica = SHAPES[shape]()
        replica.restore(resolve_payload(base, deltas))
        assert contents(replica) == final

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_apply_delta_on_live_backend(self, shape, ops, cuts):
        base, deltas, final = run_segments(ops, cuts, shape)
        replica = SHAPES[shape]()
        replica.restore(base)
        for delta in deltas:
            replica.apply_delta(delta)
        assert contents(replica) == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_backend_and_store_capture_equivalent_deltas(self, ops, cuts):
        """The same op sequence captured on a lone backend and on the
        slotted store resolves to the same contents: slotting changes
        how a delta is cut up, not what it says."""
        _, _, backend_final = run_segments(ops, cuts, "backend")
        _, _, store_final = run_segments(ops, cuts, "store")
        assert backend_final == store_final


class TestCompactionEquivalence:
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_preserves_resolution(self, ops, cuts):
        base, deltas, final = run_segments(ops, cuts)
        compacted = compact_deltas(deltas)
        replica = DictStateBackend()
        replica.restore(resolve_payload(base, [compacted]))
        assert contents(replica) == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_bounds_layer_count(self, ops, cuts):
        _, deltas, _ = run_segments(ops, cuts)
        compacted = compact_deltas(deltas)
        assert len(compacted.layers) <= 1


class TestReplayIdempotence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_duplicate_delivery_is_harmless(self, shape, ops, cuts):
        """Every delta delivered twice (the torn_snapshot "duplicate"
        variant) resolves to the same state as single delivery."""
        base, deltas, final = run_segments(ops, cuts, shape)
        doubled = [delta for delta in deltas for _ in range(2)]
        replica = SHAPES[shape]()
        replica.restore(resolve_payload(base, doubled))
        assert contents(replica) == final

    @given(ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_changelog_replay_idempotence(self, ops):
        """Changelog records replay idempotently onto any payload, and
        duplicate appends of one batch are dropped (the append-side
        fence, mirroring the PR 2 worker incarnation fences)."""
        reference = DictStateBackend()
        changelog = ChangelogStore()
        writes = {}
        for op, key, value in ops:
            if op == "delete":
                continue  # commit records never carry deletes
            reference.put("E", key, {"v": value})
            writes[("E", key)] = {"v": value}
        if writes:
            first = changelog.append(batch_id=7, writes=writes)
            again = changelog.append(batch_id=7, writes=writes)
            assert first == again
            assert changelog.duplicate_appends == 1
            assert len(changelog) == 1
        records = changelog.records_between(-1, changelog.head_seq) or []
        once = {}
        for record in records:
            once.update(record.writes)
        twice = dict(once)
        for record in records:
            twice.update(record.writes)
        assert once == twice
        assert once == {key: reference.get(*key)
                        for key in reference.keys()}


class TestDeltaShapes:
    def test_empty_segment_captures_empty_delta(self):
        backend = DictStateBackend()
        backend.capture_base()
        delta = backend.capture_delta()
        assert delta is not None and delta.is_empty

    def test_restore_invalidates_tracking(self):
        backend = DictStateBackend()
        payload = backend.capture_base()
        backend.put("E", "a", {"v": 1})
        backend.restore(payload)
        assert backend.capture_delta() is None
        # A fresh base re-arms tracking.
        backend.capture_base()
        backend.put("E", "b", {"v": 2})
        delta = backend.capture_delta()
        assert delta is not None and not delta.is_empty

    def test_store_cuts_only_the_slots_it_dirtied(self):
        store = PartitionedStore(3, slots=8)
        store.capture_base()
        store.put("E", "a", {"v": 1})
        delta = store.capture_delta()
        assert isinstance(delta, PartitionedDelta)
        assert delta.partition_count == 8
        [(slot, part)] = [(slot, part) for slot, part
                          in enumerate(delta.parts) if part is not None]
        assert slot == store.slot_of("E", "a")
        assert isinstance(part, StateDelta)
        assert part.merged() == {("E", "a"): {"v": 1}}
        # Nothing written since: every slot is clean.
        assert store.capture_delta().parts == (None,) * 8

    def test_store_restore_degrades_to_full_fragments(self):
        """A rewound store has no delta over any durable base: its next
        cut carries every slot whole, and the cut after that is a delta
        again."""
        store = PartitionedStore(3, slots=8)
        payload = store.capture_base()
        store.put("E", "a", {"v": 1})
        store.restore(payload)
        store.put("E", "b", {"v": 2})
        full = store.capture_delta()
        assert all(isinstance(part, FullFragment) for part in full.parts)
        assert resolve_payload(payload, [full]) == store.snapshot()
        store.put("E", "c", {"v": 3})
        again = store.capture_delta()
        assert not any(isinstance(part, FullFragment)
                       for part in again.parts)
        assert sum(part is not None for part in again.parts) == 1
