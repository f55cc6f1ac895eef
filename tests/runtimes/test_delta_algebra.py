"""Property tests for the delta algebra behind position cuts.

The delta between two cuts is the span of changelog records between
their positions: each record is one committed batch's write set, key →
absolute post-state.  The laws recovery, snapshot queries and cold
starts rely on when they resolve a position cut:

- **capture/apply round trip** — folding every captured record over a
  captured base reproduces the live store, for any interleaving of
  writes, on a lone backend and on the slotted store (whose base is a
  tuple of per-slot fragments);
- **compaction equivalence** — folding records one by one equals
  folding them into one write set first: the resolver may apply a
  whole span at once;
- **replay idempotence** — applying a record twice equals applying it
  once: entries are absolute states, so duplicate delivery cannot
  diverge.

Cut cadence is part of the algebra too: a restored store has no
position over any retained base, so the next cut after a restore is a
base.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_state import SHAPES

from repro.runtimes.state import PartitionedSnapshot, PartitionedStore
from repro.runtimes.stateflow.snapshots import (ChangelogRecord,
                                                ChangelogStore,
                                                SnapshotStore, replay)

KEYS = [f"k{i}" for i in range(8)]

#: One mutation: (key, value).  Commit records carry no deletes.
ops_strategy = st.lists(
    st.tuples(st.sampled_from(KEYS),
              st.integers(min_value=0, max_value=99)),
    min_size=0, max_size=40)

#: Where to split the op sequence into committed batches.
cuts_strategy = st.lists(st.integers(min_value=0, max_value=40),
                         min_size=0, max_size=4)

META = dict(source_offsets={}, replied=set(), batch_seq=0, arrival_seq=0)


def apply_ops(backend, ops):
    """Apply *ops* to *backend*; returns the batch's write set."""
    writes = {}
    for key, value in ops:
        backend.put("E", key, {"v": value})
        writes[("E", key)] = {"v": value}
    return writes


def contents(backend):
    return {key: backend.get(*key) for key in sorted(backend.keys())}


def run_segments(ops, cuts, shape="backend"):
    """Drive a backend (or store) through *ops*, capturing a base up
    front and appending one changelog record per batch between cut
    points; returns (base, records, final_contents)."""
    backend = SHAPES[shape]()
    base = backend.snapshot()
    changelog = ChangelogStore()
    boundaries = sorted(set(min(c, len(ops)) for c in cuts))
    start = 0
    for batch_id, boundary in enumerate(boundaries + [len(ops)]):
        changelog.append(batch_id, apply_ops(backend, ops[start:boundary]))
        start = boundary
    records = changelog.records_between(-1, changelog.head_seq)
    assert records is not None and len(records) == len(boundaries) + 1
    return base, records, contents(backend)


def fold(records):
    writes = {}
    for record in records:
        writes.update(record.writes)
    return writes


class TestCaptureApplyRoundTrip:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deltas_reproduce_the_store(self, shape, ops, cuts):
        base, records, final = run_segments(ops, cuts, shape)
        replica = SHAPES[shape]()
        replica.restore(replay(base, records))
        assert contents(replica) == final

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_apply_delta_on_live_backend(self, shape, ops, cuts):
        base, records, final = run_segments(ops, cuts, shape)
        replica = SHAPES[shape]()
        replica.restore(base)
        for record in records:
            replica.apply_writes(record.writes)
        assert contents(replica) == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=30, deadline=None)
    def test_backend_and_store_capture_equivalent_deltas(self, ops, cuts):
        """The same op sequence on a lone backend and on the slotted
        store logs the same records and resolves to the same contents:
        slotting changes how a base is cut up, not what the log says."""
        _, backend_records, backend_final = run_segments(ops, cuts,
                                                         "backend")
        _, store_records, store_final = run_segments(ops, cuts, "store")
        assert ([r.writes for r in backend_records]
                == [r.writes for r in store_records])
        assert backend_final == store_final


class TestCompactionEquivalence:
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_preserves_resolution(self, ops, cuts):
        base, records, final = run_segments(ops, cuts)
        compacted = ChangelogRecord(seq=records[-1].seq,
                                    batch_id=records[-1].batch_id,
                                    writes=fold(records))
        one_by_one = base
        for record in records:
            one_by_one = replay(one_by_one, [record])
        assert replay(base, [compacted]) == one_by_one == final

    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_compact_bounds_layer_count(self, ops, cuts):
        """However many records a span holds, it folds into one write
        set with one entry per key written."""
        _, records, _ = run_segments(ops, cuts)
        assert set(fold(records)) == {("E", key) for key, _ in ops}
        assert len(fold(records)) <= len(KEYS)


class TestReplayIdempotence:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @given(ops=ops_strategy, cuts=cuts_strategy)
    @settings(max_examples=50, deadline=None)
    def test_duplicate_delivery_is_harmless(self, shape, ops, cuts):
        """Every record delivered twice resolves to the same state as
        single delivery."""
        base, records, final = run_segments(ops, cuts, shape)
        doubled = [record for record in records for _ in range(2)]
        replica = SHAPES[shape]()
        replica.restore(replay(base, doubled))
        assert contents(replica) == final

    @given(ops=ops_strategy)
    @settings(max_examples=50, deadline=None)
    def test_changelog_replay_idempotence(self, ops):
        """A batch logged twice (a new run reusing its id) gets two
        records, and folding the log once or twice gives the same
        state as the store that applied the batch."""
        reference = SHAPES["backend"]()
        changelog = ChangelogStore()
        writes = apply_ops(reference, ops)
        if writes:
            first = changelog.append(batch_id=7, writes=writes)
            again = changelog.append(batch_id=7, writes=writes)
            assert again == first + 1
            assert len(changelog) == 2
        records = changelog.records_between(-1, changelog.head_seq)
        once = replay({}, records)
        assert replay(once, records) == once
        assert once == contents(reference)


class TestDeltaShapes:
    def test_empty_segment_captures_empty_delta(self):
        """A position cut taken with no commit since its base spans no
        records and resolves to the base payload itself."""
        store = SnapshotStore()
        changelog = ChangelogStore()
        changelog.append(0, {("E", "a"): {"v": 1}})
        payload = {("E", "a"): {"v": 1}}
        store.take(taken_at_ms=0.0, state=payload, kind="base",
                   changelog_seq=changelog.head_seq, **META)
        cut = store.take(taken_at_ms=1.0, state=None, kind="position",
                         changelog_seq=changelog.head_seq, **META)
        assert changelog.records_between(0, cut.changelog_seq) == []
        assert store.resolve(cut, changelog) is payload

    def test_restore_invalidates_tracking(self):
        """After a restore the store's base no longer describes the
        timeline: the next cut is a base, and a fresh base re-arms
        position cuts."""
        store = SnapshotStore(base_every=4)
        store.take(taken_at_ms=0.0, state={}, kind=store.next_kind(),
                   **META)
        assert store.next_kind() == "position"
        store.rebase()
        assert store.next_kind() == "base"
        store.take(taken_at_ms=1.0, state={("E", "b"): {"v": 2}},
                   kind=store.next_kind(), **META)
        assert store.next_kind() == "position"

    def test_store_cuts_only_the_slots_it_dirtied(self):
        """A position cut holds no state, and resolving it rebuilds only
        the slots its records wrote: every other fragment is the base's
        own object."""
        committed = PartitionedStore(3, slots=8)
        snapshots = SnapshotStore()
        changelog = ChangelogStore()
        base = snapshots.take(taken_at_ms=0.0, state=committed.snapshot(),
                              kind="base", **META)
        changelog.append(0, apply_ops(committed, [("a", 1)]))
        cut = snapshots.take(taken_at_ms=1.0, state=committed.snapshot(),
                             kind="position",
                             changelog_seq=changelog.head_seq, **META)
        assert cut.state is None
        resolved = snapshots.resolve(cut, changelog)
        assert isinstance(resolved, PartitionedSnapshot)
        assert resolved.partition_count == 8
        dirty = committed.slot_of("E", "a")
        for slot, part in enumerate(resolved.parts):
            if slot == dirty:
                assert part == {("E", "a"): {"v": 1}}
            else:
                assert part is base.state.parts[slot]

    def test_store_restore_degrades_to_full_fragments(self):
        """A rewound store has no position over any retained base: its
        next cut carries every slot whole, and the cut after that is a
        position cut again."""
        committed = PartitionedStore(3, slots=8)
        snapshots = SnapshotStore(base_every=4)
        changelog = ChangelogStore()
        payload = committed.snapshot()
        snapshots.take(taken_at_ms=0.0, state=payload,
                       kind=snapshots.next_kind(), **META)
        changelog.append(0, apply_ops(committed, [("a", 1)]))
        committed.restore(payload)
        changelog.rewind_to(-1)
        snapshots.rebase()
        changelog.append(0, apply_ops(committed, [("b", 2)]))
        full = snapshots.take(taken_at_ms=1.0, state=committed.snapshot(),
                              kind=snapshots.next_kind(),
                              changelog_seq=changelog.head_seq, **META)
        assert full.kind == "base"
        assert full.state.partition_count == 8
        assert snapshots.resolve(full, changelog) == committed.snapshot()
        changelog.append(1, apply_ops(committed, [("c", 3)]))
        again = snapshots.take(taken_at_ms=2.0, state=committed.snapshot(),
                               kind=snapshots.next_kind(),
                               changelog_seq=changelog.head_seq, **META)
        assert again.kind == "position" and again.base_id == full.snapshot_id
        assert snapshots.resolve(again, changelog) == committed.snapshot()
