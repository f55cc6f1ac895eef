"""Property tests for the slot assignment scheme behind elastic
rescaling.

The contracts that make rescaling safe:

- ``partition_of`` is *total* (every key has exactly one owner, always
  in range) and *stable* (same key, same owner — across calls and
  across independently built stores);
- rescaling is *minimal-movement*: growing n -> n+1 moves at most
  ``ceil(slots / (n+1))`` slots, all of them to the new worker, and
  every key whose slot did not move keeps its owner;
- a store-level rescale (migrate + commit) never loses, duplicates, or
  corrupts a key.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtimes.state import (
    PartitionedStore,
    SlotAssignment,
    materialize_snapshot,
)

keys = st.lists(
    st.text(min_size=1, max_size=12), min_size=1, max_size=60, unique=True)


class TestTotalityAndStability:
    @given(keys=keys, workers=st.integers(1, 8), slots=st.integers(8, 64))
    @settings(max_examples=40, deadline=None)
    def test_partition_of_total_and_stable(self, keys, workers, slots):
        slots = max(slots, workers)
        store = PartitionedStore(workers, slots=slots)
        twin = PartitionedStore(workers, slots=slots)
        for key in keys:
            owner = store.partition_of("Account", key)
            assert 0 <= owner < workers
            assert store.partition_of("Account", key) == owner
            assert twin.partition_of("Account", key) == owner

    def test_default_layout_matches_classic_scheme(self):
        """With slots == workers and the round-robin initial deal, the
        two-step routing degenerates to the seed's ``hash % n``."""
        from repro.ir.dataflow import stable_hash

        store = PartitionedStore(5)
        for index in range(64):
            key = f"k{index}"
            assert store.partition_of("Account", key) == \
                stable_hash(f"Account|{key}") % 5

    def test_loads_balanced_at_start(self):
        assignment = SlotAssignment(5, slots=64)
        loads = assignment.loads()
        assert sum(loads) == 64
        assert max(loads) - min(loads) <= 1


class TestMinimalMovement:
    @given(workers=st.integers(1, 12), slots=st.integers(16, 96))
    @settings(max_examples=50, deadline=None)
    def test_grow_by_one_moves_only_to_the_new_worker(self, workers, slots):
        slots = max(slots, workers + 1)
        assignment = SlotAssignment(workers, slots=slots)
        delta = assignment.plan(workers + 1)
        # Every moved slot lands on the new worker, nowhere else.
        assert all(dst == workers for _, dst in delta.values())
        # At most the new worker's fair share moves.
        assert len(delta) <= -(-slots // (workers + 1))  # ceil
        # Unmoved slots keep their owner.
        before = list(assignment.owners)
        assignment.apply(workers + 1, delta)
        for slot in range(slots):
            if slot not in delta:
                assert assignment.owners[slot] == before[slot]

    @given(workers=st.integers(2, 12), slots=st.integers(16, 96))
    @settings(max_examples=50, deadline=None)
    def test_shrink_by_one_moves_only_the_victims_slots(self, workers,
                                                        slots):
        slots = max(slots, workers)
        assignment = SlotAssignment(workers, slots=slots)
        victim = workers - 1
        owned = set(assignment.slots_of(victim))
        delta = assignment.plan(workers - 1)
        assert set(delta) == owned
        assert all(src == victim and dst < workers - 1
                   for src, dst in delta.values())

    @given(workers=st.integers(1, 10), target=st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_rebalance_lands_on_quota(self, workers, target):
        assignment = SlotAssignment(workers, slots=64)
        delta = assignment.plan(target)
        assignment.apply(target, delta)
        loads = assignment.loads()
        assert len(loads) == target
        assert sum(loads) == 64
        assert max(loads) - min(loads) <= 1

    def test_plan_is_deterministic(self):
        first = SlotAssignment(3, slots=32).plan(5)
        second = SlotAssignment(3, slots=32).plan(5)
        assert first == second

    def test_apply_bumps_routing_epoch(self):
        assignment = SlotAssignment(2, slots=8)
        epoch = assignment.epoch
        assignment.apply(3, assignment.plan(3))
        assert assignment.epoch == epoch + 1


class TestStoreRescaleIntegrity:
    @given(keys=keys, path=st.lists(st.integers(1, 8), min_size=1,
                                    max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_rescale_path_preserves_every_key(self, keys, path):
        """Walking an arbitrary rescale path (grow and shrink mixed)
        keeps every key readable with its exact state, owned by the
        worker the assignment names — the minimal-movement migration
        moved the data along with the routing table."""
        store = PartitionedStore(2, slots=16)
        for index, key in enumerate(keys):
            store.put("Account", key, {"balance": index})
        for target in path:
            moved = set(store.plan_rescale(target))
            owners_before = list(store.assignment.owners)
            store.rescale(target)
            assert store.assignment.workers == target
            assert len(store) == len(keys)
            for index, key in enumerate(keys):
                owner = store.partition_of("Account", key)
                assert owner < target
                assert store.partition(owner).get(
                    "Account", key) == {"balance": index}
            # Keys in unmoved slots kept their owner: only the migrated
            # ranges' keys changed hands.
            for slot in range(store.slot_count):
                if slot not in moved:
                    assert store.assignment.owners[slot] == \
                        owners_before[slot]

    def test_split_then_merge_round_trip(self):
        store = PartitionedStore(3, slots=12)
        for index in range(24):
            store.put("Account", f"k{index}", {"balance": index})
        before = dict(materialize_snapshot(store.snapshot()))
        store.split()
        assert store.assignment.workers == 4
        store.merge()
        assert store.assignment.workers == 3
        assert materialize_snapshot(store.snapshot()) == before

    def test_snapshot_taken_before_rescale_restores_after(self):
        """Per-slot fragments make snapshots topology-independent: a cut
        taken at 2 workers restores cleanly into a 5-worker store."""
        store = PartitionedStore(2, slots=16)
        for index in range(20):
            store.put("Account", f"k{index}", {"balance": index})
        snapshot = store.snapshot()
        store.rescale(5)
        store.apply_writes({("Account", f"k{i}"): {"balance": -1}
                            for i in range(20)})
        store.restore(snapshot)
        for index in range(20):
            assert store.get("Account", f"k{index}") == {"balance": index}


class TestWorkerSlice:
    def test_slice_views_track_the_live_assignment(self):
        """The same slice object covers a worker's new slots after a
        rescale — ownership is consulted per access, never cached."""
        store = PartitionedStore(2, slots=8)
        slices = [store.partition(index) for index in range(4)]
        for index in range(16):
            store.put("Account", f"k{index}", {"balance": index})
        assert sum(len(s) for s in slices[:2]) == 16
        assert sorted(key for s in slices[:2] for key in s.keys()) == \
            sorted(store.keys())
        store.rescale(4)
        assert sum(len(s) for s in slices) == 16
        for worker_slice in slices:
            assert set(worker_slice.owned_slots()) == \
                set(store.assignment.slots_of(worker_slice.index))
            for entity, key in worker_slice.keys():
                assert worker_slice.exists(entity, key)
                assert worker_slice.get(entity, key) is not None

    def test_unowned_reads_are_invisible(self):
        store = PartitionedStore(3, slots=9)
        store.put("Account", "k", {"balance": 1})
        owner = store.partition_of("Account", "k")
        for index in range(3):
            view = store.partition(index)
            if index == owner:
                assert view.get("Account", "k") == {"balance": 1}
            else:
                assert view.get("Account", "k") is None
                assert not view.exists("Account", "k")

    def test_partitions_iterates_active_workers(self):
        store = PartitionedStore(3, slots=6)
        assert [s.index for s in store.partitions()] == [0, 1, 2]
        store.merge()
        assert [s.index for s in store.partitions()] == [0, 1]

    def test_slice_writes_route_by_slot(self):
        store = PartitionedStore(2, slots=4)
        view = store.partition(0)
        view.create("Account", "x", {"balance": 9})
        view.apply_writes({("Account", "y"): {"balance": 8}})
        assert store.get("Account", "x") == {"balance": 9}
        assert store.get("Account", "y") == {"balance": 8}


class TestAssignmentErrors:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            SlotAssignment(0)

    def test_more_workers_than_slots_rejected(self):
        with pytest.raises(ValueError):
            SlotAssignment(5, slots=3)

    def test_plan_beyond_slots_rejected(self):
        with pytest.raises(ValueError, match="slots"):
            SlotAssignment(2, slots=4).plan(5)

    def test_plan_below_one_rejected(self):
        with pytest.raises(ValueError):
            SlotAssignment(2, slots=4).plan(0)

    def test_restore_slot_count_mismatch_rejected(self):
        assignment = SlotAssignment(2, slots=4)
        with pytest.raises(ValueError, match="slots"):
            assignment.restore((2, (0, 1)))

    def test_freeze_restore_round_trip(self):
        assignment = SlotAssignment(2, slots=8)
        assignment.apply(3, assignment.plan(3))
        frozen = assignment.freeze()
        other = SlotAssignment(2, slots=8)
        other.restore(frozen)
        assert other.workers == 3
        assert other.owners == assignment.owners
