"""SnapshotStore pruning: the store keeps a bounded window of
snapshots, recovery still works long after the first snapshots were
pruned, snapshot cuts stay consistent while a pipeline is in flight,
and — in incremental mode — pruning never frees a base that a retained
position cut still resolves from, the changelog is truncated below the
oldest retained base, and a cut that does not resolve is skipped."""

import pytest

from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import (ChangelogStore,
                                                SnapshotChainError,
                                                SnapshotStore)
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


class TestPruning:
    def test_store_keeps_a_bounded_window(self):
        store = SnapshotStore(keep=3)
        for i in range(8):
            store.take(taken_at_ms=float(i), state={}, source_offsets={},
                       replied=set(), batch_seq=i, arrival_seq=i)
        assert len(store) == 3
        assert store.latest().snapshot_id == 7
        retained = [s.snapshot_id for s in store._snapshots]
        assert retained == [5, 6, 7], "oldest snapshots must be pruned"

    def test_latest_survives_pruning_metadata(self):
        store = SnapshotStore(keep=2)
        for i in range(5):
            store.take(taken_at_ms=float(i), state={"v": i},
                       source_offsets={("t", 0): i}, replied={i},
                       batch_seq=i, arrival_seq=i)
        latest = store.latest()
        assert latest.state == {"v": 4}
        assert latest.source_offsets == {("t", 0): 4}
        assert latest.replied == {4}


def _incremental_store(keep=2, base_every=4):
    """A store holding one base and position cuts over it, each after
    one more changelog record."""
    store = SnapshotStore(keep=keep, mode="incremental",
                          base_every=base_every)
    changelog = ChangelogStore()
    store.take(taken_at_ms=0.0, state={("E", "a"): {"v": 0}},
               source_offsets={}, replied=set(), batch_seq=0,
               arrival_seq=0, kind="base")
    for i in range(1, base_every):
        changelog.append(i, {("E", "a"): {"v": i}})
        store.take(taken_at_ms=float(i), state=None, source_offsets={},
                   replied=set(), batch_seq=i, arrival_seq=i,
                   kind="position", changelog_seq=changelog.head_seq)
    return store, changelog


class TestChainAwarePruning:
    """The window keeps the newest cuts plus the bases they resolve
    from (a chain: one base and the position cuts over it): a position
    cut is useless without its base."""

    def test_window_trim_stops_at_the_anchoring_base(self):
        store, changelog = _incremental_store(keep=2, base_every=4)
        assert [s.snapshot_id for s in store._snapshots] == [0, 2, 3]
        assert store.resolve(store.latest(), changelog) \
            == {("E", "a"): {"v": 3}}
        # Records at or below the oldest retained base are dead.
        assert store.floor_changelog_seq() == -1

    def test_unanchored_snapshots_still_prune(self):
        store, changelog = _incremental_store(keep=2, base_every=4)
        for i in (9, 10):
            store.take(taken_at_ms=float(i), state={("E", "a"): {"v": i}},
                       source_offsets={}, replied=set(), batch_seq=i,
                       arrival_seq=i, kind="base",
                       changelog_seq=changelog.head_seq)
        assert [s.snapshot_id for s in store._snapshots] == [4, 5]
        assert store.floor_changelog_seq() == changelog.head_seq

    def test_full_mode_pruning_unchanged(self):
        store = SnapshotStore(keep=3)
        for i in range(8):
            store.take(taken_at_ms=float(i), state={}, source_offsets={},
                       replied=set(), batch_seq=i, arrival_seq=i)
        assert [s.snapshot_id for s in store._snapshots] == [5, 6, 7]
        assert all(s.base_id == s.snapshot_id for s in store._snapshots)


class TestCutResolution:
    """``resolve`` and ``latest_recoverable`` on a base with position
    cuts over it (``_incremental_store``: records 0..2 set ``v`` to
    1..3, cut *i* sits after record *i - 1*)."""

    def test_each_position_cut_folds_up_to_its_own_position(self):
        store, changelog = _incremental_store(keep=8, base_every=4)
        assert [store.resolve(cut, changelog)[("E", "a")]["v"]
                for cut in store.retained()] == [0, 1, 2, 3]

    def test_as_of_folds_past_the_cut(self):
        store, changelog = _incremental_store(keep=8, base_every=4)
        first = store.retained()[1]
        assert store.resolve(first, changelog,
                             up_to_seq=changelog.head_seq) \
            == {("E", "a"): {"v": 3}}

    def test_a_position_cut_keeps_no_state(self):
        store, changelog = _incremental_store(keep=8, base_every=4)
        store.take(taken_at_ms=5.0, state={("E", "a"): {"v": 99}},
                   source_offsets={}, replied=set(), batch_seq=5,
                   arrival_seq=5, kind="position",
                   changelog_seq=changelog.head_seq)
        assert store.latest().state is None
        assert store.cut_log[-1].keys == store.cut_log[-1].bytes == 0
        assert store.resolve(store.latest(), changelog) \
            == {("E", "a"): {"v": 3}}

    def test_a_span_gap_does_not_resolve(self):
        store, changelog = _incremental_store(keep=8, base_every=4)
        changelog.truncate_through(0)
        with pytest.raises(SnapshotChainError, match="has a gap"):
            store.resolve(store.latest(), changelog)
        with pytest.raises(SnapshotChainError, match="has a gap"):
            store.resolve(store.latest(), None)

    def test_latest_recoverable_skips_unresolvable_cuts(self):
        store, changelog = _incremental_store(keep=8, base_every=4)
        changelog.rewind_to(0)
        snapshot, payload = store.latest_recoverable(changelog)
        assert snapshot.snapshot_id == 1
        assert payload == {("E", "a"): {"v": 1}}

    def test_an_empty_store_has_nothing_to_recover(self):
        with pytest.raises(SnapshotChainError, match="no recoverable"):
            SnapshotStore(mode="incremental").latest_recoverable(
                ChangelogStore())

    def test_every_cut_is_a_base_when_base_every_is_one(self):
        store = SnapshotStore(mode="incremental", base_every=1)
        kinds = []
        for i in range(4):
            kinds.append(store.next_kind())
            store.take(taken_at_ms=float(i), state={}, source_offsets={},
                       replied=set(), batch_seq=i, arrival_seq=i,
                       kind=kinds[-1])
        assert kinds == ["base"] * 4


class TestRecoveryAfterPruning:
    def test_recovery_after_more_than_keep_snapshots(self, account_program):
        """Run long enough that the initial snapshots are pruned, then
        fail over: recovery restores the latest retained snapshot and
        the run stays exactly-once."""
        config = StateflowConfig(
            coordinator=CoordinatorConfig(snapshot_interval_ms=100.0))
        runtime = StateflowRuntime(account_program, config=config)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        keep = runtime.coordinator.snapshots._keep
        replies = []
        for i in range(20):
            runtime.sim.schedule_at(
                i * 60.0, lambda: runtime.submit(
                    ref, "add", (1,),
                    on_reply=lambda r: replies.append(r.request_id)))
        runtime.sim.run(until=1_200)
        assert runtime.coordinator.snapshots._next_id > keep, (
            "the run must have pruned at least one snapshot")
        assert len(runtime.coordinator.snapshots) <= keep
        runtime.fail_coordinator(failover_after_ms=50.0)
        runtime.sim.run(until=30_000)
        assert runtime.entity_state(ref)["balance"] == 20
        assert len(replies) == 20 and len(set(replies)) == 20


    def test_changelog_is_truncated_below_the_oldest_retained_base(
            self, account_program):
        """A long incremental run logs far more records than its
        retained cuts can need: everything at or below the oldest
        retained base's position is gone, everything above it is
        kept, and the newest cut still resolves to the live state."""
        config = StateflowConfig(
            snapshot_mode="incremental",
            coordinator=CoordinatorConfig(snapshot_interval_ms=100.0,
                                          snapshot_base_every=3))
        runtime = StateflowRuntime(account_program, config=config)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        for i in range(30):
            runtime.sim.schedule_at(
                i * 60.0, lambda: runtime.submit(ref, "add", (1,)))
        runtime.sim.run(until=2_500)
        coordinator = runtime.coordinator
        snapshots, changelog = coordinator.snapshots, coordinator.changelog
        floor = snapshots.floor_changelog_seq()
        assert changelog.truncated > 0 and floor >= 0
        assert changelog.records_between(floor, changelog.head_seq) \
            is not None
        assert changelog.records_between(floor - 1,
                                         changelog.head_seq) is None
        _, payload = snapshots.latest_recoverable(changelog)
        assert materialize_snapshot(payload) == materialize_snapshot(
            runtime.committed.snapshot())
        assert runtime.entity_state(ref)["balance"] == 30


class TestNoHalfCommittedSnapshots:
    def test_every_snapshot_conserves_balance_under_pipeline(
            self, account_program):
        """Transfer load on a deep pipeline: every snapshot ever cut
        (including those later pruned) must conserve the total balance —
        a half-committed transfer batch would break the sum."""
        config = StateflowConfig(coordinator=CoordinatorConfig(
            pipeline_depth=4, snapshot_interval_ms=80.0))
        runtime = StateflowRuntime(account_program, config=config)
        totals = []
        original_take = runtime.coordinator.snapshots.take

        def auditing_take(**kwargs):
            state = materialize_snapshot(kwargs["state"])
            totals.append(sum(
                entry["balance"] for (kind, _), entry in state.items()
                if kind == "Account"))
            return original_take(**kwargs)

        runtime.coordinator.snapshots.take = auditing_take
        workload = YcsbWorkload("T", record_count=12, distribution="uniform",
                                seed=5, initial_balance=1_000)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=300, duration_ms=1_000, warmup_ms=0, drain_ms=20_000,
            seed=6))
        driver.run()
        assert len(totals) >= 5, "the run must actually cut snapshots"
        expected = workload.total_balance()
        assert all(total == expected for total in totals), (
            "a snapshot captured a half-committed batch: "
            f"{[t for t in totals if t != expected]}")
