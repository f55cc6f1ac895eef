"""SnapshotStore pruning: the store keeps a bounded window of
snapshots, recovery still works long after the first snapshots were
pruned, snapshot cuts stay consistent while a pipeline is in flight,
pruning never frees a base that a retained position cut still resolves
from, the changelog is truncated below the oldest retained base, and a
cut that does not resolve is skipped."""

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
    store = SnapshotStore(keep=keep, base_every=base_every)
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

    def test_a_window_of_bases_keeps_the_newest_cuts(self):
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
            SnapshotStore().latest_recoverable(ChangelogStore())

    def test_every_cut_is_a_base_when_base_every_is_one(self):
        store = SnapshotStore(base_every=1)
        kinds = []
        for i in range(4):
            kinds.append(store.next_kind())
            store.take(taken_at_ms=float(i), state={}, source_offsets={},
                       replied=set(), batch_seq=i, arrival_seq=i,
                       kind=kinds[-1])
        assert kinds == ["base"] * 4


def _take_planned(store, i, changelog=None):
    """Take the cut *store* asks for as cut *i*, after one more record
    when a changelog is given."""
    seq = -1
    if changelog is not None:
        changelog.append(i, {("E", "a"): {"v": i}})
        seq = changelog.head_seq
    kind = store.next_kind()
    return store.take(taken_at_ms=float(i), state={("E", "a"): {"v": i}},
                      source_offsets={}, replied=set(), batch_seq=i,
                      arrival_seq=i, kind=kind, changelog_seq=seq)


class TestCutCadence:
    """``next_kind`` answers from ``base_every`` alone: the first cut is
    a base, then one base every ``base_every`` cuts and position cuts in
    between; :meth:`SnapshotStore.rebase` restarts the count."""

    @pytest.mark.parametrize("base_every", [2, 3, 4, 5, 7])
    def test_a_base_every_nth_cut(self, base_every):
        store = SnapshotStore(keep=100, base_every=base_every)
        cuts = [_take_planned(store, i) for i in range(3 * base_every + 1)]
        assert [cut.kind for cut in cuts] == [
            "base" if i % base_every == 0 else "position"
            for i in range(len(cuts))]
        assert [cut.base_id for cut in cuts] == [
            i - i % base_every for i in range(len(cuts))]

    @pytest.mark.parametrize("base_every", [2, 3, 4])
    def test_rebase_restarts_the_chain(self, base_every):
        store = SnapshotStore(keep=100, base_every=base_every)
        changelog = ChangelogStore()
        _take_planned(store, 0, changelog)
        _take_planned(store, 1, changelog)
        store.rebase()
        rebased = _take_planned(store, 2, changelog)
        after = [_take_planned(store, i, changelog)
                 for i in range(3, 3 + base_every)]
        assert (rebased.kind, rebased.base_id) == ("base", 2)
        assert [cut.kind for cut in after] == \
            ["position"] * (base_every - 1) + ["base"]
        assert [store.resolve(cut, changelog)[("E", "a")]["v"]
                for cut in after] == list(range(3, 3 + base_every))

    def test_a_legacy_full_cut_reads_as_a_base(self):
        """Cuts written before the one durability mode carry
        ``kind="full"``: the store anchors position cuts on them and
        counts them toward the changelog floor."""
        store = SnapshotStore(keep=8, base_every=3)
        changelog = ChangelogStore()
        changelog.append(0, {("E", "a"): {"v": 0}})
        full = store.take(taken_at_ms=0.0, state={("E", "a"): {"v": 0}},
                          source_offsets={}, replied=set(), batch_seq=0,
                          arrival_seq=0, kind="full",
                          changelog_seq=changelog.head_seq)
        assert full.base_id == full.snapshot_id
        following = [_take_planned(store, i, changelog) for i in (1, 2, 3)]
        assert [cut.kind for cut in following] == \
            ["position", "position", "base"]
        assert store.resolve(following[1], changelog) == {("E", "a"): {"v": 2}}
        assert store.floor_changelog_seq() == full.changelog_seq


class TestFootprints:
    """``snapshot_footprints`` is a plain switch: off by default, so no
    default run measures a payload, and on in the recovery preset."""

    def test_off_by_default(self, account_program):
        assert CoordinatorConfig().snapshot_footprints is False
        runtime = StateflowRuntime(account_program)
        snapshots = runtime.coordinator.snapshots
        assert snapshots.track_footprints is False
        _take_planned(snapshots, 0)
        assert (snapshots.cut_log[-1].keys, snapshots.cut_log[-1].bytes) \
            == (0, 0)

    def test_on_each_base_is_measured(self, account_program):
        config = StateflowConfig(coordinator=CoordinatorConfig(
            snapshot_footprints=True, snapshot_base_every=2))
        snapshots = StateflowRuntime(account_program,
                                     config=config).coordinator.snapshots
        assert snapshots.track_footprints is True
        for i in range(4):
            _take_planned(snapshots, i)
        assert [(record.kind, record.keys > 0, record.bytes > 0)
                for record in snapshots.cut_log] == [
            ("base", True, True), ("position", False, False)] * 2


class TestRecoveryAfterPruning:
    def test_recovery_after_more_than_keep_snapshots(self, account_program):
        """Run long enough that the initial snapshots are pruned, then
        fail over: recovery restores the latest retained snapshot and
        the run stays exactly-once.  The window holds the newest
        ``keep`` cuts plus the bases they resolve from."""
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
        snapshots = runtime.coordinator.snapshots
        assert snapshots._next_id > keep, (
            "the run must have pruned at least one snapshot")
        newest = set(range(snapshots._next_id - keep, snapshots._next_id))
        retained = snapshots.retained()
        assert {cut.snapshot_id for cut in retained} == newest | {
            cut.base_id for cut in retained if cut.snapshot_id in newest}
        assert 0 not in {cut.snapshot_id for cut in retained}
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


class TestEveryRunLogs:
    def test_a_default_run_logs_one_record_per_writing_batch(
            self, account_program):
        """With the default config, every closed batch that wrote
        something appends exactly one changelog record, in batch order;
        a batch of reads appends none."""
        runtime = StateflowRuntime(account_program)
        coordinator = runtime.coordinator
        closed, logged = [], []
        observe = coordinator._observe_batch_writes
        append = coordinator.changelog.append

        def observing(batch):
            closed.append((batch.batch_id, bool(batch.footprint)))
            observe(batch)

        def appending(batch_id, writes, *, at_ms=0.0):
            logged.append(batch_id)
            return append(batch_id, writes, at_ms=at_ms)

        coordinator._observe_batch_writes = observing
        coordinator.changelog.append = appending
        refs = runtime.preload(Account, [(f"a{i}", 0) for i in range(4)])
        runtime.start()
        for i, ref in enumerate(refs):
            runtime.sim.schedule_at(
                i * 40.0, lambda r=ref: runtime.submit(r, "add", (1,)))
            runtime.sim.schedule_at(
                500.0 + i * 40.0, lambda r=ref: runtime.submit(r, "read", ()))
        runtime.sim.run(until=2_000)
        writing = [batch_id for batch_id, wrote in closed if wrote]
        assert writing and len(writing) < len(closed)
        assert logged == writing
        assert coordinator.changelog.appended == len(writing)

    @staticmethod
    def _logged(account_program, base_every):
        """Every changelog append of a short transfer run, in order."""
        config = StateflowConfig(workers=2, coordinator=CoordinatorConfig(
            pipeline_depth=2, snapshot_interval_ms=100.0,
            snapshot_base_every=base_every))
        runtime = StateflowRuntime(account_program, config=config)
        logged = []
        append = runtime.coordinator.changelog.append

        def appending(batch_id, writes, *, at_ms=0.0):
            logged.append((batch_id, dict(writes)))
            return append(batch_id, writes, at_ms=at_ms)

        runtime.coordinator.changelog.append = appending
        workload = YcsbWorkload("T", record_count=8, distribution="uniform",
                                seed=5, initial_balance=100)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        WorkloadDriver(runtime, workload, DriverConfig(
            rps=100.0, duration_ms=800.0, warmup_ms=0.0, drain_ms=2_000.0,
            seed=6)).run()
        return logged

    @pytest.mark.parametrize("base_every", [1, 2, 6])
    def test_the_log_does_not_depend_on_the_cut_cadence(
            self, account_program, base_every):
        """The cadence decides what a cut captures, never what a commit
        logs: every cadence appends the default's records."""
        logged = self._logged(account_program, base_every)
        assert logged
        assert logged == self._logged(
            account_program, CoordinatorConfig().snapshot_base_every)


class TestNoHalfCommittedSnapshots:
    def test_every_snapshot_conserves_balance_under_pipeline(
            self, account_program):
        """Transfer load on a deep pipeline: every snapshot ever cut
        (including those later pruned) must conserve the total balance —
        a half-committed transfer batch would break the sum.  Each cut
        is resolved as it is taken, so a position cut is audited through
        the changelog records it folds."""
        config = StateflowConfig(coordinator=CoordinatorConfig(
            pipeline_depth=4, snapshot_interval_ms=80.0))
        runtime = StateflowRuntime(account_program, config=config)
        totals = []
        snapshots = runtime.coordinator.snapshots
        original_take = snapshots.take

        def auditing_take(**kwargs):
            cut = original_take(**kwargs)
            state = materialize_snapshot(snapshots.resolve(
                cut, runtime.coordinator.changelog))
            totals.append(sum(
                entry["balance"] for (kind, _), entry in state.items()
                if kind == "Account"))
            return cut

        snapshots.take = auditing_take
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
