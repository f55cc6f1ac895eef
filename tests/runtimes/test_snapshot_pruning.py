"""SnapshotStore pruning: the store keeps a bounded window of
snapshots, recovery still works long after the first snapshots were
pruned, snapshot cuts stay consistent while a pipeline is in flight,
and — with incremental chains — pruning never frees a base (or an
intermediate delta) that a retained cut still resolves through."""

import pytest

from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import (SnapshotPruneError,
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
    """A store holding one base and a chain of delta cuts over it."""
    store = SnapshotStore(keep=keep, mode="incremental",
                          base_every=base_every)
    store.take(taken_at_ms=0.0, state={("E", "a"): {"v": 0}},
               source_offsets={}, replied=set(), batch_seq=0,
               arrival_seq=0, kind="base")
    for i in range(1, base_every):
        from repro.runtimes.state import StateDelta
        store.take(taken_at_ms=float(i),
                   state=StateDelta(layers=({("E", "a"): {"v": i}},)),
                   source_offsets={}, replied=set(), batch_seq=i,
                   arrival_seq=i, kind="delta")
    return store


class TestChainAwarePruning:
    """Regression for the latent full-mode pruning policy: a base that
    still anchors a live delta chain must never be dropped — by the
    automatic window trim or by an explicit prune."""

    def test_window_trim_stops_at_the_anchoring_base(self):
        store = _incremental_store(keep=2, base_every=4)
        # keep=2 would have evicted the base (id 0) under the old
        # unconditional pop; the retained deltas resolve through it.
        assert len(store) == 4
        retained = [s.snapshot_id for s in store._snapshots]
        assert 0 in retained, "the anchoring base was pruned"
        resolved = store.resolve(store.latest())
        assert resolved == {("E", "a"): {"v": 3}}

    def test_explicit_prune_of_an_anchored_base_is_refused(self):
        store = _incremental_store()
        with pytest.raises(SnapshotPruneError):
            store.prune(0)
        # Intermediate deltas anchor their successors just the same.
        with pytest.raises(SnapshotPruneError):
            store.prune(1)

    def test_unanchored_snapshots_still_prune(self):
        store = _incremental_store(keep=2, base_every=4)
        # A new base cuts the old chain loose...
        store.take(taken_at_ms=9.0, state={("E", "a"): {"v": 9}},
                   source_offsets={}, replied=set(), batch_seq=9,
                   arrival_seq=9, kind="base")
        store.take(taken_at_ms=10.0, state={("E", "a"): {"v": 10}},
                   source_offsets={}, replied=set(), batch_seq=10,
                   arrival_seq=10, kind="base")
        # ...so the trim reclaims the whole old chain down to the window.
        assert len(store) == 2
        assert [s.snapshot_id for s in store._snapshots] == [4, 5]

    def test_full_mode_pruning_unchanged(self):
        store = SnapshotStore(keep=3)
        for i in range(8):
            store.take(taken_at_ms=float(i), state={}, source_offsets={},
                       replied=set(), batch_seq=i, arrival_seq=i)
        assert [s.snapshot_id for s in store._snapshots] == [5, 6, 7]
        store.prune(6)  # full cuts anchor nothing: prunable
        assert [s.snapshot_id for s in store._snapshots] == [5, 7]


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
