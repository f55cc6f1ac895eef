"""Pipelined epoch execution: overlap, snapshot-view isolation,
cross-batch stale aborts, depth equivalence, and whole-pipeline drains
(recovery, rescale)."""

from dataclasses import replace

import pytest

from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.substrates.costs import LatencyModel
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


def _runtime(account_program, *, depth=2, network_median_ms=None,
             **coordinator_overrides) -> StateflowRuntime:
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        coordinator=CoordinatorConfig(pipeline_depth=depth,
                                      **coordinator_overrides)))
    if network_median_ms is not None:
        runtime.network.config = replace(
            runtime.network.config,
            intra_cluster=LatencyModel(median_ms=network_median_ms,
                                       sigma=0.05))
    return runtime


class TestOverlap:
    def test_pipeline_reaches_depth_two_under_load(self, account_program):
        runtime = _runtime(account_program, depth=2)
        refs = runtime.preload(
            Account, [(f"a{i}", 100) for i in range(20)])
        runtime.start()
        for round_i in range(25):
            for ref in refs:
                runtime.sim.schedule_at(
                    round_i * 2.0, lambda r=ref: runtime.submit(r, "add", (1,)))
        runtime.sim.run(until=10_000)
        stats = runtime.coordinator.stats
        assert stats.depth_hist.get(2, 0) > 0, (
            "a busy depth-2 pipeline must actually seal over an "
            f"in-flight batch; histogram: {stats.depth_hist}")
        assert all(runtime.entity_state(r)["balance"] == 125 for r in refs)

    def test_depth_one_is_strictly_serial(self, account_program):
        runtime = _runtime(account_program, depth=1)
        refs = runtime.preload(
            Account, [(f"a{i}", 100) for i in range(10)])
        runtime.start()
        for ref in refs:
            runtime.submit(ref, "add", (1,))
            runtime.submit(ref, "transfer", (1, refs[0]))
        runtime.sim.run(until=20_000)
        stats = runtime.coordinator.stats
        assert set(stats.depth_hist) == {1}
        assert stats.stall_ms == 0.0
        assert stats.aborts_stale == 0
        assert not runtime.coordinator._pinned
        assert runtime.committed._views == {}


class TestSnapshotViewIsolation:
    """A batch sealed over an in-flight commit executes against the
    pinned snapshot of its seal boundary: the older batch's writes land
    mid-execution but stay invisible, and the stale read is caught at
    the commit barrier (ABORT_STALE) and re-executed in arrival order."""

    def test_cross_batch_stale_read_aborts_and_reexecutes(
            self, account_program):
        # Slow fabric: the first transfer's commit phase (apply-write
        # round trips) is long enough for the second to seal, execute
        # against the pinned pre-commit view, and have to abort stale.
        runtime = _runtime(account_program, depth=2, network_median_ms=8.0)
        hot, b, c = runtime.preload(
            Account, [("hot", 100), ("b", 0), ("c", 0)])
        runtime.start()
        replies = {}
        runtime.reply_tap = lambda r: replies.setdefault(r.request_id,
                                                         r.payload)
        first = runtime.submit(hot, "transfer", (60, b))
        coordinator = runtime.coordinator
        runtime.sim.run_until(lambda: coordinator._commit_batch is not None,
                              max_time=60_000)
        # The pipelined batch: sealed while the first is committing.
        second = runtime.submit(hot, "transfer", (60, c))
        runtime.sim.run(until=runtime.sim.now + 30_000)
        assert coordinator.stats.aborts_stale >= 1
        # Arrival-order serial outcome: the second transfer re-executed
        # against live state and saw the drained balance.
        assert replies[first] is True
        assert replies[second] is False
        assert runtime.entity_state(hot)["balance"] == 40
        assert runtime.entity_state(b)["balance"] == 60
        assert runtime.entity_state(c)["balance"] == 0


def _ycsb_run(account_program, *, depth, workload="T", distribution="uniform",
              rps=250.0, duration_ms=800.0, records=20, seed=11):
    runtime = _runtime(account_program, depth=depth)
    trace = []
    runtime.reply_tap = lambda r: trace.append(
        (r.request_id, repr(r.payload), r.error))
    workload = YcsbWorkload(workload, record_count=records,
                            distribution=distribution, seed=seed + 1,
                            initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0, drain_ms=20_000,
        seed=seed + 2))
    driver.run()
    runtime.sim.run(until=runtime.sim.now + 20_000)
    state = materialize_snapshot(runtime.committed.snapshot())
    return sorted(trace), sorted(state.items(), key=repr)


class TestDepthEquivalence:
    """Replies and final state must be identical across pipeline depths:
    the pipeline changes *when* work happens, never *what* commits."""

    @pytest.mark.parametrize("workload,distribution",
                             [("T", "uniform"), ("A", "zipfian")])
    def test_depth2_matches_depth1(self, account_program, workload,
                                   distribution):
        base = _ycsb_run(account_program, depth=1, workload=workload,
                         distribution=distribution)
        piped = _ycsb_run(account_program, depth=2, workload=workload,
                          distribution=distribution)
        assert piped[0] == base[0], "reply traces diverged across depths"
        assert piped[1] == base[1], "final state diverged across depths"

    def test_depth4_matches_depth1(self, account_program):
        base = _ycsb_run(account_program, depth=1)
        piped = _ycsb_run(account_program, depth=4)
        assert piped == base


class TestPipelineDrains:
    def test_recovery_abandons_whole_pipeline(self, account_program):
        runtime = _runtime(account_program, depth=2, network_median_ms=8.0,
                           snapshot_interval_ms=250.0)
        refs = runtime.preload(Account, [(f"a{i}", 100) for i in range(8)])
        runtime.start()
        replies = []
        for i, ref in enumerate(refs):
            runtime.sim.schedule_at(
                i * 6.0, lambda r=ref: runtime.submit(
                    r, "add", (1,),
                    on_reply=lambda reply: replies.append(reply.request_id)))
        coordinator = runtime.coordinator
        runtime.sim.run_until(lambda: len(coordinator.inflight) == 2,
                              max_time=60_000)
        coordinator.recover()
        # The WHOLE pipeline is gone, including pinned snapshot views.
        assert coordinator.inflight == {}
        assert coordinator._commit_batch is None
        assert coordinator._pinned == set()
        assert coordinator._footprints == {}
        assert runtime.committed._views == {}
        runtime.sim.run(until=runtime.sim.now + 30_000)
        # Replay restored every request exactly once.
        assert sorted(replies) == sorted(set(replies))
        assert len(replies) == len(refs)
        assert all(runtime.entity_state(r)["balance"] == 101 for r in refs)

    def test_snapshot_folds_executing_batches_into_pending(
            self, account_program):
        """A snapshot cut mid-pipeline must carry still-executing
        batches as channel state (their effects are uncommitted), so a
        recovery from it replays them — and must never capture a
        half-committed batch."""
        runtime = _runtime(account_program, depth=2, network_median_ms=8.0)
        refs = runtime.preload(Account, [(f"a{i}", 100) for i in range(8)])
        runtime.start()
        for i, ref in enumerate(refs):
            runtime.sim.schedule_at(
                i * 6.0, lambda r=ref: runtime.submit(r, "add", (1,)))
        coordinator = runtime.coordinator
        runtime.sim.run_until(lambda: len(coordinator.inflight) == 2,
                              max_time=60_000)
        executing = [batch for bid, batch in coordinator.inflight.items()
                     if coordinator._commit_batch is None
                     or bid != coordinator._commit_batch.batch_id]
        assert executing, "test needs a batch beyond the commit region"
        folded_ids = {txn.request_id for batch in executing
                      for txn in batch.all_records()}
        snapshots_before = len(coordinator.snapshots)
        coordinator._snapshot_requested = True
        runtime.sim.run_until(
            lambda: len(coordinator.snapshots) > snapshots_before,
            max_time=60_000)
        snapshot = coordinator.snapshots.latest()
        snapshot_ids = {txn.request_id for txn in snapshot.pending}
        assert folded_ids <= snapshot_ids, (
            "executing batches must be folded into snapshot channel state")
        # No half-committed batch: the cut's balances are the preload
        # plus exactly the adds whose replies the cut also carries
        # (every committed add replied before the batch closed; folded
        # executing adds contributed nothing yet).
        state = materialize_snapshot(coordinator.snapshots.resolve(
            snapshot, coordinator.changelog))
        total = sum(entry["balance"] for (kind, _), entry in state.items()
                    if kind == "Account")
        assert total - 800 == len(snapshot.replied)
        runtime.sim.run(until=runtime.sim.now + 30_000)
        assert all(runtime.entity_state(r)["balance"] == 101 for r in refs)

    def test_rescale_waits_for_pipeline_drain(self, account_program):
        runtime = _runtime(account_program, depth=2,
                           snapshot_interval_ms=250.0)
        refs = runtime.preload(Account, [(f"a{i}", 100) for i in range(12)])
        runtime.start()
        coordinator = runtime.coordinator
        original_begin = coordinator._begin_rescale
        drained_at_begin = []

        def checked_begin(target):
            drained_at_begin.append(not coordinator.inflight)
            original_begin(target)

        coordinator._begin_rescale = checked_begin
        for i, ref in enumerate(refs):
            runtime.sim.schedule_at(
                i * 4.0, lambda r=ref: runtime.submit(r, "add", (1,)))
        runtime.sim.schedule_at(20.0, lambda: runtime.request_rescale(4))
        runtime.sim.run(until=30_000)
        assert coordinator.rescales == 1
        assert drained_at_begin and all(drained_at_begin), (
            "the RESCALE barrier must only fire on a drained pipeline")
        assert runtime.worker_count == 4
        assert all(runtime.entity_state(r)["balance"] == 101 for r in refs)
