"""Recovery-equivalence battery: incremental snapshots + changelog
replay must be observationally identical to full-copy snapshots.

For matched (seed, fault plan, rescale plan) runs, a full-mode and an
incremental-mode deployment must produce byte-identical reply traces
and final committed state, with serial batches and with a pipelined
epoch (a cut taken while the next batch executes) — through
coordinator crashes landing between base and delta cuts, crashes while
the chain is mid-compaction (deep in a delta run), and elastic rescales
whose slot migrations ship base+delta fragments.

Torn-snapshot chaos (a delta fragment dropped or duplicated in flight)
is incremental-only by construction, so those scenarios assert the
recovery contract instead: the watchdog repairs the chain through the
commit changelog, or falls back to the last complete chain, and the run
stays exactly-once and conservative either way.
"""

import pytest

from repro.bench import verify_history
from repro.faults import FaultEvent, FaultPlan, random_plan
from repro.rescale import staged_plan
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import ChangelogStore
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

#: Cuts every 150 ms, a base every 3 cuts: crash times can be aimed at
#: specific chain positions (between base and delta, mid-chain).
SNAPSHOT_INTERVAL_MS = 150.0
BASE_EVERY = 3
#: Serial batches, and one batch executing while the previous commits.
DEPTHS = (1, 2)


def run_once(mode, *, seed=11, fault_plan=None, rescale_plan=None,
             workers=3, pipeline_depth=2, rps=150.0, duration_ms=1_500.0,
             records=24):
    """One deterministic run; returns (trace, final_state, coordinator,
    sent, completed, workload)."""
    config = StateflowConfig(
        workers=workers, snapshot_mode=mode,
        fault_plan=fault_plan, rescale_plan=rescale_plan,
        coordinator=CoordinatorConfig(
            pipeline_depth=pipeline_depth,
            snapshot_interval_ms=SNAPSHOT_INTERVAL_MS,
            failure_detect_ms=200.0,
            snapshot_base_every=BASE_EVERY))
    from repro.substrates.simulation import Simulation
    runtime = StateflowRuntime(run_once.program, sim=Simulation(seed=seed),
                              config=config)
    trace = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error))
    workload = YcsbWorkload("T", record_count=records,
                            distribution="uniform", seed=seed + 1,
                            initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=25_000.0, seed=seed + 2))
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + 25_000.0)
    state = materialize_snapshot(runtime.committed.snapshot())
    return (trace, state, runtime.coordinator, result.sent,
            driver.completed, workload)


@pytest.fixture(autouse=True)
def _program(account_program):
    run_once.program = account_program


def assert_equivalent(**kwargs):
    """Full and incremental runs of one scenario must match byte for
    byte, and both must satisfy the serial oracle."""
    full = run_once("full", **kwargs)
    incremental = run_once("incremental", **kwargs)
    assert full[0] == incremental[0], "reply traces diverged"
    assert full[1] == incremental[1], "final committed state diverged"
    for trace, state, _, sent, completed, workload in (full, incremental):
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems
    return full, incremental


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_modes_agree_without_faults(self, pipeline_depth):
        full, incremental = assert_equivalent(pipeline_depth=pipeline_depth)
        # The incremental run must actually exercise the delta path.
        kinds = {cut.kind for cut in incremental[2].snapshots.cut_log}
        assert kinds >= {"base", "delta"}
        assert all(cut.kind == "full"
                   for cut in full[2].snapshots.cut_log)
        # The changelog was fed (and then compacted down by the idle
        # drain's cut cadence — retained cuts stop needing old records).
        assert incremental[2].changelog.appended > 0
        assert full[2].changelog.appended == 0

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_incremental_cuts_are_smaller(self, pipeline_depth):
        _, incremental = assert_equivalent(records=64, rps=80.0,
                                            pipeline_depth=pipeline_depth)
        deltas = [cut for cut in incremental[2].snapshots.cut_log
                  if cut.kind == "delta"]
        bases = [cut for cut in incremental[2].snapshots.cut_log
                 if cut.kind == "base"]
        assert deltas and bases
        assert (sum(cut.keys for cut in deltas) / len(deltas)
                < sum(cut.keys for cut in bases) / len(bases))


class TestEquivalenceUnderChaos:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_random_chaos_plan(self, pipeline_depth):
        plan = random_plan(23, duration_ms=1_500.0, workers=3,
                           coordinator_faults=True)
        full, incremental = assert_equivalent(fault_plan=plan, seed=23,
                                              pipeline_depth=pipeline_depth)
        assert incremental[2].recoveries >= 1, (
            "the plan must actually force recovery")

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_crash_between_base_and_delta_cuts(self, pipeline_depth):
        """Fail-overs aimed right after a base cut (~10 ms past the
        3rd-cut boundary) and right after a delta cut: recovery resolves
        a chain whose head is a base in one case and a delta in the
        other."""
        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=3 * SNAPSHOT_INTERVAL_MS + 10.0,
                       duration_ms=60.0),
            FaultEvent(kind="crash_coordinator",
                       at_ms=7 * SNAPSHOT_INTERVAL_MS + 10.0,
                       duration_ms=60.0),
        ], name="crash-at-cut-boundaries")
        full, incremental = assert_equivalent(
            fault_plan=plan, pipeline_depth=pipeline_depth)
        assert incremental[2].failovers == 2

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_crash_mid_compaction_chain(self, pipeline_depth):
        """A deep delta chain (base_every cuts between bases) with the
        crash landing mid-chain: recovery replays base + several
        deltas."""
        plan = FaultPlan(seed=2, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0),
        ], name="crash-mid-chain")
        full, incremental = assert_equivalent(
            fault_plan=plan, pipeline_depth=pipeline_depth)
        restored_kinds = [cut.kind for cut
                          in incremental[2].snapshots.cut_log]
        assert "delta" in restored_kinds


class TestEquivalenceUnderRescale:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_rescale_with_chaos(self, pipeline_depth):
        """2 -> 4 -> 3 live rescales (slot migrations ship base+delta in
        incremental mode) under a message-fault plan."""
        rescale_plan = staged_plan((4, 3), start_ms=400.0,
                                   interval_ms=500.0)
        fault_plan = random_plan(31, duration_ms=1_500.0, workers=2,
                                 process_faults=False)
        full, incremental = assert_equivalent(
            workers=2, rescale_plan=rescale_plan, fault_plan=fault_plan,
            seed=31, pipeline_depth=pipeline_depth)
        assert incremental[2].rescales >= 2
        assert full[2].rescales == incremental[2].rescales

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_incremental_migration_ships_deltas(self, account_program,
                                                pipeline_depth):
        """Slots migrated under incremental mode travel as base+delta
        fragments, not full copies."""
        config = StateflowConfig(
            workers=2, snapshot_mode="incremental",
            rescale_plan=staged_plan((4,), start_ms=500.0,
                                     interval_ms=500.0),
            coordinator=CoordinatorConfig(
                pipeline_depth=pipeline_depth,
                snapshot_interval_ms=SNAPSHOT_INTERVAL_MS,
                snapshot_base_every=BASE_EVERY))
        runtime = StateflowRuntime(account_program, config=config)
        workload = YcsbWorkload("T", record_count=24,
                                distribution="uniform", seed=3,
                                initial_balance=1_000)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=100.0, duration_ms=1_200.0, warmup_ms=0.0,
            drain_ms=25_000.0, seed=4))
        driver.run()
        assert runtime.coordinator.rescales == 1
        assert runtime.migration_delta_slots > 0
        assert runtime.migration_full_slots == 0


class TestTornSnapshots:
    def _torn_plan(self, *, variant="drop", crash_after=True):
        events = [FaultEvent(kind="torn_snapshot",
                             at_ms=4 * SNAPSHOT_INTERVAL_MS + 20.0,
                             variant=variant)]
        if crash_after:
            # Crash while the torn cut is the latest: recovery must
            # repair or fall back.
            events.append(FaultEvent(kind="crash_coordinator",
                                     at_ms=5 * SNAPSHOT_INTERVAL_MS + 30.0,
                                     duration_ms=60.0))
        return FaultPlan(seed=5, events=events, name="torn")

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_changelog_repairs_a_torn_chain(self, pipeline_depth):
        trace, state, coordinator, sent, completed, workload = run_once(
            "incremental", fault_plan=self._torn_plan(),
            pipeline_depth=pipeline_depth)
        assert coordinator.snapshots.snapshots_torn >= 1
        assert (coordinator.snapshots.changelog_repairs
                + coordinator.snapshots.chain_fallbacks) >= 1
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_unrepairable_chain_falls_back(self, pipeline_depth,
                                           monkeypatch):
        """When the changelog cannot cover a torn cut there is nothing
        to repair with: the watchdog must fall back to the last complete
        chain — and the run must still be exactly-once (replay covers
        the difference)."""
        monkeypatch.setattr(ChangelogStore, "records_between",
                            lambda self, after_seq, up_to_seq: None)
        trace, state, coordinator, sent, completed, workload = run_once(
            "incremental", fault_plan=self._torn_plan(),
            pipeline_depth=pipeline_depth)
        assert coordinator.snapshots.snapshots_torn >= 1
        assert coordinator.snapshots.chain_fallbacks >= 1
        assert coordinator.snapshots.changelog_repairs == 0
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_duplicated_fragment_is_idempotent(self, pipeline_depth):
        """A duplicated delta fragment resolves to the same state as the
        original would have: replay applies absolute states twice."""
        trace, state, coordinator, sent, completed, workload = run_once(
            "incremental", fault_plan=self._torn_plan(variant="duplicate"),
            pipeline_depth=pipeline_depth)
        assert coordinator.snapshots.snapshots_torn >= 1
        # A duplicated fragment still resolves: no fallback needed.
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_torn_events_are_skipped_in_full_mode(self, pipeline_depth):
        _, _, coordinator, _, _, _ = run_once(
            "full", fault_plan=self._torn_plan(crash_after=False),
            pipeline_depth=pipeline_depth)
        assert coordinator.snapshots.snapshots_torn == 0

    def test_post_fallback_cuts_reanchor_as_bases(self):
        """Regression: after recovery falls back past a torn cut, the
        next cut must be a base — chaining it to the torn parent would
        leave every later delta cut unresolvable, so each further crash
        would keep rewinding to the old pre-torn state."""
        from repro.runtimes.state import StateDelta
        from repro.runtimes.stateflow.snapshots import SnapshotStore

        store = SnapshotStore(mode="incremental", base_every=4)
        meta = dict(source_offsets={}, replied=set(), batch_seq=0,
                    arrival_seq=0)
        store.take(taken_at_ms=0.0, state={("E", "a"): {"v": 0}},
                   kind="base", **meta)
        store.arm_torn("drop")
        store.take(taken_at_ms=1.0,
                   state=StateDelta(layers=({("E", "a"): {"v": 1}},)),
                   kind="delta", **meta)
        # First recovery: the torn head falls back to the base.
        snapshot, payload = store.latest_recoverable(None)
        assert snapshot.snapshot_id == 0
        assert store.chain_fallbacks == 1
        store.reset_chain()  # what coordinator.recover() now does
        assert store.next_kind() == "base"
        store.take(taken_at_ms=2.0, state={("E", "a"): {"v": 2}},
                   kind=store.next_kind(), **meta)
        # A second recovery restores the new base, not the old one.
        snapshot, payload = store.latest_recoverable(None)
        assert snapshot.snapshot_id == 2
        assert payload == {("E", "a"): {"v": 2}}
        assert store.chain_fallbacks == 1, "no further fallback"
