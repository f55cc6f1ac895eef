"""Recovery-equivalence battery: position cuts + changelog replay
must be observationally identical to full-copy snapshots.

For matched (seed, fault plan, rescale plan) runs, a full-mode and an
incremental-mode deployment must produce byte-identical reply traces
and final committed state, with serial batches and with a pipelined
epoch (a cut taken while the next batch executes) — through
coordinator crashes landing right after a base and right after a
position cut, crashes deep in a run of position cuts, and elastic
rescales.

A cut whose changelog span has a gap does not resolve; recovery then
falls back to an older cut, and the run stays exactly-once and
conservative (the rewound source replays the difference).
"""

import pytest

from repro.bench import verify_history
from repro.faults import FaultEvent, FaultPlan, random_plan
from repro.rescale import staged_plan
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import ChangelogStore, SnapshotStore
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

#: Cuts every 150 ms, a base every 3 cuts: crash times can be aimed at
#: a base or at a position cut.
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
        # The incremental run must actually take position cuts.
        kinds = {cut.kind for cut in incremental[2].snapshots.cut_log}
        assert kinds == {"base", "position"}
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
        positions = [cut for cut in incremental[2].snapshots.cut_log
                     if cut.kind == "position"]
        bases = [cut for cut in incremental[2].snapshots.cut_log
                 if cut.kind == "base"]
        assert positions and bases
        assert all(cut.keys == cut.bytes == 0 for cut in positions)
        assert all(cut.keys == 64 for cut in bases)


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
        3rd-cut boundary) and right after a position cut: recovery
        restores a base in one case and folds the changelog over one in
        the other."""
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
        """A crash landing after several position cuts: recovery folds
        the records of several cut intervals over the base."""
        plan = FaultPlan(seed=2, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0),
        ], name="crash-mid-chain")
        full, incremental = assert_equivalent(
            fault_plan=plan, pipeline_depth=pipeline_depth)
        restored_kinds = [cut.kind for cut
                          in incremental[2].snapshots.cut_log]
        assert "position" in restored_kinds


class TestEquivalenceUnderRescale:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_rescale_with_chaos(self, pipeline_depth):
        """2 -> 4 -> 3 live rescales under a message-fault plan."""
        rescale_plan = staged_plan((4, 3), start_ms=400.0,
                                   interval_ms=500.0)
        fault_plan = random_plan(31, duration_ms=1_500.0, workers=2,
                                 process_faults=False)
        full, incremental = assert_equivalent(
            workers=2, rescale_plan=rescale_plan, fault_plan=fault_plan,
            seed=31, pipeline_depth=pipeline_depth)
        assert incremental[2].rescales >= 2
        assert full[2].rescales == incremental[2].rescales

class TestTornSnapshots:
    """A torn cut is one that does not resolve whole: its base is gone
    or its changelog span has a gap, or the span reaches the resolver
    with records delivered twice."""

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_unrepairable_chain_falls_back(self, pipeline_depth,
                                           monkeypatch):
        """With every changelog span reported missing, no position cut
        resolves: recovery must fall back to the newest base — and the
        run must still be exactly-once (replay covers the
        difference)."""
        monkeypatch.setattr(ChangelogStore, "records_between",
                            lambda self, after_seq, up_to_seq: None)
        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0)], name="crash-after-positions")
        trace, state, coordinator, sent, completed, workload = run_once(
            "incremental", fault_plan=plan, pipeline_depth=pipeline_depth)
        assert coordinator.recoveries >= 1
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_duplicated_fragment_is_idempotent(self, pipeline_depth,
                                               monkeypatch):
        """Every changelog span delivered with each record twice: the
        recovery after several position cuts resolves the same state as
        single delivery (records carry absolute post-states), so the
        run matches the full-mode run byte for byte."""
        records_between = ChangelogStore.records_between
        doubled = []

        def twice(self, after_seq, up_to_seq):
            span = records_between(self, after_seq, up_to_seq)
            if span is None:
                return None
            doubled.append(len(span))
            return [record for record in span for _ in range(2)]

        plan = FaultPlan(seed=2, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0)], name="crash-after-positions")
        full = run_once("full", fault_plan=plan,
                        pipeline_depth=pipeline_depth)
        monkeypatch.setattr(ChangelogStore, "records_between", twice)
        incremental = run_once("incremental", fault_plan=plan,
                               pipeline_depth=pipeline_depth)
        assert incremental[2].recoveries >= 1
        assert any(doubled), "no recovery folded a record"
        assert full[0] == incremental[0], "reply traces diverged"
        assert full[1] == incremental[1], "final committed state diverged"

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_torn_events_are_skipped_in_full_mode(self, pipeline_depth,
                                                  monkeypatch):
        """Full mode logs nothing and every cut is its own base, so a
        changelog whose every span has a gap cannot tear a cut: the
        crash recovers from the newest cut, exactly-once."""
        monkeypatch.setattr(ChangelogStore, "records_between",
                            lambda self, after_seq, up_to_seq: None)
        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0)], name="crash-after-positions")
        trace, state, coordinator, sent, completed, workload = run_once(
            "full", fault_plan=plan, pipeline_depth=pipeline_depth)
        assert coordinator.recoveries >= 1
        assert coordinator.changelog.appended == 0
        assert all(cut.kind == "full"
                   for cut in coordinator.snapshots.cut_log)
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    def test_post_fallback_cuts_reanchor_as_bases(self):
        """The restored store starts a new timeline: the next cut is a
        base, whatever the cadence says."""
        store = SnapshotStore(mode="incremental", base_every=4)
        meta = dict(source_offsets={}, replied=set(), batch_seq=0,
                    arrival_seq=0)
        store.take(taken_at_ms=0.0, state={("E", "a"): {"v": 0}},
                   kind=store.next_kind(), **meta)
        assert store.next_kind() == "position"
        store.take(taken_at_ms=1.0, state=None, kind="position", **meta)
        store.rebase()
        assert store.next_kind() == "base"
        taken = store.take(taken_at_ms=2.0, state={("E", "a"): {"v": 2}},
                           kind=store.next_kind(), **meta)
        assert (taken.kind, taken.base_id) == ("base", 2)
        assert store.latest_recoverable()[1] == {("E", "a"): {"v": 2}}
