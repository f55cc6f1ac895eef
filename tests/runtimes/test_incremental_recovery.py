"""Recovery-equivalence battery: position cuts + changelog replay
must be observationally identical to cuts that are all bases.

For matched (seed, fault plan, rescale plan) runs, a deployment whose
every cut is a base (``snapshot_base_every=1``) and one that takes
position cuts between bases must produce byte-identical reply traces
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
from repro.faults import FaultEvent, FaultPlan, random_plan, staged_plan
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.runtimes.stateflow.snapshots import ChangelogStore, SnapshotStore
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

#: Cuts every 150 ms, a base every 3 cuts: crash times can be aimed at
#: a base or at a position cut.
SNAPSHOT_INTERVAL_MS = 150.0
BASE_EVERY = 3
#: The cadence the battery compares against: every cut a base.
ALL_BASES = 1
#: Serial batches, and one batch executing while the previous commits.
DEPTHS = (1, 2)


def run_once(base_every, *, seed=11, fault_plan=None,
             workers=3, pipeline_depth=2, rps=150.0, duration_ms=1_500.0,
             records=24):
    """One deterministic run; returns (trace, final_state, coordinator,
    sent, completed, workload)."""
    config = StateflowConfig(
        workers=workers, fault_plan=fault_plan,
        coordinator=CoordinatorConfig(
            pipeline_depth=pipeline_depth,
            snapshot_interval_ms=SNAPSHOT_INTERVAL_MS,
            failure_detect_ms=200.0,
            snapshot_base_every=base_every,
            snapshot_footprints=True))
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
    """All-base and position-cut runs of one scenario must match byte
    for byte, and both must satisfy the serial oracle."""
    all_bases = run_once(ALL_BASES, **kwargs)
    mixed = run_once(BASE_EVERY, **kwargs)
    assert all_bases[0] == mixed[0], "reply traces diverged"
    assert all_bases[1] == mixed[1], "final committed state diverged"
    for trace, state, _, sent, completed, workload in (all_bases, mixed):
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems
    return all_bases, mixed


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_cadences_agree_without_faults(self, pipeline_depth):
        all_bases, mixed = assert_equivalent(pipeline_depth=pipeline_depth)
        # The mixed run must actually take position cuts.
        kinds = {cut.kind for cut in mixed[2].snapshots.cut_log}
        assert kinds == {"base", "position"}
        assert all(cut.kind == "base"
                   for cut in all_bases[2].snapshots.cut_log)
        # Both runs fed the changelog one record per writing batch (and
        # then compacted it down by the idle drain's cut cadence —
        # retained cuts stop needing old records), whatever the cadence.
        assert mixed[2].changelog.appended > 0
        assert all_bases[2].changelog.appended \
            == mixed[2].changelog.appended

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_incremental_cuts_are_smaller(self, pipeline_depth):
        _, mixed = assert_equivalent(records=64, rps=80.0,
                                     pipeline_depth=pipeline_depth)
        positions = [cut for cut in mixed[2].snapshots.cut_log
                     if cut.kind == "position"]
        bases = [cut for cut in mixed[2].snapshots.cut_log
                 if cut.kind == "base"]
        assert positions and bases
        assert all(cut.keys == cut.bytes == 0 for cut in positions)
        assert all(cut.keys == 64 for cut in bases)


class TestEquivalenceUnderChaos:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_random_chaos_plan(self, pipeline_depth):
        plan = random_plan(23, duration_ms=1_500.0, workers=3,
                           coordinator_faults=True)
        all_bases, mixed = assert_equivalent(fault_plan=plan, seed=23,
                                             pipeline_depth=pipeline_depth)
        assert mixed[2].recoveries >= 1, (
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
        all_bases, mixed = assert_equivalent(
            fault_plan=plan, pipeline_depth=pipeline_depth)
        assert mixed[2].failovers == 2

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_crash_mid_compaction_chain(self, pipeline_depth):
        """A crash landing after several position cuts: recovery folds
        the records of several cut intervals over the base."""
        plan = FaultPlan(seed=2, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0),
        ], name="crash-mid-chain")
        all_bases, mixed = assert_equivalent(
            fault_plan=plan, pipeline_depth=pipeline_depth)
        restored_kinds = [cut.kind for cut
                          in mixed[2].snapshots.cut_log]
        assert "position" in restored_kinds


class TestEquivalenceUnderRescale:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_rescale_with_chaos(self, pipeline_depth):
        """2 -> 4 -> 3 live rescales under a message-fault plan."""
        fault_plan = staged_plan(
            (4, 3), start_ms=400.0, interval_ms=500.0,
            faults=random_plan(31, duration_ms=1_500.0, workers=2,
                               process_faults=False))
        all_bases, mixed = assert_equivalent(
            workers=2, fault_plan=fault_plan,
            seed=31, pipeline_depth=pipeline_depth)
        assert mixed[2].rescales >= 2
        assert all_bases[2].rescales == mixed[2].rescales

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
            BASE_EVERY, fault_plan=plan, pipeline_depth=pipeline_depth)
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
        run matches the all-base run byte for byte."""
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
        all_bases = run_once(ALL_BASES, fault_plan=plan,
                        pipeline_depth=pipeline_depth)
        monkeypatch.setattr(ChangelogStore, "records_between", twice)
        mixed = run_once(BASE_EVERY, fault_plan=plan,
                               pipeline_depth=pipeline_depth)
        assert mixed[2].recoveries >= 1
        assert any(doubled), "no recovery folded a record"
        assert all_bases[0] == mixed[0], "reply traces diverged"
        assert all_bases[1] == mixed[1], "final committed state diverged"

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_torn_events_are_skipped_when_every_cut_is_a_base(
            self, pipeline_depth, monkeypatch):
        """With every cut its own base no cut resolves through the
        changelog, so a changelog whose every span has a gap cannot tear
        a cut: the crash recovers from the newest cut, exactly-once."""
        monkeypatch.setattr(ChangelogStore, "records_between",
                            lambda self, after_seq, up_to_seq: None)
        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="crash_coordinator",
                       at_ms=5 * SNAPSHOT_INTERVAL_MS + 40.0,
                       duration_ms=80.0)], name="crash-after-positions")
        trace, state, coordinator, sent, completed, workload = run_once(
            ALL_BASES, fault_plan=plan, pipeline_depth=pipeline_depth)
        assert coordinator.recoveries >= 1
        assert all(cut.kind == "base"
                   for cut in coordinator.snapshots.cut_log)
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems

    def test_post_fallback_cuts_reanchor_as_bases(self):
        """The restored store starts a new timeline: the next cut is a
        base, whatever the cadence says."""
        store = SnapshotStore(base_every=4)
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
