"""Unit-level behaviour of the elastic rescale protocol: request
clamping, no-op elision, retired-worker lifecycle, snapshot/restore of
the routing table, the fault-plan integration, and coordinator crashes
mid-rescale."""

import pytest

from repro.bench import chaos_coordinator_config
from repro.faults import (FaultEvent, FaultInjector, FaultPlan,
                          FaultPlanError, random_plan, staged_plan)
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.workloads import Account


def _runtime(account_program, **config):
    config.setdefault("workers", 2)
    config.setdefault("coordinator", chaos_coordinator_config())
    return StateflowRuntime(account_program,
                            config=StateflowConfig(**config))


def _drive(runtime, count=6, spacing=80.0):
    refs = runtime.preload(Account, [(f"a{i}", 100) for i in range(6)])
    runtime.start()
    done = []
    for index in range(count):
        runtime.sim.schedule_at(
            index * spacing,
            lambda s=index % 6: runtime.submit(
                refs[s], "add", (1,),
                on_reply=lambda reply: done.append(reply.request_id)))
    return refs, done


class TestRequestHandling:
    def test_noop_target_is_elided(self, account_program):
        runtime = _runtime(account_program)
        runtime.request_rescale(2)  # already 2 workers
        runtime.start()
        runtime.sim.run(until=2_000)
        assert runtime.coordinator.rescales == 0
        assert runtime.coordinator.rescale_log == []

    def test_targets_clamped_to_slot_count(self, account_program):
        runtime = _runtime(account_program, state_slots=8)
        runtime.request_rescale(10_000)
        runtime.request_rescale(0)
        runtime.start()
        runtime.sim.run(until=3_000)
        # 10_000 clamps to 8 slots; 0 clamps to 1.
        assert [r.to_workers for r in runtime.coordinator.rescale_log] \
            == [8, 1]
        assert runtime.worker_count == 1

    def test_crashed_coordinator_ignores_rescale_requests(self,
                                                          account_program):
        runtime = _runtime(account_program)
        runtime.start()
        runtime.sim.run(until=50)
        runtime.coordinator.crash()
        runtime.request_rescale(4)
        assert runtime.coordinator._rescale_requests == []

    def test_sequential_requests_apply_in_order(self, account_program):
        runtime = _runtime(account_program)
        runtime.request_rescale(5)
        runtime.request_rescale(3)
        runtime.start()
        runtime.sim.run(until=3_000)
        assert [r.to_workers for r in runtime.coordinator.rescale_log] \
            == [5, 3]
        assert runtime.worker_count == 3


class TestWorkerLifecycle:
    def test_shrink_retires_then_grow_revives(self, account_program):
        runtime = _runtime(account_program, workers=4)
        runtime.start()
        runtime.request_rescale(2)
        runtime.sim.run(until=1_000)
        assert [w.retired for w in runtime.workers] == [False, False,
                                                        True, True]
        assert [w.alive for w in runtime.workers] == [True, True,
                                                      False, False]
        incarnation_before = runtime.workers[3].incarnation
        runtime.request_rescale(4)
        runtime.sim.run(until=2_000)
        assert all(not w.retired and w.alive for w in runtime.workers)
        assert runtime.workers[3].incarnation > incarnation_before, (
            "a revived worker must fence deliveries addressed to its "
            "retired incarnation")

    def test_retired_workers_stay_dead_across_recovery(self,
                                                       account_program):
        runtime = _runtime(account_program, workers=4)
        runtime.start()
        runtime.request_rescale(2)
        runtime.sim.run(until=1_000)
        runtime.coordinator.recover()
        runtime.sim.run(until=2_000)
        assert [w.alive for w in runtime.workers] == [True, True,
                                                      False, False]

    def test_grow_creates_new_worker_objects(self, account_program):
        runtime = _runtime(account_program, workers=2)
        runtime.start()
        runtime.request_rescale(5)
        runtime.sim.run(until=1_000)
        assert len(runtime.workers) == 5
        assert all(w.index == i for i, w in enumerate(runtime.workers))
        # The fault injector's worker list reference follows along.
        assert runtime.worker_count == 5

    def test_migration_counters_tick(self, account_program):
        runtime = _runtime(account_program, workers=2)
        runtime.preload(Account, [(f"a{i}", 10) for i in range(12)])
        runtime.start()
        runtime.request_rescale(4)
        runtime.sim.run(until=1_000)
        captured = sum(w.slots_captured for w in runtime.workers)
        installed = sum(w.slots_installed for w in runtime.workers)
        assert captured == installed == \
            runtime.coordinator.slots_migrated > 0


class TestSnapshotAssignment:
    def test_snapshot_carries_routing_table(self, account_program):
        runtime = _runtime(account_program)
        runtime.start()
        runtime.request_rescale(4)
        runtime.sim.run(until=1_000)
        snapshot = runtime.coordinator.snapshots.latest()
        assert snapshot.assignment is not None
        workers, owners = snapshot.assignment
        assert workers == 4
        assert owners == tuple(runtime.committed.assignment.owners)

    def test_failover_restores_post_rescale_topology(self, account_program):
        """A coordinator crash after a rescale must not forget it: the
        standby recovers the post-rescale routing table from the
        snapshot taken at rescale commit."""
        runtime = _runtime(account_program)
        runtime.start()
        runtime.request_rescale(4)
        runtime.sim.run(until=1_000)
        assert runtime.worker_count == 4
        runtime.fail_coordinator()
        runtime.sim.run(until=3_000)
        assert runtime.coordinator.failovers == 1
        assert runtime.worker_count == 4
        assert runtime.committed.assignment.workers == 4

    def test_coordinator_crash_mid_rescale_drops_the_intent(
            self, account_program):
        """Rescale intents are volatile: a crash wipes the queue, and
        the fail-over comes back on the pre-rescale topology (the last
        durable snapshot)."""
        runtime = _runtime(account_program)
        runtime.start()
        runtime.sim.run(until=100)

        # Queue a rescale and crash before the next batch tick can run it.
        runtime.coordinator.request_rescale(4)
        runtime.coordinator.crash()
        runtime.sim.schedule(50.0, runtime.coordinator.failover)
        runtime.sim.run(until=3_000)
        assert runtime.coordinator.rescales == 0
        assert runtime.worker_count == 2


class TestFaultPlanIntegration:
    def test_rescale_event_drives_the_coordinator(self, account_program):
        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="rescale", at_ms=200.0, target_workers=4)])
        runtime = _runtime(account_program, fault_plan=plan)
        _refs, _done = _drive(runtime)
        runtime.sim.run(until=3_000)
        assert runtime.faults.stats.rescales_requested == 1
        assert runtime.coordinator.rescales == 1
        assert runtime.worker_count == 4

    def test_statefun_skips_rescale_events(self, account_program):
        from repro.runtimes.statefun import StatefunConfig, StatefunRuntime

        plan = FaultPlan(seed=1, events=[
            FaultEvent(kind="rescale", at_ms=100.0, target_workers=4)])
        runtime = StatefunRuntime(account_program,
                                  config=StatefunConfig(fault_plan=plan))
        runtime.create(Account, "a", 1)
        runtime.sim.run(until=1_000)
        assert runtime.faults.stats.skipped_events == 1
        assert runtime.faults.stats.rescales_requested == 0

    def test_rescale_event_validation(self):
        with pytest.raises(FaultPlanError, match="target_workers"):
            FaultEvent(kind="rescale", at_ms=0.0).validate()

    def test_random_plan_rescales_round_trip(self):
        plan = random_plan(9, workers=4, rescales=2)
        events = [e for e in plan.events if e.kind == "rescale"]
        assert len(events) == 2
        assert all(e.target_workers >= 1 for e in events)
        clone = FaultPlan.from_json(plan.to_json())
        assert clone.to_dict() == plan.to_dict()

    def test_random_plan_without_rescales_is_unchanged(self):
        """Adding the rescales knob must not perturb existing seeded
        schedules (the determinism regressions depend on them)."""
        assert random_plan(17).to_dict() == \
            random_plan(17, rescales=0).to_dict()

    def test_a_resize_already_due_fires_at_once(self):
        """A plan installed on a clock past a resize's time asks for it
        at the current time instead of refusing to schedule the past."""
        from repro.substrates.simulation import Simulation

        sim = Simulation()
        sim.schedule(100.0, lambda: None)
        sim.run()
        asked: list[tuple[float, int]] = []
        FaultInjector(staged_plan((4,), start_ms=50.0), sim=sim,
                      rescaler=lambda workers: asked.append(
                          (sim.now, workers))).install()
        sim.run()
        assert asked == [(100.0, 4)]


class TestStagedPlan:
    def test_round_trip(self, tmp_path):
        plan = staged_plan((4, 3), start_ms=250.0, interval_ms=500.0)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        clone = FaultPlan.from_json(path)
        assert clone.to_dict() == plan.to_dict()
        assert clone.name == "staged-4-3"
        assert [(event.kind, event.at_ms, event.target_workers)
                for event in clone.events] == [("rescale", 250.0, 4),
                                               ("rescale", 750.0, 3)]

    def test_faults_follow_the_resizes_under_their_seed(self):
        crash = FaultEvent(kind="crash_worker", at_ms=100.0, worker=1)
        plan = staged_plan((3,), faults=FaultPlan(seed=9, events=[crash]))
        assert plan.seed == 9
        assert [event.kind for event in plan.events] == ["rescale",
                                                          "crash_worker"]

    def test_validation(self):
        with pytest.raises(FaultPlanError):
            staged_plan((2,), start_ms=-1.0)
        with pytest.raises(FaultPlanError):
            staged_plan((0,))
