"""Unit tests for the fault-injection subsystem: plan model, substrate
interception hooks, and injector policy."""

import pytest

from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultPlanError,
    MessageFaultProfile,
    random_plan,
)
from repro.substrates.kafka import FETCH_RETRY_MS, KafkaBroker
from repro.substrates.network import DeliveryFault, Network
from repro.substrates.simulation import Simulation


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = random_plan(13, duration_ms=2_000, workers=3,
                           coordinator_faults=True)
        path = tmp_path / "plan.json"
        plan.to_json(path)
        loaded = FaultPlan.from_json(path)
        assert loaded == plan

    def test_from_json_accepts_inline_text(self):
        plan = random_plan(5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_random_plan_is_seed_deterministic(self):
        assert random_plan(99) == random_plan(99)
        assert random_plan(99) != random_plan(100)

    def test_validation_rejects_bad_probability(self):
        event = FaultEvent(kind="messages", at_ms=0.0,
                           profile=MessageFaultProfile(drop_p=1.5))
        with pytest.raises(FaultPlanError):
            FaultPlan(events=[event]).validate()

    def test_validation_rejects_unknown_kind(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=[FaultEvent(kind="meteor", at_ms=0)]).validate()

    def test_validation_rejects_empty_partition(self):
        with pytest.raises(FaultPlanError):
            FaultPlan(events=[FaultEvent(kind="partition", at_ms=0,
                                         duration_ms=10)]).validate()

    def test_unknown_intensity(self):
        with pytest.raises(FaultPlanError):
            random_plan(1, intensity="apocalyptic")


class TestNetworkHook:
    def test_drop_loses_the_message(self):
        sim = Simulation(seed=1)
        network = Network(sim)
        network.fault_hook = lambda src, dst: DeliveryFault(drop=True)
        delivered = []
        network.send(lambda: delivered.append(1))
        sim.run()
        assert delivered == []
        assert network.messages_dropped == 1

    def test_copies_deliver_duplicates(self):
        sim = Simulation(seed=1)
        network = Network(sim)
        network.fault_hook = lambda src, dst: DeliveryFault(copies=2)
        delivered = []
        network.send(lambda: delivered.append(1))
        sim.run()
        assert len(delivered) == 3
        assert network.messages_duplicated == 2

    def test_delay_spike_postpones_delivery(self):
        sim = Simulation(seed=1)
        fast = Network(sim)
        arrival = {}
        fast.send(lambda: arrival.setdefault("plain", sim.now))
        sim.run()
        sim2 = Simulation(seed=1)
        slow = Network(sim2)
        slow.fault_hook = lambda src, dst: DeliveryFault(extra_delay_ms=50.0)
        slow.send(lambda: arrival.setdefault("spiked", sim2.now))
        sim2.run()
        assert arrival["spiked"] == pytest.approx(arrival["plain"] + 50.0)

    def test_no_hook_is_fault_free(self):
        sim = Simulation(seed=1)
        network = Network(sim)
        delivered = []
        for _ in range(20):
            network.send(lambda: delivered.append(1))
        sim.run()
        assert len(delivered) == 20
        assert network.messages_dropped == 0


class TestKafkaHook:
    def _broker(self, hook):
        sim = Simulation(seed=2)
        broker = KafkaBroker(sim)
        broker.fault_hook = hook
        broker.create_topic("t", 1)
        return sim, broker

    def test_duplicate_produce_appends_two_records(self):
        sim, broker = self._broker(
            lambda op, name: DeliveryFault(copies=1) if op == "produce"
            else None)
        seen = []
        broker.subscribe("g", "t", lambda record: seen.append(record.offset))
        broker.produce("t", key="k", value="v")
        sim.run()
        assert broker.end_offset("t", 0) == 2
        assert seen == [0, 1]  # at-least-once: the reader dedups

    def test_fetch_fault_retries_until_delivered(self):
        rolls = {"count": 0}

        def hook(op, name):
            if op != "fetch":
                return None
            rolls["count"] += 1
            if rolls["count"] <= 3:
                return DeliveryFault(drop=True)
            return None

        sim, broker = self._broker(hook)
        seen = []
        broker.subscribe("g", "t", lambda record: seen.append(record.value))
        broker.produce("t", key="k", value="v")
        sim.run()
        assert seen == ["v"]  # never lost, just late
        assert broker.deliveries_faulted == 3

    def test_delayed_predecessor_does_not_stall_successors(self):
        dropped = {"armed": True}

        def hook(op, name):
            if op == "fetch" and dropped["armed"]:
                dropped["armed"] = False
                return DeliveryFault(drop=True,
                                     extra_delay_ms=20 * FETCH_RETRY_MS)
            return None

        sim, broker = self._broker(hook)
        seen = []
        broker.subscribe("g", "t", lambda record: seen.append(record.offset))
        for index in range(3):
            broker.produce("t", key="k", value=index)
        sim.run()
        assert seen == [0, 1, 2]  # offset order survives the delay


class TestInjectorPolicy:
    def _window_plan(self, **profile):
        return FaultPlan(seed=3, events=[FaultEvent(
            kind="messages", at_ms=0.0, duration_ms=1_000.0,
            channel="network", profile=MessageFaultProfile(**profile))])

    def test_network_duplicates_are_suppressed(self):
        """Direct channels model sequenced transports: a duplicate roll
        must never produce copies."""
        sim = Simulation(seed=3)
        network = Network(sim)
        injector = FaultInjector(self._window_plan(duplicate_p=1.0),
                                 sim=sim, network=network).install()
        delivered = []
        for _ in range(10):
            network.send(lambda: delivered.append(1))
        sim.run()
        assert len(delivered) == 10
        assert injector.stats.duplicates_suppressed == 10

    def test_window_scopes_faults_in_time(self):
        sim = Simulation(seed=3)
        network = Network(sim)
        FaultInjector(self._window_plan(drop_p=1.0),
                      sim=sim, network=network).install()
        inside, outside = [], []
        network.send(lambda: inside.append(1))
        sim.schedule(2_000.0,
                     lambda: network.send(lambda: outside.append(1)))
        sim.run()
        assert inside == []      # inside the window: dropped
        assert outside == [1]    # window expired: delivered

    def test_partition_isolates_named_nodes_both_ways(self):
        plan = FaultPlan(seed=4, events=[FaultEvent(
            kind="partition", at_ms=0.0, duration_ms=100.0,
            isolate=("worker-1",))])
        sim = Simulation(seed=4)
        network = Network(sim)
        # A coordinator (any named node) marks the fabric as labeled;
        # without one, partitions are skipped as physical no-ops.
        injector = FaultInjector(plan, sim=sim, network=network,
                                 coordinator=object()).install()
        delivered = []
        sim.schedule(1.0, lambda: (
            network.send(lambda: delivered.append("in"),
                         src="coordinator", dst="worker-1"),
            network.send(lambda: delivered.append("out"),
                         src="worker-1", dst="coordinator"),
            network.send(lambda: delivered.append("bystander"),
                         src="coordinator", dst="worker-2")))
        sim.schedule(200.0, lambda: network.send(
            lambda: delivered.append("healed"),
            src="coordinator", dst="worker-1"))
        sim.run()
        assert sorted(delivered) == ["bystander", "healed"]
        assert injector.stats.partition_drops == 2
        assert injector.stats.partitions_healed == 1

    def test_process_faults_skipped_without_hosts(self):
        plan = FaultPlan(seed=5, events=[
            FaultEvent(kind="crash_worker", at_ms=1.0, worker=0),
            FaultEvent(kind="crash_coordinator", at_ms=1.0,
                       duration_ms=10.0),
            FaultEvent(kind="partition", at_ms=1.0, duration_ms=10.0,
                       isolate=("worker-0",))])
        sim = Simulation(seed=5)
        injector = FaultInjector(plan, sim=sim,
                                 network=Network(sim)).install()
        sim.run()
        # The partition is also a no-op: no named nodes -> no src/dst
        # labels on sends -> it must not fabricate disruption data.
        assert injector.stats.skipped_events == 3
        assert injector.stats.worker_crashes == 0
        assert injector.stats.disruption_times_ms == []

    def test_a_torn_snapshot_plan_is_refused(self):
        """Cuts are changelog positions: there is no in-flight fragment
        to tear, so a plan naming the old kind is malformed."""
        with pytest.raises(FaultPlanError, match="torn_snapshot"):
            FaultPlan.from_dict({"seed": 9, "events": [
                {"kind": "torn_snapshot", "at_ms": 1.0}]})

    def test_kafka_duplicates_respect_dedup_safe_topics(self):
        plan = FaultPlan(seed=6, events=[FaultEvent(
            kind="messages", at_ms=0.0, duration_ms=1_000.0,
            channel="kafka",
            profile=MessageFaultProfile(duplicate_p=1.0))])
        sim = Simulation(seed=6)
        broker = KafkaBroker(sim)
        broker.create_topic("ingress", 1)
        broker.create_topic("loopback", 1)
        FaultInjector(plan, sim=sim, broker=broker,
                      duplicable_topics=("ingress",)).install()
        broker.produce("ingress", key="k", value="v")
        broker.produce("loopback", key="k", value="v")
        sim.run()
        assert broker.end_offset("ingress", 0) == 2
        assert broker.end_offset("loopback", 0) == 1


class TestLocalReordering:
    def test_reordering_is_deterministic_and_state_preserving(self):
        from repro import compile_program
        from repro.runtimes import LocalRuntime

        import zoo

        program = compile_program(zoo.ZOO_ENTITIES)
        plan = FaultPlan(seed=8, events=[FaultEvent(
            kind="messages", at_ms=0.0, duration_ms=1_000.0,
            profile=MessageFaultProfile(delay_p=0.5))])

        def run():
            runtime = LocalRuntime(program, fault_plan=plan)
            counter = runtime.create("Counter", "c1")
            zoo_ref = runtime.create("Zoo", "z1")
            values = [runtime.call(zoo_ref, "loop_for", counter, 4),
                      runtime.call(zoo_ref, "straight", counter, 2)]
            return values, runtime.entity_state(counter)

        assert run() == run()
