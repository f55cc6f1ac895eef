"""Simulated Kafka: partitioning, ordering, offsets, replay, pause,
retention."""

from dataclasses import replace

import pytest

from repro.bench import run_chaos_cell
from repro.faults import random_plan
from repro.runtimes.stateflow import StateflowRuntime
from repro.runtimes.stateflow.coordinator import Coordinator
from repro.runtimes.stateflow.runtime import EGRESS_TOPIC, INGRESS_TOPIC
from repro.substrates import costs
from repro.substrates.kafka import KafkaBroker, KafkaError
from repro.substrates.network import LatencyModel
from repro.substrates.simulation import Simulation


def _broker(partitions=2, fetch_ms=1.0, produce_ms=1.0):
    sim = Simulation(seed=3)
    config = replace(
        costs.MODELLED.kafka,
        produce_latency=LatencyModel(median_ms=produce_ms, sigma=0.0001),
        fetch_latency=LatencyModel(median_ms=fetch_ms, sigma=0.0001))
    broker = KafkaBroker(sim, config)
    broker.create_topic("t", partitions)
    return sim, broker


class TestTopology:
    def test_create_and_partitions(self):
        _, broker = _broker(partitions=3)
        assert broker.partitions("t") == 3

    def test_duplicate_topic_rejected(self):
        _, broker = _broker()
        with pytest.raises(KafkaError):
            broker.create_topic("t", 1)

    def test_unknown_topic_rejected(self):
        _, broker = _broker()
        with pytest.raises(KafkaError):
            broker.produce("ghost", "k", "v")

    def test_zero_partitions_rejected(self):
        _, broker = _broker()
        with pytest.raises(KafkaError):
            broker.create_topic("bad", 0)


class TestProduceConsume:
    def test_same_key_same_partition(self):
        _, broker = _broker(partitions=4)
        assert broker.partition_for("t", "alice") == \
            broker.partition_for("t", "alice")

    def test_per_partition_order_preserved(self):
        sim, broker = _broker(partitions=1, fetch_ms=2.0)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        for index in range(20):
            broker.produce("t", "k", index)
        sim.run()
        assert received == list(range(20))

    def test_deliveries_are_pipelined(self):
        """Throughput must not be limited to one record per fetch
        latency (regression: Figure 4 saturation artefact)."""
        sim, broker = _broker(partitions=1, fetch_ms=5.0, produce_ms=0.1)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(sim.now))
        for _ in range(100):
            broker.produce("t", "k", "v")
        sim.run()
        assert len(received) == 100
        # Serial delivery would need >= 100 * 5ms = 500ms; pipelined
        # delivery completes little after the last produce + one fetch.
        assert sim.now < 60

    def test_two_groups_both_receive(self):
        sim, broker = _broker(partitions=1)
        first, second = [], []
        broker.subscribe("g1", "t", lambda r: first.append(r.value))
        broker.subscribe("g2", "t", lambda r: second.append(r.value))
        broker.produce("t", "k", "v")
        sim.run()
        assert first == ["v"] and second == ["v"]

    def test_groups_receive_a_record_in_subscription_order(self):
        """Not in string-hash order, so one seed gives one schedule in
        every process."""
        sim = Simulation(seed=3)
        broker = KafkaBroker(sim, replace(
            costs.MODELLED.kafka,
            fetch_latency=LatencyModel(median_ms=1.0, sigma=0.0)))
        broker.create_topic("t", 1)
        groups = [f"g{i}" for i in reversed(range(40))]
        delivered = []
        for group in groups:
            broker.subscribe(group, "t",
                             lambda r, g=group: delivered.append(g))
        broker.produce("t", "k", "v")
        sim.run()
        assert delivered == groups

    def test_ack_callback(self):
        sim, broker = _broker(partitions=2)
        acks = []
        broker.produce("t", "key", "v",
                       on_ack=lambda p, o: acks.append((p, o)))
        sim.run()
        assert len(acks) == 1
        partition, offset = acks[0]
        assert offset == 0
        assert partition == broker.partition_for("t", "key")

    def test_subscribe_requires_handler_first_time(self):
        _, broker = _broker()
        with pytest.raises(KafkaError):
            broker.subscribe("g", "t")


class TestOffsetsAndReplay:
    def test_positions_advance(self):
        sim, broker = _broker(partitions=1)
        broker.subscribe("g", "t", lambda r: None)
        for _ in range(5):
            broker.produce("t", "k", "v")
        sim.run()
        assert broker.position("g", "t", 0) == 5
        assert broker.end_offset("t", 0) == 5

    def test_seek_replays(self):
        sim, broker = _broker(partitions=1)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        for index in range(4):
            broker.produce("t", "k", index)
        sim.run()
        broker.seek("g", "t", 0, 1)
        sim.run()
        assert received == [0, 1, 2, 3, 1, 2, 3]

    def test_pause_blocks_and_resume_replays(self):
        sim, broker = _broker(partitions=1)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        broker.produce("t", "k", "early")
        sim.run()
        broker.pause("g")
        broker.produce("t", "k", "while-paused")
        sim.run()
        assert received == ["early"]
        broker.resume("g")
        sim.run()
        assert received == ["early", "while-paused"]

    def test_pause_seek_resume_recovery_pattern(self):
        """The exact sequence snapshot recovery uses."""
        sim, broker = _broker(partitions=1)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        for index in range(6):
            broker.produce("t", "k", index)
        sim.run()
        broker.pause("g")
        broker.seek("g", "t", 0, 2)
        broker.resume("g")
        sim.run()
        assert received == [0, 1, 2, 3, 4, 5, 2, 3, 4, 5]

    def test_counters(self):
        sim, broker = _broker(partitions=1)
        broker.subscribe("g", "t", lambda r: None)
        for _ in range(3):
            broker.produce("t", "k", "v")
        sim.run()
        assert broker.records_produced == 3
        assert broker.records_delivered == 3


def _free_broker(partitions=1, **overrides):
    """A broker whose every cost is exactly zero (the real clock's
    profile), unless *overrides* says otherwise (``produce_latency``,
    ``fetch_latency``, ``broker_cpu_ms``)."""
    sim = Simulation(seed=3)
    broker = KafkaBroker(sim, replace(costs.ZERO.kafka, **overrides))
    broker.create_topic("t", partitions)
    return sim, broker


class TestZeroCostFold:
    """A record whose path costs exactly nothing is appended when it is
    produced and delivered one kernel event later; every other record
    keeps the produce -> append -> commit -> fetch chain."""

    def test_a_free_record_is_delivered_after_one_kernel_event(self):
        sim, broker = _free_broker()
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        for index in range(3):
            broker.produce("t", "k", index)
            assert broker.end_offset("t", 0) == index + 1
            before = sim.processed_events
            assert sim.step()
            assert sim.processed_events - before == 1
            assert received == list(range(index + 1))
            assert sim.pending() == 0
        assert broker.records_produced == broker.records_delivered == 3

    def test_the_fold_delivers_what_the_chain_delivers(self):
        """Each group sees the same ``(partition, offset, key, value)``
        sequence on every partition, also for records produced from
        inside a delivery; a pass-through fault hook forces the chain.
        Kafka orders a partition, not a topic: across partitions the
        chain's order is whichever commit happened to pump first, so
        only a one-partition topic (``s``) is echoed."""

        def run(hook):
            sim, broker = _free_broker(partitions=3)
            broker.fault_hook = hook
            broker.create_topic("s", 1)
            broker.create_topic("u", 2)
            seen: dict[tuple, list] = {}

            def handler(group):
                def handle(record):
                    seen.setdefault(
                        (group, record.topic, record.partition), []).append(
                        (record.offset, record.key, record.value))
                    if group == "g1" and record.topic == "s":
                        broker.produce("u", record.key, record.value * 10)
                return handle

            for group in ("g1", "g2"):
                broker.subscribe(group, "t", handler(group))
                broker.subscribe(group, "s")
                broker.subscribe(group, "u")
            for index in range(12):
                broker.produce("t", f"k{index % 5}", index)
                broker.produce("s", f"k{index % 5}", index)
                if index % 4 == 3:
                    sim.run()
            sim.run()
            return seen, sim.processed_events

        (folded, events), (chained, chain_events) = (
            run(None), run(lambda op, name: None))
        assert folded == chained
        assert sum(map(len, folded.values())) == 2 * 36
        # 36 records, each delivered to two groups: one event per
        # delivery, plus the chain's append and commit per record.
        assert (events, chain_events) == (72, 72 + 2 * 36)

    def test_pause_fences_a_scheduled_free_delivery(self):
        sim, broker = _free_broker()
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        broker.produce("t", "k", "v")
        assert sim.pending() == 1
        broker.pause("g")
        sim.run()
        assert received == []
        broker.resume("g")
        sim.run()
        assert received == ["v"]

    def test_seek_fences_a_scheduled_free_delivery(self):
        sim, broker = _free_broker()
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        for index in range(3):
            broker.produce("t", "k", index)
        sim.run()
        broker.produce("t", "k", 3)
        broker.produce("t", "k", 4)
        broker.seek("g", "t", 0, 1)
        sim.run()
        assert received == [0, 1, 2, 1, 2, 3, 4]
        assert broker.position("g", "t", 0) == 5

    @pytest.mark.parametrize("cost", [
        {"produce_latency": LatencyModel(median_ms=0.5, sigma=0.0)},
        {"fetch_latency": LatencyModel(median_ms=0.5, sigma=0.0)},
        {"produce_latency": LatencyModel(median_ms=0.0, sigma=0.0,
                                         floor_ms=0.01)},
        {"broker_cpu_ms": 0.01},
        {"fault_hook": lambda op, name: None},
        {"on_ack": lambda partition, offset: None},
    ], ids=["produce", "fetch", "floor", "broker-cpu", "fault-hook",
            "on-ack"])
    def test_anything_that_costs_or_observes_keeps_the_chain(self, cost):
        on_ack = cost.pop("on_ack", None)
        hook = cost.pop("fault_hook", None)
        sim, broker = _free_broker(**cost)
        broker.fault_hook = hook
        received = []
        broker.subscribe("g", "t", lambda r: received.append(r.value))
        broker.produce("t", "k", "v", on_ack=on_ack)
        sim.run()
        assert received == ["v"]
        assert sim.processed_events == 3


class TestRetention:
    """``truncate_before`` moves a partition's log start; offsets stay
    absolute, so everything a consumer sees reads as before."""

    def _truncated(self, make_broker=_broker):
        """Ten records delivered to ``g``, then the first six dropped."""
        sim, broker = make_broker(partitions=1)
        received = []
        broker.subscribe("g", "t", lambda r: received.append(
            (r.offset, r.value)))
        for index in range(10):
            broker.produce("t", "k", index)
        sim.run()
        broker.truncate_before("t", 0, 6)
        return sim, broker, received

    @pytest.mark.parametrize("make_broker", [_broker, _free_broker],
                             ids=["chain", "free"])
    def test_offsets_order_and_replay_survive_truncation(self, make_broker):
        sim, broker, received = self._truncated(make_broker)
        assert (broker.start_offset("t", 0), broker.end_offset("t", 0),
                broker.position("g", "t", 0)) == (6, 10, 10)
        for index in range(10, 13):
            broker.produce("t", "k", index)
        sim.run()
        assert received == [(index, index) for index in range(13)]
        assert broker.end_offset("t", 0) == 13
        broker.seek("g", "t", 0, 6)
        sim.run()
        assert received[13:] == [(index, index) for index in range(6, 13)]
        assert broker.position("g", "t", 0) == 13

    def test_a_seek_below_the_log_start_raises(self):
        sim, broker, received = self._truncated()
        with pytest.raises(KafkaError, match="below its log start 6"):
            broker.seek("g", "t", 0, 5)
        sim.run()
        assert broker.position("g", "t", 0) == 10
        assert len(received) == 10

    def test_truncation_moves_the_start_forward_only(self):
        _, broker, _ = self._truncated()
        broker.truncate_before("t", 0, 3)
        assert broker.start_offset("t", 0) == 6
        with pytest.raises(KafkaError, match="past its end"):
            broker.truncate_before("t", 0, 11)
        broker.truncate_before("t", 0, 10)
        assert (broker.start_offset("t", 0),
                broker.end_offset("t", 0)) == (10, 10)

    def test_pause_seek_resume_after_truncation(self):
        """The recovery pattern, against a truncated log."""
        sim, broker, received = self._truncated()
        broker.pause("g")
        broker.produce("t", "k", 10)
        sim.run()
        assert len(received) == 10
        broker.seek("g", "t", 0, 8)
        broker.resume("g")
        sim.run()
        assert received[10:] == [(8, 8), (9, 9), (10, 10)]

    def test_a_new_group_starts_at_the_log_start(self):
        sim, broker, _ = self._truncated()
        late = []
        broker.subscribe("late", "t", lambda r: late.append(r.offset))
        sim.run()
        assert late == [6, 7, 8, 9]
        assert broker.position("late", "t", 0) == 10


#: The CI chaos smoke run (``chaos plan --seed 7 --duration-ms 2000
#: --coordinator-faults``, ``chaos run --seed 7 --duration-ms 2000``)
#: and its trace digest.
CHAOS_SEED = 7
CHAOS_DURATION_MS = 2_000.0
CHAOS_DIGEST = ("cf6f59fdfa72342bf22340a576c191a07e4f6740eb03d8f746721cdbe"
                "5045a00")


def test_stateflow_keeps_only_what_a_retained_cut_can_replay(
        monkeypatch, tmp_path):
    """The durable CI chaos run (worker crashes, message faults, a
    coordinator fail-over) with the runtime trimming its source at
    every cut: after each cut the ingress log starts exactly at the
    lowest offset a retained cut can seek to, egress at what the client
    has consumed, and the run's replies are the committed digest's."""
    runtimes = []
    init, take_snapshot = (StateflowRuntime.__init__,
                           Coordinator._take_snapshot)
    floors = []

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runtimes.append(self)

    def checked_take_snapshot(self):
        take_snapshot(self)
        (runtime,) = [r for r in runtimes if r.coordinator is self]
        broker = runtime.broker
        floor = self.snapshots.floor_source_offsets()
        assert {topic for topic, _ in floor} == {INGRESS_TOPIC}
        for (topic, partition), offset in floor.items():
            assert broker.start_offset(topic, partition) == offset
        for partition in range(broker.partitions(EGRESS_TOPIC)):
            assert broker.start_offset(EGRESS_TOPIC, partition) == \
                broker.position("stateflow-client", EGRESS_TOPIC, partition)
        floors.append(sum(floor.values()))

    monkeypatch.setattr(StateflowRuntime, "__init__", recording_init)
    monkeypatch.setattr(Coordinator, "_take_snapshot", checked_take_snapshot)
    report = run_chaos_cell(
        duration_ms=CHAOS_DURATION_MS, seed=CHAOS_SEED,
        plan=random_plan(CHAOS_SEED, duration_ms=CHAOS_DURATION_MS,
                         coordinator_faults=True),
        durability_dir=str(tmp_path / "state"))
    assert report["trace_digest"] == CHAOS_DIGEST
    assert not report["problems"], report["problems"]
    (runtime,) = runtimes
    assert runtime.coordinator.recoveries >= 1
    assert len(floors) > 2 and floors[-1] > 0, "the run must trim"
