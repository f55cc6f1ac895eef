"""StateFlow runtime: transactions, serializability, architecture."""

import hashlib

import pytest

from repro.core.refs import EntityRef
from repro.faults import FaultEvent, FaultPlan
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


class TestSemantics:
    def test_figure1_flow(self, shop_program):
        runtime = StateflowRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        runtime.call(apple, "update_stock", 10)
        alice = runtime.create("User", "alice")
        assert runtime.call(alice, "buy_item", 2, apple) is True
        assert runtime.entity_state(alice)["balance"] == 94
        assert runtime.entity_state(apple)["stock"] == 8

    def test_error_propagates(self, shop_program):
        runtime = StateflowRuntime(shop_program)
        result = runtime.invoke(EntityRef("Item", "ghost"), "price")
        assert not result.ok

    def test_failed_txn_commits_nothing(self, shop_program):
        runtime = StateflowRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        result = runtime.invoke(apple, "update_stock", "boom")
        assert not result.ok
        assert runtime.entity_state(apple)["stock"] == 0

    def test_preload_before_start(self, account_program):
        runtime = StateflowRuntime(account_program)
        refs = runtime.preload(Account, [("a1", 5)])
        runtime.start()
        assert runtime.call(refs[0], "read") == 5

    def test_preload_after_start_rejected(self, account_program):
        runtime = StateflowRuntime(account_program)
        runtime.start()
        with pytest.raises(Exception):
            runtime.preload(Account, [("a1", 5)])

    def test_transfer_moves_money(self, account_program):
        runtime = StateflowRuntime(account_program)
        a, b = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        assert runtime.call(a, "transfer", 30, b) is True
        assert runtime.entity_state(a)["balance"] == 70
        assert runtime.entity_state(b)["balance"] == 130

    def test_insufficient_funds_transfer(self, account_program):
        runtime = StateflowRuntime(account_program)
        a, b = runtime.preload(Account, [("a", 10), ("b", 0)])
        runtime.start()
        assert runtime.call(a, "transfer", 30, b) is False
        assert runtime.entity_state(a)["balance"] == 10
        assert runtime.entity_state(b)["balance"] == 0


class TestSerializability:
    def _run_transfers(self, account_program, *, records=40, rps=400,
                       duration=3000, seed=5, **coord_overrides):
        config = StateflowConfig()
        for name, value in coord_overrides.items():
            setattr(config.coordinator, name, value)
        runtime = StateflowRuntime(account_program, config=config)
        workload = YcsbWorkload("T", record_count=records,
                                distribution="zipfian", seed=seed,
                                initial_balance=1000)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=rps, duration_ms=duration, warmup_ms=0, drain_ms=4000,
            seed=seed))
        result = driver.run()
        total = sum(runtime.entity_state(workload.ref(i))["balance"]
                    for i in range(records))
        return runtime, result, total, workload

    @pytest.mark.parametrize("pipeline_depth", [1, 2])
    def test_hot_keys_conserve_total_balance(self, account_program,
                                             pipeline_depth):
        runtime, result, total, workload = self._run_transfers(
            account_program, pipeline_depth=pipeline_depth)
        assert result.completed == result.sent
        assert total == workload.total_balance()
        stats = runtime.coordinator.stats
        assert stats.aborts_waw + stats.aborts_raw > 0, (
            "hot zipfian transfers should conflict")
        assert stats.fallback_runs > 0

    def test_increments_apply_exactly_once(self, account_program):
        """Commutative increments: final balance certifies that each
        request applied exactly once."""
        runtime = StateflowRuntime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        for _ in range(25):
            runtime.submit(ref, "add", (1,))
        runtime.sim.run_until(
            lambda: runtime.entity_state(ref)["balance"] == 25,
            max_time=60_000)
        assert runtime.entity_state(ref)["balance"] == 25


class TestArchitecture:
    def test_single_key_ops_skip_reservations(self, account_program):
        runtime = StateflowRuntime(account_program)
        (ref,) = runtime.preload(Account, [("a", 0)])
        runtime.start()
        runtime.call(ref, "read")
        stats = runtime.coordinator.stats
        assert stats.single_key == 1
        assert stats.transactions == 0

    def test_transfer_takes_multi_key_path(self, account_program):
        runtime = StateflowRuntime(account_program)
        a, b = runtime.preload(Account, [("a", 10), ("b", 10)])
        runtime.start()
        runtime.call(a, "transfer", 1, b)
        assert runtime.coordinator.stats.transactions == 1

    def test_direct_channels_beat_kafka_loopback(self, shop_program):
        def one_buy(mode):
            runtime = StateflowRuntime(
                shop_program, config=StateflowConfig(channel_mode=mode))
            apple = runtime.create("Item", "apple", 3)
            runtime.call(apple, "update_stock", 10)
            alice = runtime.create("User", "alice")
            return runtime.invoke(alice, "buy_item", 2, apple).latency_ms

        assert one_buy("direct") < one_buy("kafka")

    def test_epoch_gating_delays_txn_outputs(self, account_program):
        gated = StateflowConfig()
        ungated = StateflowConfig(
            coordinator=CoordinatorConfig(
                release_txn_outputs_at_epoch=False))

        def transfer_latency(config):
            runtime = StateflowRuntime(account_program, config=config)
            a, b = runtime.preload(Account, [("a", 10), ("b", 10)])
            runtime.start()
            return runtime.invoke(a, "transfer", 1, b).latency_ms

        assert transfer_latency(ungated) < transfer_latency(gated)

    def test_worker_partitioning_stable(self, account_program):
        runtime = StateflowRuntime(account_program)
        first = runtime.worker_of("Account", "alice")
        assert first == runtime.worker_of("Account", "alice")
        assert 0 <= first < runtime.config.workers

    def test_snapshots_taken_periodically(self, account_program):
        runtime = StateflowRuntime(account_program)
        (ref,) = runtime.preload(Account, [("a", 0)])
        runtime.start()
        runtime.call(ref, "read")
        runtime.sim.run(until=runtime.sim.now + 2500)
        assert len(runtime.coordinator.snapshots) >= 2

    def test_the_modelled_hops_are_pinned(self, account_program):
        """Every ``Network.send`` of a short YCSB-T run across one
        rescale, as ``(now, src, dst)`` in order, is what a pass-through
        fault hook sees.  Every simulator digest rests on this sequence:
        moving a hop between the runtime and its workers must not move
        it."""
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            workers=2, fault_plan=FaultPlan(events=[
                FaultEvent(kind="rescale", at_ms=500.0, target_workers=3)])))
        hops: list[str] = []

        def tap(src, dst):
            hops.append(f"{runtime.sim.now!r} {src}>{dst}")

        runtime.network.fault_hook = tap
        workload = YcsbWorkload("T", record_count=60,
                                distribution="uniform", seed=5)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        result = WorkloadDriver(runtime, workload, DriverConfig(
            rps=200, duration_ms=1_000.0, warmup_ms=0.0, drain_ms=2_000.0,
            seed=9)).run()
        assert (result.sent, result.completed, result.errors) == (213, 213, 0)
        assert runtime.coordinator.rescales == 1
        assert len(hops) == 1537
        assert hashlib.sha256("\n".join(hops).encode()).hexdigest() == (
            "26419002fef2ffaaa275ed03864fbd8989bc0651cdfe6b1754a41c4d6ed46889")
