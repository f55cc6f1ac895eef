"""Simulated StateFun deployment: semantics + architectural properties."""

import pytest

from repro.core.errors import UnsupportedFeatureError
from repro.core.refs import EntityRef
from repro.runtimes.statefun import (
    BatchingChannel,
    StatefunConfig,
    StatefunRuntime,
)
from repro.substrates.simulation import Simulation


class TestSemantics:
    def test_figure1_flow(self, shop_program):
        runtime = StatefunRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        runtime.call(apple, "update_stock", 10)
        alice = runtime.create("User", "alice")
        assert runtime.call(alice, "buy_item", 2, apple) is True
        assert runtime.entity_state(alice)["balance"] == 94
        assert runtime.entity_state(apple)["stock"] == 8

    def test_latency_positive_and_simulated(self, shop_program):
        runtime = StatefunRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        result = runtime.invoke(apple, "price")
        assert result.latency_ms > 1  # kafka + buffers, not wall-clock

    def test_error_propagates(self, shop_program):
        runtime = StatefunRuntime(shop_program)
        result = runtime.invoke(EntityRef("Item", "ghost"), "price")
        assert not result.ok

    def test_strict_transactions_rejected(self, shop_program):
        config = StatefunConfig(strict_transactions=True)
        runtime = StatefunRuntime(shop_program, config=config)
        alice = runtime.create("User", "alice")
        with pytest.raises(UnsupportedFeatureError):
            runtime.invoke(alice, "buy_item", 1, EntityRef("Item", "x"))

    def test_preload(self, account_program):
        from repro.workloads import Account

        runtime = StatefunRuntime(account_program)
        refs = runtime.preload(Account, [("a1", 10), ("a2", 20)])
        assert runtime.entity_state(refs[0])["balance"] == 10
        assert runtime.call(refs[1], "read") == 20


class TestArchitecture:
    def test_split_calls_loop_through_kafka(self, shop_program):
        """Every remote hop of buy_item must re-enter via the loopback
        topic (the paper: Kafka re-insertion avoids cyclic dataflows)."""
        runtime = StatefunRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        runtime.call(apple, "update_stock", 10)
        alice = runtime.create("User", "alice")
        loop_total_before = sum(
            runtime.broker.end_offset("statefun-loopback", p)
            for p in range(runtime.broker.partitions("statefun-loopback")))
        runtime.call(alice, "buy_item", 2, apple)
        loop_total_after = sum(
            runtime.broker.end_offset("statefun-loopback", p)
            for p in range(runtime.broker.partitions("statefun-loopback")))
        # price + update_stock + two resumes = at least 4 loopbacks.
        assert loop_total_after - loop_total_before >= 4

    def test_remote_function_pool_charged(self, shop_program):
        runtime = StatefunRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        runtime.call(apple, "price")
        assert runtime.function_cpu.completed_tasks >= 2  # init + price
        assert runtime.invocations >= 2

    def test_single_op_slower_than_stateflow_floor(self, shop_program):
        """Statefun pays buffer timeouts + kafka: single ops land well
        above the raw network floor."""
        runtime = StatefunRuntime(shop_program)
        apple = runtime.create("Item", "apple", 3)
        result = runtime.invoke(apple, "price")
        assert result.latency_ms > 2 * runtime.costs.buffer_timeout_ms


class TestBatchingChannel:
    def test_flush_on_timeout(self):
        sim = Simulation()
        flushed = []
        channel = BatchingChannel(sim, timeout_ms=10, capacity=100,
                                  on_flush=flushed.append)
        channel.push("a")
        sim.run()
        assert flushed == [["a"]]
        assert sim.now == 10

    def test_flush_on_capacity(self):
        sim = Simulation()
        flushed = []
        channel = BatchingChannel(sim, timeout_ms=1000, capacity=3,
                                  on_flush=flushed.append)
        for item in "abc":
            channel.push(item)
        assert flushed == [["a", "b", "c"]]  # before any time passes

    def test_timeout_measured_from_first_item(self):
        sim = Simulation()
        flushed_at = []
        channel = BatchingChannel(sim, timeout_ms=10, capacity=100,
                                  on_flush=lambda items: flushed_at.append(sim.now))
        channel.push("a")
        sim.schedule(6, lambda: channel.push("b"))
        sim.run()
        assert flushed_at == [10]

    def test_manual_flush_cancels_timer(self):
        sim = Simulation()
        flushed = []
        channel = BatchingChannel(sim, timeout_ms=10, capacity=100,
                                  on_flush=flushed.append)
        channel.push("a")
        channel.flush()
        sim.run()
        assert flushed == [["a"]]
        assert len(channel) == 0

    def test_a_stale_timeout_is_fenced(self):
        """A capacity flush at t=3 leaves the timeout armed at t=0 in
        the calendar; it must not flush the item pushed at t=5, whose
        own timeout is t=15."""
        sim = Simulation()
        flushed = []
        channel = BatchingChannel(
            sim, timeout_ms=10, capacity=2,
            on_flush=lambda items: flushed.append((sim.now, items)))
        channel.push("a")
        sim.schedule(3, lambda: channel.push("b"))
        sim.schedule(5, lambda: channel.push("c"))
        sim.run()
        assert flushed == [(3, ["a", "b"]), (15, ["c"])]
        assert channel.flushes == 2
