"""DES kernel: ordering, cancellation, CPU queueing, metrics."""

import pytest

from repro.substrates.simulation import (
    CpuPool,
    MetricRecorder,
    Simulation,
    SimulationError,
)


class TestKernel:
    def test_events_run_in_time_order(self):
        sim = Simulation()
        order = []
        sim.schedule(5, lambda: order.append("b"))
        sim.schedule(1, lambda: order.append("a"))
        sim.schedule(9, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 9

    def test_ties_break_by_schedule_order(self):
        sim = Simulation()
        order = []
        for tag in "abc":
            sim.schedule(3, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_run_until_time(self):
        sim = Simulation()
        fired = []
        sim.schedule(10, lambda: fired.append(1))
        sim.run(until=5)
        assert not fired
        assert sim.now == 5
        sim.run()
        assert fired

    def test_cancellation(self):
        sim = Simulation()
        fired = []
        handle = sim.schedule(1, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert not fired

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulation().schedule(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulation()
        sim.schedule(5, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1, lambda: None)

    def test_nested_scheduling(self):
        sim = Simulation()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(2, lambda: seen.append(sim.now))

        sim.schedule(1, first)
        sim.run()
        assert seen == [1, 3]

    def test_run_until_predicate(self):
        sim = Simulation()
        box = []
        sim.schedule(4, lambda: box.append(1))
        sim.schedule(8, lambda: box.append(2))
        assert sim.run_until(lambda: len(box) == 1)
        assert sim.now == 4
        assert not sim.run_until(lambda: len(box) == 5)

    def test_determinism_same_seed(self):
        def trace(seed):
            sim = Simulation(seed=seed)
            values = []
            for _ in range(20):
                sim.schedule(sim.rng.random() * 10,
                             lambda: values.append(sim.now))
            sim.run()
            return values

        assert trace(7) == trace(7)
        assert trace(7) != trace(8)


class TestCpuPool:
    def test_single_core_serialises(self):
        sim = Simulation()
        pool = CpuPool(sim, 1)
        done = []
        pool.submit(10, lambda: done.append(sim.now))
        pool.submit(10, lambda: done.append(sim.now))
        sim.run()
        assert done == [10, 20]

    def test_multi_core_parallel(self):
        sim = Simulation()
        pool = CpuPool(sim, 2)
        done = []
        pool.submit(10, lambda: done.append(sim.now))
        pool.submit(10, lambda: done.append(sim.now))
        sim.run()
        assert done == [10, 10]

    def test_queueing_when_saturated(self):
        sim = Simulation()
        pool = CpuPool(sim, 2)
        done = []
        for _ in range(4):
            pool.submit(10, lambda: done.append(sim.now))
        sim.run()
        assert done == [10, 10, 20, 20]

    def test_utilisation(self):
        sim = Simulation()
        pool = CpuPool(sim, 2)
        pool.submit(10, lambda: None)
        sim.run()
        assert pool.utilisation(10) == pytest.approx(0.5)

    def test_zero_cores_rejected(self):
        with pytest.raises(SimulationError):
            CpuPool(Simulation(), 0)

    def test_queue_depth(self):
        sim = Simulation()
        pool = CpuPool(sim, 1)
        pool.submit(10, lambda: None)
        pool.submit(10, lambda: None)
        # A new task would wait for both booked jobs on the single core.
        assert pool.queue_depth_ms == 20

    def test_core_choice_and_completion_times(self):
        """The earliest-free core takes the task, the first of them on
        a tie, and the task starts when that core is free or now,
        whichever is later."""
        sim = Simulation()
        single, quad = CpuPool(sim, 1), CpuPool(sim, 4)
        done = []
        finishes = [single.submit(ms, lambda: done.append(("single", sim.now)))
                    for ms in (10, 5)]
        assert finishes == [10, 15] and single.busy_until == [15]
        booked = []
        for ms in (10, 5, 1, 1, 2, 1):
            finish = quad.submit(ms, lambda: done.append(("quad", sim.now)))
            booked.append((finish, list(quad.busy_until)))
        assert booked == [
            (10, [10, 0, 0, 0]),    # four idle cores tie: the first
            (5, [10, 5, 0, 0]),
            (1, [10, 5, 1, 0]),
            (1, [10, 5, 1, 1]),
            (3, [10, 5, 3, 1]),     # cores 2 and 3 tie at 1: core 2
            (2, [10, 5, 3, 2]),
        ]
        sim.run()
        assert [at for pool, at in done if pool == "quad"] \
            == [1, 1, 2, 3, 5, 10]
        assert [at for pool, at in done if pool == "single"] == [10, 15]
        # Every core idle, none tied: the one free longest, from now.
        assert sim.now == 15
        assert quad.submit(4, lambda: None) == 19
        assert quad.busy_until == [10, 5, 3, 19]


class TestMetricRecorder:
    def test_percentiles(self):
        recorder = MetricRecorder()
        for value in range(1, 101):
            recorder.record(float(value), at_ms=0)
        assert recorder.percentile(50) == pytest.approx(50.5)
        assert recorder.percentile(99) == pytest.approx(99.01)
        assert recorder.mean() == pytest.approx(50.5)

    def test_labels(self):
        recorder = MetricRecorder()
        recorder.record(1.0, 0, label="read")
        recorder.record(9.0, 0, label="transfer")
        assert recorder.values("read") == [1.0]
        assert recorder.count("transfer") == 1
        assert recorder.mean() == 5.0

    def test_empty_is_nan(self):
        import math

        assert math.isnan(MetricRecorder().percentile(99))
