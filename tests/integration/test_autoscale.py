"""Closed-loop autoscaler battery.

Three layers, mirroring the control stack:

- pure policy: hysteresis, cooldown and busy suppression judged on
  synthetic :class:`WindowSample` sequences (no runtime at all);
- the sampler: cumulative ``AriaStats``-shaped counters differenced
  into per-window rates and hot-locus shares;
- end to end: a saturating zipfian run on the virtual-time simulator
  must scale up autonomously, reproduce its decision sequence byte for
  byte across identical replays (hypothesis), and keep doing both while
  a chaos plan kills the coordinator mid-run.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import chaos_coordinator_config, run_chaos_cell
from repro.control import (
    AutoscaleController,
    AutoscalePolicy,
    MetricsSampler,
    WindowSample,
)
from repro.control.policy import HIGH_QUEUE_DEPTH, MIN_WORKERS
from repro.faults import FaultEvent, FaultPlan, MessageFaultProfile
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


def window(at_ms: float, *, workers: int = 2, rate: float = 0.0,
           queue: int = 0, committed: int | None = None,
           slot_shares=(), key_shares=()) -> WindowSample:
    committed = int(rate / 10) if committed is None else committed
    return WindowSample(
        at_ms=at_ms, window_ms=100.0, workers=workers,
        committed=committed, txn_rate_s=rate,
        per_worker_rate_s=rate / workers, queue_depth=queue,
        batch_latency_ms=1.0, slot_shares=tuple(slot_shares),
        key_shares=tuple(key_shares))


class TestPolicy:
    def test_scale_up_needs_consecutive_saturated_windows(self):
        controller = AutoscaleController()
        hot = controller.policy.high_txns_per_worker_s * 2  # per 2 workers
        assert controller.decide(window(100, rate=2 * hot)) is None
        assert controller.decide(window(200, rate=2 * hot)) is None
        decision = controller.decide(window(300, rate=2 * hot))
        assert decision is not None and decision.kind == "scale_up"
        assert decision.from_workers == 2
        # Sizing: ceil(rate / target) workers, at least +1.
        assert decision.to_workers > 2
        assert controller.decision_log == [decision]

    def test_noisy_window_resets_the_streak(self):
        controller = AutoscaleController()
        hot = controller.policy.high_txns_per_worker_s * 2
        assert controller.decide(window(100, rate=2 * hot)) is None
        assert controller.decide(window(200, rate=2 * hot)) is None
        assert controller.decide(window(300, rate=0.0)) is None  # reset
        assert controller.decide(window(400, rate=2 * hot)) is None
        assert controller.decide(window(500, rate=2 * hot)) is None
        assert controller.decide(window(600, rate=2 * hot)) is not None

    def test_queue_depth_alone_saturates(self):
        controller = AutoscaleController()
        deep = HIGH_QUEUE_DEPTH
        for at in (100, 200):
            assert controller.decide(window(at, rate=10, queue=deep)) is None
        decision = controller.decide(window(300, rate=10, queue=deep))
        assert decision is not None and decision.kind == "scale_up"

    def test_cooldown_silences_after_a_decision(self):
        controller = AutoscaleController()
        hot = controller.policy.high_txns_per_worker_s * 2
        for at in (100, 200, 300):
            first = controller.decide(window(at, rate=2 * hot))
        assert first is not None
        # Saturation persists, but the cooldown window stays silent.
        for at in (400, 500, 600, 700, 800):
            assert controller.decide(window(at, rate=2 * hot)) is None
        # Past the cooldown the (re-accumulated) streak fires again.
        late = controller.decide(window(1000, rate=2 * hot))
        assert late is not None

    def test_busy_suppresses_but_remembers(self):
        controller = AutoscaleController()
        hot = controller.policy.high_txns_per_worker_s * 2
        for at in (100, 200, 300, 400):
            assert controller.decide(window(at, rate=2 * hot),
                                     busy=True) is None
        # First quiet tick: the streak already crossed the threshold.
        decision = controller.decide(window(500, rate=2 * hot))
        assert decision is not None and decision.kind == "scale_up"

    def test_hot_slot_split_fires_on_a_persistent_hot_slot(self):
        controller = AutoscaleController()
        shares = ((7, 0.6), (1, 0.1))
        for at in (100, 200):
            assert controller.decide(window(
                at, rate=100, committed=64, slot_shares=shares)) is None
        decision = controller.decide(window(
            300, rate=100, committed=64, slot_shares=shares))
        assert decision is not None
        assert decision.kind == "split_hot_slot"
        assert decision.hot_slot == 7
        assert decision.to_workers == 3

    def test_hot_slot_below_min_commits_is_ignored(self):
        controller = AutoscaleController()
        shares = ((7, 0.9),)
        for at in (100, 200, 300, 400):
            assert controller.decide(window(
                at, rate=10, committed=8, slot_shares=shares)) is None

    def test_hot_keys_refresh_each_window(self):
        controller = AutoscaleController()
        controller.decide(window(
            100, rate=100, committed=64,
            key_shares=((("Account", "k1"), 0.5),
                        (("Account", "k2"), 0.02))))
        assert controller.is_hot_key("Account", "k1")
        assert not controller.is_hot_key("Account", "k2")
        # A trickle window keeps the previous classification...
        controller.decide(window(200, rate=1, committed=2))
        assert controller.is_hot_key("Account", "k1")
        # ...a real window without the key clears it.
        controller.decide(window(
            300, rate=100, committed=64,
            key_shares=((("Account", "k3"), 0.4),)))
        assert not controller.is_hot_key("Account", "k1")
        assert controller.is_hot_key("Account", "k3")

    def test_scale_down_is_lagging_and_respects_min_workers(self):
        controller = AutoscaleController()
        policy = controller.policy
        decisions = [controller.decide(window(at * 100, workers=3, rate=90))
                     for at in range(1, policy.idle_samples + 1)]
        decision = decisions[-1]
        assert all(d is None for d in decisions[:-1])
        assert decision is not None and decision.kind == "scale_down"
        assert decision.to_workers >= MIN_WORKERS
        # At the floor, idle windows never classify as idle.
        floor = AutoscaleController()
        for at in range(1, 20):
            assert floor.decide(window(at * 100, workers=1, rate=0)) is None

    def test_signature_is_a_pure_function_of_the_decisions(self):
        first, second = AutoscaleController(), AutoscaleController()
        hot = first.policy.high_txns_per_worker_s * 2
        for controller in (first, second):
            for at in (100, 200, 300):
                controller.decide(window(at, rate=2 * hot))
        assert first.decision_signature() == second.decision_signature()
        assert len(first.decision_signature()) == 1


class TestSampler:
    def _stats(self, **overrides):
        base = dict(commits=0, single_key=0, fallback_runs=0,
                    closed_batches=0, batch_latency_ms=0.0,
                    slot_commits={}, key_commits={})
        base.update(overrides)
        return SimpleNamespace(**base)

    def test_windows_difference_cumulative_counters(self):
        sampler = MetricsSampler()
        stats = self._stats()
        first = sampler.sample(now_ms=100.0, stats=stats, queue_depth=0,
                               workers=2)
        assert first.committed == 0
        stats.commits, stats.single_key = 40, 10
        stats.closed_batches, stats.batch_latency_ms = 4, 20.0
        second = sampler.sample(now_ms=200.0, stats=stats, queue_depth=3,
                                workers=2)
        assert second.committed == 50
        assert second.txn_rate_s == pytest.approx(500.0)
        assert second.per_worker_rate_s == pytest.approx(250.0)
        assert second.batch_latency_ms == pytest.approx(5.0)
        assert second.queue_depth == 3

    def test_slot_feed_yields_shares_and_worker_rates(self):
        sampler = MetricsSampler()
        stats = self._stats(slot_commits={0: 0, 1: 0})
        sampler.sample(now_ms=100.0, stats=stats, queue_depth=0, workers=2)
        stats.slot_commits = {0: 30, 1: 10}
        stats.key_commits = {("Account", "a"): 25, ("Account", "b"): 15}
        sample = sampler.sample(now_ms=200.0, stats=stats, queue_depth=0,
                                workers=2, slot_owner={0: 0, 1: 1})
        assert sample.committed == 40
        assert sample.hottest_slot == (0, 0.75)
        assert sample.hottest_key == (("Account", "a"),
                                      pytest.approx(25 / 40))
        assert sample.worker_rates == {0: pytest.approx(300.0),
                                       1: pytest.approx(100.0)}
        # Next window sees only the delta.
        stats.slot_commits = {0: 35, 1: 30}
        later = sampler.sample(now_ms=300.0, stats=stats, queue_depth=0,
                               workers=2, slot_owner={0: 0, 1: 1})
        assert later.committed == 25
        assert later.hottest_slot == (1, pytest.approx(20 / 25))


# ---------------------------------------------------------------------------
# End to end on the virtual-time simulator
# ---------------------------------------------------------------------------

#: Aggressive knobs so short test runs cross the thresholds the default
#: policy reserves for sustained production load.
def _fast_policy() -> AutoscalePolicy:
    return AutoscalePolicy(
        sample_interval_ms=100.0, high_txns_per_worker_s=400.0,
        low_txns_per_worker_s=50.0, saturated_samples=2, idle_samples=6,
        cooldown_ms=300.0, target_txns_per_worker_s=250.0, max_workers=8)


def _autoscale_run(account_program, seed: int,
                   plan: FaultPlan | None = None):
    """One autoscaled zipfian run; returns the full observable tuple:
    (decision signature, rescale log, reply trace, sent, completed)."""
    kwargs: dict = dict(workers=1, autoscale_policy=_fast_policy())
    if plan is not None:
        kwargs.update(fault_plan=plan,
                      coordinator=chaos_coordinator_config())
    runtime = StateflowRuntime(account_program,
                               config=StateflowConfig(**kwargs))
    trace: list[tuple] = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error))
    workload = YcsbWorkload("A", record_count=60, distribution="zipfian",
                            seed=seed + 1)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=700, duration_ms=1_200, warmup_ms=0, drain_ms=20_000,
        seed=seed + 2))
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + 10_000)
    coordinator = runtime.coordinator
    rescales = tuple((record.from_workers, record.to_workers,
                      record.slots_moved)
                     for record in coordinator.rescale_log)
    return (runtime.autoscaler.decision_signature(), rescales,
            tuple(sorted(trace)), result.sent, driver.completed)


class TestClosedLoop:
    def test_scales_up_autonomously_under_saturation(self, account_program):
        signature, rescales, trace, sent, completed = _autoscale_run(
            account_program, seed=7)
        assert signature, "no autonomous decisions under saturating load"
        assert signature[0][1] == "scale_up"
        assert rescales, "decisions never turned into committed rescales"
        assert rescales[0][0] == 1 and rescales[0][1] > 1
        assert completed == sent  # exactly-once survives the rescale

    def test_hot_keys_detected_and_fast_pathed(self, account_program):
        kwargs: dict = dict(workers=2, autoscale_policy=_fast_policy())
        runtime = StateflowRuntime(account_program,
                                   config=StateflowConfig(**kwargs))
        workload = YcsbWorkload("A", record_count=60,
                                distribution="zipfian", seed=5)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=700, duration_ms=1_200, warmup_ms=0, drain_ms=20_000,
            seed=9))
        driver.run()
        # The zipfian head concentrates on the first ranks: the
        # controller must classify at least one key hot and the
        # coordinator must account its fast-path commits.
        assert runtime.autoscaler.hot_keys
        assert runtime.coordinator.stats.single_key_hot > 0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=4, deadline=None)
    def test_same_seed_reproduces_decisions_and_trace(self, account_program,
                                                      seed):
        first = _autoscale_run(account_program, seed)
        second = _autoscale_run(account_program, seed)
        assert first[0] == second[0], (
            "autoscale decision sequences diverged across identical runs")
        assert first[1] == second[1], (
            "rescale logs diverged across identical runs")
        assert first[2] == second[2], (
            "reply traces diverged across identical runs")

    def test_decisions_survive_coordinator_failover(self, account_program):
        plan = FaultPlan(seed=13, events=[
            FaultEvent(kind="messages", at_ms=150.0, duration_ms=400.0,
                       channel="all",
                       profile=MessageFaultProfile(drop_p=0.02,
                                                   duplicate_p=0.02)),
            FaultEvent(kind="crash_coordinator", at_ms=500.0),
        ])
        signature, rescales, trace, sent, completed = _autoscale_run(
            account_program, seed=13, plan=plan)
        # The loop keeps deciding after the failover re-arms its tick,
        # and every request still completes exactly once.
        assert signature and rescales
        assert completed == sent
        ids = [entry[0] for entry in trace]
        assert len(ids) == len(set(ids))
        # And the composition replays byte for byte.
        replay = _autoscale_run(account_program, seed=13, plan=plan)
        assert replay == (signature, rescales, trace, sent, completed)

    def test_chaos_cell_accepts_autoscale(self):
        report = run_chaos_cell(rps=80.0, duration_ms=1_500.0, records=30,
                                seed=23, autoscale=True)
        assert report["ok"], report["problems"]
