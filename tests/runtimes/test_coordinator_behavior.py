"""Coordinator behaviours: batching cadence, dedup, epoch gating,
watchdog discipline."""

import pytest

from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.workloads import Account


@pytest.fixture()
def runtime(account_program):
    runtime = StateflowRuntime(account_program)
    runtime._refs = runtime.preload(
        Account, [(f"a{i}", 100) for i in range(4)])
    runtime.start()
    return runtime


class TestBatching:
    def test_requests_batch_together(self, runtime):
        a, b, c, d = runtime._refs
        for ref in (a, b, c, d):
            runtime.submit(ref, "add", (1,))
        runtime.sim.run_until(
            lambda: all(runtime.entity_state(r)["balance"] == 101
                        for r in runtime._refs),
            max_time=30_000)
        stats = runtime.coordinator.stats
        # Four near-simultaneous requests should need few batches.
        assert stats.batches <= 3
        assert stats.single_key == 4

    def test_batch_interval_bounds_wait(self, runtime):
        a = runtime._refs[0]
        result = runtime.invoke(a, "read")
        interval = runtime.config.coordinator.batch_interval_ms
        # Latency = kafka in + <= 2 batch intervals + execution + kafka out.
        assert result.latency_ms < 6 * interval + 40

    def test_empty_system_stays_quiet(self, runtime):
        before = runtime.coordinator.stats.batches
        runtime.sim.run(until=runtime.sim.now + 500)
        assert runtime.coordinator.stats.batches == before


class TestIdleSeal:
    """``idle_seal_fraction=0.0`` (the real-clock preset): an idle
    coordinator seals on the kernel turn after an admission, so a
    request waits out no timer, yet requests admitted in one turn still
    share a batch."""

    @staticmethod
    def _admit(runtime, refs):
        from repro.ir.events import Event, EventKind

        for request_id, ref in enumerate(refs, start=1):
            runtime.coordinator.on_request(
                Event(kind=EventKind.INVOKE, target=ref, method="add",
                      args=(1,), request_id=request_id,
                      ingress_time=runtime.sim.now),
                is_transactional_method=False)

    @pytest.fixture()
    def immediate(self, account_program):
        runtime = StateflowRuntime(account_program, config=StateflowConfig(
            coordinator=CoordinatorConfig(idle_seal_fraction=0.0)))
        runtime._refs = runtime.preload(
            Account, [(f"a{i}", 100) for i in range(4)])
        runtime.start()
        runtime.sim.run(until=7.0)
        return runtime

    def test_same_instant_admissions_share_one_batch(self, immediate):
        coordinator = immediate.coordinator
        self._admit(immediate, immediate._refs)
        assert not coordinator.inflight  # sealed by the kernel, not inline
        immediate.sim.run_until(lambda: bool(coordinator.inflight),
                                max_time=1_000)
        (batch,) = coordinator.inflight.values()
        assert len(batch.single) + len(batch.txns) == 4
        assert batch.started_at == 7.0
        immediate.sim.run_until(
            lambda: all(immediate.entity_state(r)["balance"] == 101
                        for r in immediate._refs), max_time=30_000)
        assert coordinator.stats.batches == 1

    def test_lone_request_seals_at_its_admission_time(self, immediate):
        coordinator = immediate.coordinator
        self._admit(immediate, immediate._refs[:1])
        immediate.sim.run_until(lambda: bool(coordinator.inflight),
                                max_time=1_000)
        (batch,) = coordinator.inflight.values()
        assert batch.started_at == 7.0 == immediate.sim.now

    def test_default_fraction_waits_a_quarter_interval(self, runtime):
        coordinator = runtime.coordinator
        runtime.sim.run(until=7.0)
        self._admit(runtime, runtime._refs[:1])
        runtime.sim.run_until(lambda: bool(coordinator.inflight),
                              max_time=1_000)
        (batch,) = coordinator.inflight.values()
        assert batch.started_at == 7.0 + 0.25 * \
            runtime.config.coordinator.batch_interval_ms


class TestReplyDiscipline:
    def test_duplicate_emission_suppressed(self, runtime):
        coordinator = runtime.coordinator
        from repro.core.refs import EntityRef
        from repro.ir.events import Event, EventKind

        reply = Event(kind=EventKind.REPLY,
                      target=EntityRef("__client__", 4242),
                      request_id=4242)
        coordinator._emit(reply)
        coordinator._emit(reply)
        assert coordinator.duplicate_replies == 1

    def test_epoch_buffer_flushes(self, runtime):
        a, b = runtime._refs[:2]
        request_done = []
        runtime.submit(a, "transfer", (5, b),
                       on_reply=lambda r: request_done.append(r))
        runtime.sim.run_until(lambda: bool(request_done), max_time=30_000)
        assert request_done[0].payload is True
        # The reply waited for an epoch boundary.
        assert not runtime.coordinator._epoch_buffer


class TestWatchdog:
    def test_no_spurious_recovery_under_slow_load(self, account_program):
        config = StateflowConfig(coordinator=CoordinatorConfig(
            failure_detect_ms=150.0))
        runtime = StateflowRuntime(account_program, config=config)
        refs = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        for _ in range(50):
            runtime.call(refs[0], "transfer", 1, refs[1])
        assert runtime.coordinator.recoveries == 0

    def test_stalled_batch_triggers_recovery(self, account_program):
        config = StateflowConfig(coordinator=CoordinatorConfig(
            failure_detect_ms=150.0, snapshot_interval_ms=200.0))
        runtime = StateflowRuntime(account_program, config=config)
        a, b = runtime.preload(Account, [("a", 100), ("b", 100)])
        runtime.start()
        # Kill the worker owning `a` right away: the first transfer's
        # batch stalls until the watchdog recovers it.
        runtime.fail_worker(runtime.worker_of("Account", "a"))
        result = runtime.invoke(a, "transfer", 10, b)
        assert result.ok
        assert runtime.coordinator.recoveries >= 1
        assert runtime.entity_state(a)["balance"] == 90


class TestMaxBatchSize:
    def test_overflow_spills_to_next_batch(self, account_program):
        config = StateflowConfig(coordinator=CoordinatorConfig(
            max_batch_size=5))
        runtime = StateflowRuntime(account_program, config=config)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        for _ in range(12):
            runtime.submit(ref, "add", (1,))
        runtime.sim.run_until(
            lambda: runtime.entity_state(ref)["balance"] == 12,
            max_time=30_000)
        assert runtime.entity_state(ref)["balance"] == 12
        assert runtime.coordinator.stats.batches >= 3
