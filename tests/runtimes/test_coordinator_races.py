"""Recovery-race regressions: the coordinator guard paths that only
fire when recovery interleaves with in-flight work (previously untested
``# recovery raced us`` branches), plus coordinator fail-stop/fail-over
and ingress dedup."""

from repro.core.refs import EntityRef
from repro.ir.events import Event, EventKind, TxnContext
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig, Phase
from repro.workloads import Account


def _runtime(account_program, **coordinator_overrides) -> StateflowRuntime:
    config = StateflowConfig(coordinator=CoordinatorConfig(
        snapshot_interval_ms=250.0, failure_detect_ms=200.0,
        **coordinator_overrides))
    return StateflowRuntime(account_program, config=config)


class TestRecoveryRaces:
    def test_recovery_races_dispatch(self, account_program):
        """recover() lands between batch formation and the (CPU-delayed)
        dispatch: the stale batch must never dispatch, and the replayed
        request must still commit exactly once."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        runtime.submit(ref, "add", (1,))
        coordinator = runtime.coordinator
        runtime.sim.run_until(lambda: coordinator.active is not None,
                              max_time=60_000)
        raced_batch_id = coordinator.active.batch_id
        dispatched: list[int] = []
        original_dispatch = coordinator.hooks.dispatch

        def spy(event):
            dispatched.append(event.txn.batch_id if event.txn else -1)
            original_dispatch(event)

        coordinator.hooks.dispatch = spy
        coordinator.recover()  # races the still-queued dispatch_all
        runtime.sim.run_until(
            lambda: (runtime.entity_state(ref) or {}).get("balance") == 1,
            max_time=60_000)
        assert raced_batch_id not in dispatched, (
            "a batch abandoned by recovery must not dispatch")
        assert runtime.entity_state(ref)["balance"] == 1

    def test_stale_report_after_recovery_is_ignored(self, account_program):
        """A worker's report for a pre-recovery batch must not touch the
        post-recovery batch (same-tid collision included)."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        stale = Event(kind=EventKind.REPLY,
                      target=EntityRef("__client__", 777), payload=41,
                      request_id=777,
                      txn=TxnContext(tid=0, batch_id=0, attempt=0))
        # No active batch at all: the report must be dropped outright.
        coordinator.recover()
        before = (coordinator.duplicate_replies, len(coordinator.replied))
        coordinator.on_txn_report(stale)
        assert (coordinator.duplicate_replies,
                len(coordinator.replied)) == before
        # Now with a *different* active batch: still dropped.
        runtime.submit(ref, "add", (1,))
        runtime.sim.run_until(lambda: coordinator.active is not None,
                              max_time=60_000)
        active_batch = coordinator.active
        stale_for_old = Event(
            kind=EventKind.REPLY, target=EntityRef("__client__", 778),
            payload=13, request_id=778,
            txn=TxnContext(tid=0, batch_id=active_batch.batch_id + 500,
                           attempt=0))
        coordinator.on_txn_report(stale_for_old)
        assert coordinator.active is active_batch
        assert all(not txn.done for txn in active_batch.txns.values())
        runtime.sim.run_until(
            lambda: (runtime.entity_state(ref) or {}).get("balance") == 1,
            max_time=60_000)
        assert runtime.entity_state(ref)["balance"] == 1

    def test_double_watchdog_fire_recovers_once(self, account_program):
        """Two watchdog fires over the same stalled batch must trigger a
        single recovery (the second sees the recovering phase and
        stands down)."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        runtime.fail_worker(runtime.worker_of("Account", "hot"))
        runtime.submit(ref, "add", (1,))
        runtime.sim.run_until(lambda: coordinator.active is not None,
                              max_time=60_000)
        # Let the stall age past the detection threshold without letting
        # the scheduled watchdog tick run first.
        coordinator.active.last_progress = (
            runtime.sim.now - 2 * coordinator.config.failure_detect_ms)
        coordinator.active.started_at = coordinator.active.last_progress
        coordinator._tick_watchdog()
        assert coordinator.phase is Phase.RECOVERING
        coordinator._tick_watchdog()  # double fire
        assert coordinator.recoveries == 1
        runtime.sim.run_until(
            lambda: (runtime.entity_state(ref) or {}).get("balance") == 1,
            max_time=60_000)
        assert runtime.entity_state(ref)["balance"] == 1
        assert len(coordinator.recovery_log) == coordinator.recoveries


    def test_crash_or_stop_during_recovery_drops_its_resume(
            self, account_program):
        """The two combinations the phase table names: a crash during
        recovery is a crash (fail-over recovers afresh), and ``stop()``
        during recovery stays idle once the pause is over."""
        runtime = _runtime(account_program)
        runtime.preload(Account, [("idle", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        coordinator.recover()
        coordinator.crash()
        runtime.sim.run(until=runtime.sim.now + 100)
        assert coordinator.phase is Phase.CRASHED
        coordinator.failover()
        assert coordinator.phase is Phase.RECOVERING
        coordinator.stop()
        runtime.sim.run(until=runtime.sim.now + 100)
        assert coordinator.phase is Phase.IDLE
        assert coordinator.recovery_log == []


class TestCoordinatorFailover:
    def test_failover_preserves_exactly_once(self, account_program):
        """Kill the coordinator with requests in flight: after fail-over
        every request commits and replies exactly once."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        replies: list[int] = []
        for index in range(20):
            runtime.sim.schedule_at(
                index * 50.0,
                lambda: runtime.submit(
                    ref, "add", (1,),
                    on_reply=lambda reply: replies.append(reply.request_id)))
        runtime.fail_coordinator(at_ms=430.0, failover_after_ms=80.0)
        runtime.sim.run(until=60_000)
        assert runtime.coordinator.failovers == 1
        assert runtime.entity_state(ref)["balance"] == 20
        assert len(replies) == 20
        assert len(set(replies)) == 20

    def test_crashed_coordinator_ignores_traffic(self, account_program):
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        coordinator.crash()
        event = Event(kind=EventKind.INVOKE, target=ref, method="add",
                      args=(1,), request_id=4242, ingress_time=0.0)
        coordinator.on_request(event, is_transactional_method=False)
        assert coordinator.pending == []
        assert 4242 not in coordinator.admitted
        coordinator.failover()
        assert coordinator.failovers == 1
        # Idempotent: a second failover call is a no-op.
        coordinator.failover()
        assert coordinator.failovers == 1

    def test_failover_does_not_double_tick_chains(self, account_program):
        """Pre-crash tick closures that survive a short outage must not
        keep rescheduling next to the standby's fresh chains (that would
        double every tick rate after each fail-over)."""
        runtime = _runtime(account_program)
        runtime.preload(Account, [("idle", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        interval = coordinator.config.snapshot_interval_ms

        def snapshots_in_window() -> int:
            before = coordinator.snapshots._next_id
            runtime.sim.run(until=runtime.sim.now + 8 * interval)
            return coordinator.snapshots._next_id - before

        baseline = snapshots_in_window()
        # Outage shorter than the snapshot interval: the old tick chain
        # outlives the crash and must be fenced at failover.
        runtime.fail_coordinator(failover_after_ms=interval / 4)
        runtime.sim.run(until=runtime.sim.now + 2 * interval)
        assert coordinator.failovers == 1
        assert snapshots_in_window() <= baseline + 1

    def test_failover_while_idle_resumes_cleanly(self, account_program):
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("idle", 5)])
        runtime.start()
        runtime.call(ref, "add", 1)
        runtime.fail_coordinator(failover_after_ms=40.0)
        runtime.sim.run(until=runtime.sim.now + 1_000)
        # The system keeps working after the standby took over.
        assert runtime.call(ref, "add", 1) == 7
        assert runtime.entity_state(ref)["balance"] == 7


class TestIngressDedup:
    def test_duplicate_admission_suppressed(self, account_program):
        """The same request id arriving twice from the log (at-least-once
        producer) must be admitted once."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        event = Event(kind=EventKind.INVOKE, target=ref, method="add",
                      args=(1,), request_id=900, ingress_time=0.0)
        coordinator.on_request(event, is_transactional_method=False)
        coordinator.on_request(event, is_transactional_method=False)
        assert coordinator.duplicate_requests == 1
        runtime.sim.run(until=runtime.sim.now + 5_000)
        assert runtime.entity_state(ref)["balance"] == 1

    def test_admitted_set_survives_recovery_consistently(self,
                                                         account_program):
        """After recovery the admitted set rewinds with the offsets:
        replayed requests re-admit (their effects were rolled back), yet
        log duplicates beyond the snapshot stay suppressed."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        coordinator = runtime.coordinator
        runtime.call(ref, "add", 1)
        runtime.sim.run(until=runtime.sim.now + 500)  # snapshot covers it
        admitted_before = set(coordinator.admitted)
        coordinator.recover()
        runtime.sim.run(until=runtime.sim.now + 500)
        assert admitted_before <= coordinator.admitted
        assert runtime.entity_state(ref)["balance"] == 1


class TestWorkerIncarnationFence:
    """A store-mutating message delayed past a recovery must not land on
    the restored store: replay re-executes its batch, so a late
    ``apply_writes``/``execute_single_key`` would double-apply."""

    def test_delayed_apply_writes_cannot_touch_restored_state(
            self, account_program):
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 100)])
        runtime.start()
        worker = runtime.workers[runtime.worker_of("Account", "hot")]
        stale = worker.incarnation
        runtime.coordinator.recover()  # restore_workers() bumps incarnations
        acked = []
        worker.apply_writes({("Account", "hot"): {"balance": 999}},
                            acked.append, incarnation=stale)
        runtime.sim.run(until=runtime.sim.now + 5_000)
        assert runtime.entity_state(ref)["balance"] == 100
        assert not acked

    def test_queued_apply_writes_fenced_by_mid_flight_recovery(
            self, account_program):
        """The CPU-queue variant: the install closure was submitted
        before recover() and fires after the restore."""
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 100)])
        runtime.start()
        worker = runtime.workers[runtime.worker_of("Account", "hot")]
        worker.apply_writes({("Account", "hot"): {"balance": 999}},
                            lambda: None, incarnation=worker.incarnation)
        runtime.coordinator.recover()  # before the closure's service time
        runtime.sim.run(until=runtime.sim.now + 5_000)
        assert runtime.entity_state(ref)["balance"] == 100

    def test_delayed_single_key_execution_is_fenced(self, account_program):
        runtime = _runtime(account_program)
        (ref,) = runtime.preload(Account, [("hot", 100)])
        runtime.start()
        worker = runtime.workers[runtime.worker_of("Account", "hot")]
        stale = worker.incarnation
        runtime.coordinator.recover()
        event = Event(kind=EventKind.INVOKE, target=ref, method="add",
                      args=(7,), request_id=901, ingress_time=0.0,
                      txn=TxnContext(tid=1, batch_id=1, attempt=0))
        replies = []
        worker.execute_single_key([event], replies.append, incarnation=stale)
        runtime.sim.run(until=runtime.sim.now + 5_000)
        assert runtime.entity_state(ref)["balance"] == 100
        assert not replies
