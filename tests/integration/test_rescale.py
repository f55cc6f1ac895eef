"""End-to-end correctness of elastic rescaling with live state
migration.

Mirrors ``test_serializability.py``: the same serial-order oracles
(conservation, non-negative balances, exact sums, TPC-C vs the
fault-free Local runtime) must hold while the cluster resizes
mid-workload — including the canonical 2 -> 4 -> 3 acceptance scenario
at pipeline depth 1 and 2, with byte-identical replays and recorded
migration metrics, and with a fault plan layered on top (rescale under
chaos)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import chaos_coordinator_config
from repro.faults import FaultEvent, FaultPlan, MessageFaultProfile, random_plan
from repro.rescale import RescalePlan, RescaleStep, staged_plan
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.workloads import Account


def _rescale_config(targets=(4, 3), *, workers=2, start_ms=300.0,
                    interval_ms=400.0, pipeline_depth=None,
                    fault_plan=None) -> StateflowConfig:
    return StateflowConfig(
        workers=workers, pipeline_depth=pipeline_depth,
        rescale_plan=staged_plan(targets, start_ms=start_ms,
                                 interval_ms=interval_ms),
        fault_plan=fault_plan,
        coordinator=chaos_coordinator_config())


def _quiesce(runtime, extra_ms=30_000.0):
    runtime.sim.run(until=runtime.sim.now + extra_ms)


transfer_plan = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 30)),
    min_size=1, max_size=30)


@pytest.mark.parametrize("pipeline_depth", [1, 2])
@given(transfer_plan)
@settings(max_examples=8, deadline=None)
def test_transfers_serializable_under_rescale(account_program,
                                              pipeline_depth, plan):
    """Transfer histories spanning a 2 -> 4 -> 3 resize must still
    check out, with serial and with pipelined batches: conservation,
    non-negative balances, exactly one commit per submitted request."""
    runtime = StateflowRuntime(
        account_program,
        config=_rescale_config(pipeline_depth=pipeline_depth))
    refs = runtime.preload(Account,
                           [(f"acct-{i}", 100) for i in range(6)])
    runtime.start()
    replies: list[int] = []
    for index, (source, target, amount) in enumerate(plan):
        if source == target:
            target = (target + 1) % 6
        runtime.sim.schedule_at(
            index * 40.0,
            lambda s=source, t=target, a=amount: runtime.submit(
                refs[s], "transfer", (a, refs[t]),
                on_reply=lambda reply: replies.append(reply.request_id)))
    runtime.sim.run_until(lambda: len(replies) >= len(plan),
                          max_time=120_000)
    _quiesce(runtime)
    balances = [runtime.entity_state(ref)["balance"] for ref in refs]
    assert sum(balances) == 600, balances
    assert all(balance >= 0 for balance in balances), balances
    assert len(replies) == len(plan), "a commit was lost across a rescale"
    assert len(set(replies)) == len(replies), "a reply was duplicated"
    assert runtime.coordinator.rescales == 2
    assert runtime.worker_count == 3


@given(st.lists(st.integers(1, 9), min_size=1, max_size=30))
@settings(max_examples=8, deadline=None)
def test_increments_exact_under_rescale(account_program, increments):
    """Hot-key increments are lost-update detectors: migrating the hot
    key's slot mid-stream must not drop or double-apply a commit."""
    runtime = StateflowRuntime(account_program, config=_rescale_config())
    (ref,) = runtime.preload(Account, [("hot", 0)])
    runtime.start()
    for index, amount in enumerate(increments):
        runtime.sim.schedule_at(
            index * 50.0, lambda a=amount: runtime.submit(ref, "add", (a,)))
    expected = sum(increments)
    runtime.sim.run_until(
        lambda: (runtime.entity_state(ref) or {}).get("balance") == expected,
        max_time=120_000)
    assert runtime.entity_state(ref)["balance"] == expected
    # A short history can finish before the plan's steps fire; let the
    # clock run past them and re-check the committed value survived.
    _quiesce(runtime)
    assert runtime.coordinator.rescales == 2
    assert runtime.entity_state(ref)["balance"] == expected


def test_tpcc_history_matches_serial_oracle_under_rescale(tpcc_program):
    """A sequential TPC-C history across a 3 -> 5 -> 2 resize must
    commit exactly the serial-order (fixed-size Local) state."""
    from repro.core.refs import EntityRef
    from repro.runtimes import LocalRuntime
    from repro.workloads import order_line_refs, sample_dataset

    def drive(runtime) -> tuple:
        customer = EntityRef("Customer", "wh-0:d-0:c-0")
        district = EntityRef("District", "wh-0:d-0")
        warehouse = EntityRef("Warehouse", "wh-0")
        outcomes = []
        for lines, qties in (([1, 2], [4, 4]), ([3], [2]), ([2, 4], [1, 5])):
            outcomes.append(runtime.call(
                customer, "new_order", district,
                order_line_refs("wh-0", lines), qties))
        outcomes.append(runtime.call(customer, "payment", 99,
                                     warehouse, district))
        return (outcomes, runtime.entity_state(customer),
                runtime.entity_state(district),
                runtime.entity_state(warehouse))

    oracle = LocalRuntime(tpcc_program)
    for entity_name, rows in sample_dataset().items():
        for args in rows:
            oracle.create(entity_name, *args)
    expected = drive(oracle)

    elastic = StateflowRuntime(tpcc_program, config=StateflowConfig(
        workers=3,
        rescale_plan=RescalePlan(steps=[RescaleStep(at_ms=30.0, workers=5),
                                        RescaleStep(at_ms=400.0, workers=2)]),
        coordinator=chaos_coordinator_config()))
    for entity_name, rows in sample_dataset().items():
        elastic.preload(entity_name, rows)
    elastic.start()
    actual = drive(elastic)
    assert actual == expected
    assert elastic.coordinator.rescales >= 1, (
        "the plan should actually have resized the cluster")


# ---------------------------------------------------------------------------
# Rescale under chaos: resizes interleaved with crashes and faults
# ---------------------------------------------------------------------------


@given(transfer_plan, st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
def test_transfers_serializable_under_rescale_and_chaos(account_program,
                                                        plan, chaos_seed):
    """The full battery: a 2 -> 4 -> 3 resize while a random fault plan
    crashes workers, drops messages and partitions the cluster."""
    fault_plan = random_plan(chaos_seed, duration_ms=2_000.0, workers=4,
                             intensity="medium")
    runtime = StateflowRuntime(
        account_program,
        config=_rescale_config(start_ms=400.0, interval_ms=500.0,
                               fault_plan=fault_plan))
    refs = runtime.preload(Account,
                           [(f"acct-{i}", 100) for i in range(6)])
    runtime.start()
    replies: list[int] = []
    for index, (source, target, amount) in enumerate(plan):
        if source == target:
            target = (target + 1) % 6
        runtime.sim.schedule_at(
            index * 40.0,
            lambda s=source, t=target, a=amount: runtime.submit(
                refs[s], "transfer", (a, refs[t]),
                on_reply=lambda reply: replies.append(reply.request_id)))
    runtime.sim.run_until(lambda: len(replies) >= len(plan),
                          max_time=120_000)
    _quiesce(runtime)
    balances = [runtime.entity_state(ref)["balance"] for ref in refs]
    assert sum(balances) == 600, balances
    assert all(balance >= 0 for balance in balances), balances
    assert len(replies) == len(plan), "a commit was lost"
    assert len(set(replies)) == len(replies), "a reply was duplicated"


def test_migration_survives_worker_crash_mid_rescale(account_program):
    """Kill a migration source while slots are in flight: the rescale
    watchdog aborts the attempt, recovery restarts the workers (fencing
    stale installs via their incarnations), and the re-queued rescale
    completes — with no data loss."""
    plan = FaultPlan(seed=5, events=[
        # Crash a worker right as the (only) rescale begins migrating
        # (the injector resolves the index against the starting 2-worker
        # cluster, so this kills worker 0 — a migration source).
        FaultEvent(kind="crash_worker", at_ms=301.0, worker=2),
    ])
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=2,
        rescale_plan=RescalePlan(steps=[RescaleStep(at_ms=300.0, workers=4)]),
        fault_plan=plan, coordinator=chaos_coordinator_config()))
    refs = runtime.preload(Account,
                           [(f"acct-{i}", 50) for i in range(10)])
    runtime.start()
    done: list[int] = []
    for index in range(12):
        runtime.sim.schedule_at(
            index * 60.0,
            lambda s=index % 10, t=(index + 3) % 10: runtime.submit(
                refs[s], "transfer", (5, refs[t]),
                on_reply=lambda reply: done.append(reply.request_id)))
    runtime.sim.run_until(lambda: len(done) >= 12, max_time=120_000)
    _quiesce(runtime)
    balances = [runtime.entity_state(ref)["balance"] for ref in refs]
    assert sum(balances) == 500, balances
    assert len(done) == 12 and len(set(done)) == 12
    assert runtime.worker_count == 4
    assert runtime.coordinator.rescales == 1
    assert runtime.coordinator.rescale_aborts >= 1, (
        "the crash should have stalled the first migration attempt")
    assert runtime.coordinator.recoveries >= 1


def test_rescale_with_message_faults_over_migration_channel(account_program):
    """Drop/delay windows covering the migration traffic itself: slot
    transfers are retried through recovery until they land."""
    plan = FaultPlan(seed=23, events=[
        FaultEvent(kind="messages", at_ms=250.0, duration_ms=700.0,
                   channel="network",
                   profile=MessageFaultProfile(drop_p=0.08, delay_p=0.3,
                                               delay_ms=25.0)),
    ])
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=2,
        rescale_plan=RescalePlan(steps=[RescaleStep(at_ms=300.0, workers=4),
                                        RescaleStep(at_ms=700.0,
                                                    workers=3)]),
        fault_plan=plan, coordinator=chaos_coordinator_config()))
    refs = runtime.preload(Account, [(f"acct-{i}", 100) for i in range(6)])
    runtime.start()
    done: list[int] = []
    for index in range(15):
        runtime.sim.schedule_at(
            index * 50.0,
            lambda s=index % 6, t=(index + 1) % 6: runtime.submit(
                refs[s], "transfer", (2, refs[t]),
                on_reply=lambda reply: done.append(reply.request_id)))
    runtime.sim.run_until(lambda: len(done) >= 15, max_time=120_000)
    _quiesce(runtime)
    balances = [runtime.entity_state(ref)["balance"] for ref in refs]
    assert sum(balances) == 600, balances
    assert len(done) == 15 and len(set(done)) == 15
    assert runtime.worker_count == 3


# ---------------------------------------------------------------------------
# Acceptance scenario: 2 -> 4 -> 3 under load, replayed byte-identically
# ---------------------------------------------------------------------------


def _acceptance_run(account_program, pipeline_depth):
    from repro.workloads import DriverConfig, WorkloadDriver, YcsbWorkload

    runtime = StateflowRuntime(
        account_program,
        config=_rescale_config(start_ms=400.0, interval_ms=600.0,
                               pipeline_depth=pipeline_depth))
    trace: list[tuple] = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error,
         runtime.sim.now))
    workload = YcsbWorkload("T", record_count=24, distribution="uniform",
                            seed=11, initial_balance=500)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=120, duration_ms=1_800, warmup_ms=0, drain_ms=20_000, seed=13))
    result = driver.run()
    _quiesce(runtime, 20_000)
    state = materialize_snapshot(runtime.committed.snapshot())
    state_bytes = repr(sorted(state.items(), key=repr)).encode("utf-8")
    return runtime, workload, result, trace, state, state_bytes


@pytest.mark.parametrize("pipeline_depth", [1, 2])
def test_acceptance_2_4_3_under_load(account_program, pipeline_depth):
    runtime, workload, result, trace, state, state_bytes = \
        _acceptance_run(account_program, pipeline_depth)
    # Serial oracle: conservation and exactly-once completion.
    total = sum(entry["balance"] for (entity, _), entry in state.items()
                if entity == "Account")
    assert total == workload.total_balance()
    request_ids = [entry[0] for entry in trace]
    assert len(request_ids) == result.sent
    assert len(set(request_ids)) == len(request_ids)
    # The topology walked 2 -> 4 -> 3 and migration was measured.
    coordinator = runtime.coordinator
    assert [record.to_workers for record in coordinator.rescale_log] == [4, 3]
    assert runtime.worker_count == 3
    assert coordinator.slots_migrated > 0
    assert coordinator.keys_migrated > 0
    assert all(record.pause_ms > 0 for record in coordinator.rescale_log)
    # Byte-identical replay from the same seeds.
    _, _, _, trace2, _, state_bytes2 = _acceptance_run(account_program,
                                                       pipeline_depth)
    assert state_bytes == state_bytes2
    assert trace == trace2
