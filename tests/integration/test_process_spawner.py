"""Process-substrate parity: the serializability oracles re-run on real
worker processes.

The deterministic battery stays on the simulator; this subset proves
the wire format, owner-only state with child-to-child hops, and
crash/recovery on the wall clock.  Real seconds per test, so the
module is marked ``slow`` and excluded from tier 1 (CI's process-smoke
job runs it).
"""

from __future__ import annotations

import multiprocessing
import os
import signal

import pytest
from slot_moves import assert_writes_survive_slot_moves

from repro.core.refs import EntityRef
from repro.runtimes import LocalRuntime
from repro.runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
    procworker,
)
from repro.workloads import Account

pytestmark = pytest.mark.slow

#: Real-time deadline for a test's full history to commit (wall ms).
DEADLINE_MS = 90_000.0


def _process_config(pipeline_depth=2, **overrides) -> StateflowConfig:
    defaults = dict(
        spawner="process", workers=3,
        coordinator=CoordinatorConfig(
            failure_detect_ms=2_000.0, snapshot_interval_ms=500.0,
            pipeline_depth=pipeline_depth))
    defaults.update(overrides)
    return StateflowConfig(**defaults)


@pytest.mark.parametrize("depth", [1, 2])
def test_transfers_serial_oracle_on_process_substrate(account_program,
                                                      depth):
    """A concurrent mix of transfers and single-key deposits across real
    processes, with the cluster shrinking and growing back mid-history,
    must end in a state reachable by some serial order: conservation of
    the total, non-negative balances, and exactly one reply per
    request.  At depth 2 a batch's hops between children interleave
    with the parent's commit frames of the batch before it."""
    runtime = StateflowRuntime(account_program,
                               config=_process_config(pipeline_depth=depth))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(6)])
        runtime.start()
        plan = [(i % 6, (i * 3 + 1) % 6, 7 + i % 11) for i in range(60)]
        replies: list[int] = []
        sent = deposited = 0

        def submit(ref, method, args) -> None:
            nonlocal sent
            sent += 1
            runtime.submit(ref, method, args,
                           on_reply=lambda r: replies.append(r.request_id))

        for step, (source, target, amount) in enumerate(plan):
            if source == target:
                target = (target + 1) % 6
            submit(refs[source], "transfer", (amount, refs[target]))
            if step % 3 == 0:
                submit(refs[target], "deposit", (amount,))
                deposited += amount
            if step in (20, 40):
                # Mid-history, with requests queued on both sides of it.
                runtime.request_rescale(2 if step == 20 else 3)
                runtime.sim.run_until(lambda: len(replies) >= sent - 10,
                                      max_time=runtime.sim.now + DEADLINE_MS)
        deadline = runtime.sim.now + DEADLINE_MS
        assert runtime.sim.run_until(lambda: len(replies) >= sent,
                                     max_time=deadline), (
            f"only {len(replies)}/{sent} replies before the deadline")
        assert runtime.coordinator.rescales == 2
        balances = [runtime.entity_state(ref)["balance"] for ref in refs]
        assert sum(balances) == 600 + deposited, balances
        assert all(balance >= 0 for balance in balances), balances
        assert len(replies) == len(set(replies)) == sent, "duplicated reply"
        # The children agree with the authoritative store.
        for ref, balance in zip(refs, balances):
            assert runtime.invoke(ref, "read").unwrap() == balance
    finally:
        runtime.close()


def test_tpcc_payments_serial_oracle_on_process_substrate(tpcc_program):
    """A TPC-C payment resumes twice without state, each time at the
    child that ran the call before it.  Concurrent payments across two
    real processes, with the cluster growing to three mid-history, must
    leave every customer, district and warehouse where a serial run of
    the same payments leaves it, and answer each request once."""
    rows = {"Warehouse": [("w0", 7), ("w1", 7)],
            "District": [(f"d{i}", 9) for i in range(4)],
            "Customer": [(f"c{i}", 1_000_000) for i in range(8)]}
    plan = [(EntityRef("Customer", f"c{i % 8}"), 5 + i % 13,
             EntityRef("Warehouse", f"w{i % 2}"),
             EntityRef("District", f"d{(i * 3) % 4}")) for i in range(60)]
    oracle = LocalRuntime(tpcc_program)
    for entity, entity_rows in rows.items():
        for row in entity_rows:
            oracle.create(entity, *row)
    for customer, *args in plan:
        assert oracle.call(customer, "payment", *args) is True
    runtime = StateflowRuntime(tpcc_program,
                               config=_process_config(workers=2))
    try:
        refs = [ref for entity, entity_rows in rows.items()
                for ref in runtime.preload(entity, entity_rows)]
        runtime.start()
        replies: dict[int, object] = {}
        for step, (customer, *args) in enumerate(plan):
            runtime.submit(customer, "payment", tuple(args),
                           on_reply=lambda r: replies.setdefault(
                               r.request_id, r.error or r.payload))
            if step == 30:
                runtime.request_rescale(3)
                runtime.sim.run_until(lambda: len(replies) >= step - 5,
                                      max_time=runtime.sim.now + DEADLINE_MS)
        assert runtime.sim.run_until(lambda: len(replies) >= len(plan),
                                     max_time=runtime.sim.now + DEADLINE_MS), (
            f"only {len(replies)}/{len(plan)} replies before the deadline")
        assert runtime.coordinator.rescales == 1
        assert list(replies.values()) == [True] * len(plan)
        for ref in refs:
            assert runtime.entity_state(ref) == oracle.entity_state(ref), ref
    finally:
        runtime.close()


def test_single_key_writes_follow_their_slot(account_program):
    """Lost-update regression: single-key write-backs reach only the
    owner's child, so a slot that moves (3 -> 2 -> 3 workers) must ship
    its entries to the new owner's child."""
    assert_writes_survive_slot_moves(account_program, workers=3,
                                     shrink_to=2)


def test_crash_recovery_on_process_substrate(account_program):
    """Kill a real worker process mid-history: the watchdog must
    restore from the last snapshot, respawn + re-seed the process, and
    the hot-key increment sum must come out exact (no lost or
    double-applied commits)."""
    runtime = StateflowRuntime(account_program, config=_process_config())
    try:
        (ref,) = runtime.preload(Account, [("hot", 0)])
        runtime.start()
        increments = [1 + (i % 9) for i in range(30)]
        expected = sum(increments)
        replies: list[int] = []

        def submit(amount: int) -> None:
            runtime.submit(ref, "add", (amount,),
                           on_reply=lambda r: replies.append(r.request_id))

        # First half, then a real SIGKILL-grade crash, then the rest.
        for amount in increments[:10]:
            submit(amount)
        runtime.sim.run_until(lambda: len(replies) >= 5,
                              max_time=runtime.sim.now + DEADLINE_MS)
        victim = runtime.workers[1]
        incarnation_before = victim.incarnation
        runtime.fail_worker(1)
        assert not victim.alive
        for amount in increments[10:]:
            submit(amount)
        deadline = runtime.sim.now + DEADLINE_MS
        assert runtime.sim.run_until(
            lambda: (runtime.entity_state(ref) or {}).get("balance")
            == expected and len(replies) >= len(increments),
            max_time=deadline), (
            f"balance {(runtime.entity_state(ref) or {}).get('balance')} "
            f"!= {expected} ({len(replies)} replies)")
        assert runtime.entity_state(ref)["balance"] == expected
        assert victim.alive, "recovery should have respawned the worker"
        assert victim.incarnation > incarnation_before
        assert runtime.coordinator.recoveries >= 1
    finally:
        runtime.close()


def test_callee_killed_after_a_peer_hop(account_program, monkeypatch):
    """Transfers between two owners, and the callee's child SIGKILLs
    itself as a hop reaches it, before answering: the chain dies with
    it, the parent never saw it, and only the watchdog can notice.
    Recovery must answer every request exactly once and conserve the
    total."""
    died = multiprocessing.get_context("fork").Value("i", 0)
    on_hop = procworker.ChildWorker.on_hop

    def dying(worker, hop):
        if worker.index == 1 and hop.events:
            with died.get_lock():
                first, died.value = died.value == 0, 1
            if first:
                os.kill(os.getpid(), signal.SIGKILL)
        return on_hop(worker, hop)

    # Patched before the children fork, so it is theirs; the parent
    # never handles a hop.
    monkeypatch.setattr(procworker.ChildWorker, "on_hop", dying)
    runtime = StateflowRuntime(account_program,
                               config=_process_config(workers=2))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(12)])
        runtime.start()
        owned = {0: [], 1: []}
        for ref in refs:
            owned[runtime.worker_of(ref.entity, ref.key)].append(ref)
        victim = runtime.workers[1]
        incarnation_before = victim.incarnation
        replies: list[int] = []
        sent = 0
        for step in range(40):
            source = owned[0][step % len(owned[0])]
            target = owned[1][step % len(owned[1])]
            runtime.submit(source, "transfer", (1 + step % 5, target),
                           on_reply=lambda r: replies.append(r.request_id))
            sent += 1
            if step % 10 == 9:
                runtime.sim.run_until(lambda: len(replies) >= sent - 5,
                                      max_time=runtime.sim.now + 5_000.0)
        assert runtime.sim.run_until(lambda: len(replies) >= sent,
                                     max_time=runtime.sim.now + DEADLINE_MS), (
            f"only {len(replies)}/{sent} replies before the deadline")
        assert died.value == 1
        assert runtime.coordinator.recoveries >= 1
        assert victim.alive and victim.incarnation > incarnation_before
        assert len(replies) == len(set(replies)) == sent, "duplicated reply"
        balances = [runtime.entity_state(ref)["balance"] for ref in refs]
        assert sum(balances) == 100 * len(refs), balances
        # The children agree with the authoritative store.
        for ref, balance in zip(refs, balances):
            assert runtime.invoke(ref, "read").unwrap() == balance
    finally:
        runtime.close()
