"""Spawner wiring: substrate resolution and the tier-1 process smoke.

The heavyweight process-substrate parity battery (serial oracle,
crash/recovery) lives in ``tests/integration/test_process_spawner.py``
and is marked ``slow``; this file keeps a fast end-to-end smoke in
tier 1 so a broken process path fails the default suite, not just CI's
process-smoke job — and pins what a request costs in hops as exact
counts of frames, executor visits and loopback records.
"""

from __future__ import annotations

from collections import Counter

import pytest
from slot_moves import assert_writes_survive_slot_moves

from repro.bench.harness import process_stateflow_overrides
from repro.compiler.pipeline import compile_program
from repro.faults import FaultPlan
from repro.ir.events import EntityRef, Event, EventKind, TxnContext
from repro.runtimes.executor import OperatorExecutor
from repro.runtimes.state import SlotAssignment
from repro.runtimes.stateflow import (
    StateflowConfig,
    StateflowRuntime,
    procworker,
)
from repro.runtimes.stateflow.runtime import RuntimeExecutionError
from repro.substrates import (
    ProcessSpawner,
    Simulation,
    SimulatorSpawner,
    WallClock,
    make_spawner,
)
from repro.workloads import Account


def test_make_spawner_resolves_names() -> None:
    assert isinstance(make_spawner("simulator"), SimulatorSpawner)
    assert isinstance(make_spawner("process"), ProcessSpawner)
    instance = SimulatorSpawner()
    assert make_spawner(instance) is instance


def test_make_spawner_rejects_unknown_names() -> None:
    with pytest.raises(ValueError, match="process"):
        make_spawner("threads")


def test_spawner_kernels() -> None:
    assert isinstance(SimulatorSpawner().make_kernel(7), Simulation)
    kernel = ProcessSpawner().make_kernel(7)
    assert isinstance(kernel, WallClock)
    assert SimulatorSpawner().wallclock is False
    assert ProcessSpawner().wallclock is True


def test_default_config_stays_on_the_simulator() -> None:
    program = compile_program([Account])
    runtime = StateflowRuntime(program)
    assert isinstance(runtime.sim, Simulation)
    assert runtime.spawner.name == "simulator"


def test_fault_plan_rejected_on_process_spawner() -> None:
    program = compile_program([Account])
    with pytest.raises(RuntimeExecutionError, match="fault plans"):
        StateflowRuntime(program, config=StateflowConfig(
            spawner="process", fault_plan=FaultPlan(seed=1)))


def test_process_substrate_smoke() -> None:
    """End-to-end on real worker processes: create, read, transfer,
    and committed state lands in the parent's authoritative store."""
    program = compile_program([Account])
    runtime = StateflowRuntime(program, config=StateflowConfig(
        spawner="process", workers=2, exec_service_ms=0.0,
        state_op_ms=0.0))
    try:
        runtime.preload(Account, [("alice", 100), ("bob", 50)])
        runtime.start()
        alice = EntityRef("Account", "alice")
        bob = EntityRef("Account", "bob")
        assert runtime.invoke(alice, "read").unwrap() == 100
        assert runtime.invoke(alice, "transfer", 30, bob).unwrap() is True
        assert runtime.invoke(alice, "read").unwrap() == 70
        assert runtime.invoke(bob, "read").unwrap() == 80
        # The parent-side store is authoritative.
        assert runtime.entity_state(alice)["balance"] == 70
        assert runtime.entity_state(bob)["balance"] == 80
    finally:
        runtime.close()


# ---------------------------------------------------------------------------
# Hops as exact counts
# ---------------------------------------------------------------------------


class HopTap:
    """Everything that crosses the parent's side of the pipes, and every
    event a child handed back, from the moment it is installed."""

    def __init__(self, runtime: StateflowRuntime, monkeypatch) -> None:
        self.runtime = runtime
        self.sent: list[str] = []
        self.received: list[str] = []
        self.handed_back: list[tuple] = []   # (event, sending worker)
        encode, decode = procworker.encode_frame, procworker.decode_frame
        relay = runtime._on_worker_out

        def tapped_encode(message):
            self.sent.append(type(message).__name__)
            return encode(message)

        def tapped_decode(frame):
            message = decode(frame)
            self.received.append(type(message).__name__)
            return message

        def tapped_relay(event, sender):
            self.handed_back.append((event, sender))
            relay(event, sender)

        # Installed after the children forked: only the parent is tapped.
        monkeypatch.setattr(procworker, "encode_frame", tapped_encode)
        monkeypatch.setattr(procworker, "decode_frame", tapped_decode)
        monkeypatch.setattr(runtime, "_on_worker_out", tapped_relay)

    def visits(self) -> int:
        return sum(worker.events_processed
                   for worker in self.runtime.workers)

    def transfer(self, source: EntityRef, target: EntityRef) -> int:
        """One committed transfer; returns the executor visits it took
        and leaves its frames in ``sent``/``received``."""
        del self.sent[:], self.received[:]
        before = self.visits()
        assert self.runtime.invoke(source, "transfer", 1,
                                   target).unwrap() is True
        return self.visits() - before


@pytest.fixture
def two_workers(account_program, monkeypatch, request):
    """A two-worker process runtime, its accounts grouped by owner, and
    a tap on its pipes; ``request.param`` is the channel mode."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        **process_stateflow_overrides(workers=2,
                                      channel_mode=request.param)))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(12)])
        runtime.start()
        owned: dict[int, list[EntityRef]] = {0: [], 1: []}
        for ref in refs:
            owned[runtime.worker_of(ref.entity, ref.key)].append(ref)
        assert len(owned[0]) >= 2 and len(owned[1]) >= 2
        # Seeds are out and the loop is warm before anything is counted.
        assert runtime.invoke(refs[0], "read").unwrap() == 100
        yield HopTap(runtime, monkeypatch), owned
    finally:
        runtime.close()


@pytest.mark.parametrize("two_workers", ["direct"], indirect=True)
def test_a_call_chain_stays_in_the_worker_that_owns_it(two_workers) -> None:
    tap, owned = two_workers
    # Same owner: the chain crosses the pipe once, then commits —
    # one acked bucket to the owner, one broadcast to the peer.
    assert tap.transfer(owned[0][0], owned[0][1]) == 3
    assert tap.sent == ["Deliver", "ApplyWrites", "ApplyWrites"]
    assert tap.received == ["Out", "Ack"]
    assert tap.transfer(owned[1][1], owned[1][0]) == 3
    assert len(tap.sent) + len(tap.received) == 5
    # Two owners: every hop relays through the parent, and each owner
    # gets its bucket acked and the other's broadcast.
    assert tap.transfer(owned[0][0], owned[1][0]) == 3
    assert tap.sent[:3] == ["Deliver"] * 3
    assert Counter(tap.sent) == {"Deliver": 3, "ApplyWrites": 4}
    assert Counter(tap.received) == {"Out": 3, "Ack": 2}
    # What came back was never the sender's own to execute.
    assert any(event.kind is not EventKind.REPLY
               for event, _ in tap.handed_back)
    for event, sender in tap.handed_back:
        assert event.kind is EventKind.REPLY or tap.runtime.worker_of(
            event.target.entity, event.target.key) != sender
    balances = [tap.runtime.entity_state(ref)["balance"]
                for refs in owned.values() for ref in refs]
    assert sum(balances) == 100 * len(balances)


@pytest.mark.parametrize("two_workers", ["kafka"], indirect=True)
def test_kafka_channels_loop_every_hop_through_the_broker(
        two_workers) -> None:
    """``channel_mode="kafka"`` means exactly that on this substrate
    too: the child is given no table and continues nothing, so even a
    same-owner transfer is three ``Deliver``s and two loopback
    records."""
    tap, owned = two_workers
    broker = tap.runtime.broker
    before = broker.records_produced
    assert tap.transfer(owned[0][0], owned[0][1]) == 3
    assert Counter(tap.sent) == {"Deliver": 3, "ApplyWrites": 2}
    assert Counter(tap.received) == {"Out": 3, "Ack": 1}
    # The request, its reply, and one loopback per hop between entities.
    assert broker.records_produced - before == 2 + 2


def test_run_chains_continues_only_what_the_table_gives_it(
        account_program) -> None:
    """The child's loop, in-process: with a table it keeps every event
    it emits to itself; an event for another owner, and everything when
    there is no table, goes back after one visit."""
    executor = OperatorExecutor(account_program.entities)
    routing = SlotAssignment(2, slots=8)
    names = [f"acct-{i}" for i in range(12)]
    mine = [name for name in names
            if routing.worker_of("Account", name) == 0]
    theirs = [name for name in names
              if routing.worker_of("Account", name) == 1]

    def transfer(target: str, table):
        replica = procworker.ReplicaStore()
        replica.replace({("Account", name): {
            "account_id": name, "balance": 100, "payload": ""}
            for name in names})
        event = Event(kind=EventKind.INVOKE,
                      target=EntityRef("Account", mine[0]),
                      method="transfer",
                      args=(5, EntityRef("Account", target)), request_id=1,
                      txn=TxnContext(tid=0, batch_id=0))
        return procworker.run_chains(executor, replica, table, 0, [event])

    (reply,), visits = transfer(mine[1], routing)
    assert (reply.kind, reply.payload, visits) == (EventKind.REPLY, True, 3)
    assert set(reply.txn.write_set) == {("Account", mine[0]),
                                        ("Account", mine[1])}
    (hop,), visits = transfer(theirs[0], routing)
    assert (hop.kind, hop.target.key, visits) == (
        EventKind.INVOKE, theirs[0], 1)
    (hop,), visits = transfer(mine[1], None)
    assert (hop.kind, hop.target.key, visits) == (
        EventKind.INVOKE, mine[1], 1)


def test_replica_install_slot_holds_exactly_the_shipped_entries() -> None:
    """With a table the replica drops what it held for the slot and the
    fragment lacks; without one it can only overwrite.  Other slots are
    never touched."""
    routing = SlotAssignment(2, slots=4)
    keys = [("Account", f"acct-{i}") for i in range(16)]
    slot = routing.slot_of(*keys[0])
    inside = [key for key in keys if routing.slot_of(*key) == slot]
    assert len(inside) >= 2 and len(inside) < len(keys)
    shipped = {inside[0]: {"balance": 7}}
    for table, dropped in ((routing, inside[1:]), (None, [])):
        replica = procworker.ReplicaStore()
        replica.replace({key: {"balance": 1} for key in keys})
        replica.install_slot(slot, shipped, table)
        assert replica.get(*inside[0]) == {"balance": 7}
        assert sorted(set(keys) - set(replica.store)) == sorted(dropped)


def test_single_key_writes_follow_their_slot_two_workers(
        account_program) -> None:
    """Tier-1 variant of the lost-update regression (2 -> 1 -> 2); the
    three-worker one is in the slow battery."""
    assert_writes_survive_slot_moves(account_program, workers=2,
                                     shrink_to=1)
