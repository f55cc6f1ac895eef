"""Spawner wiring: substrate resolution and the tier-1 process smoke.

The heavyweight process-substrate parity battery (serial oracle,
crash/recovery) lives in ``tests/integration/test_process_spawner.py``
and is marked ``slow``; this file keeps a fast end-to-end smoke in
tier 1 so a broken process path fails the default suite, not just CI's
process-smoke job — and pins what a request costs in hops as exact
counts of frames, executor visits and loopback records.
"""

from __future__ import annotations

import multiprocessing
from collections import Counter
from typing import Any

import pytest
from slot_moves import assert_writes_survive_slot_moves

from repro.bench.harness import process_stateflow_overrides
from repro.compiler.pipeline import compile_program
from repro.faults import FaultPlan
from repro.core.errors import InvocationError
from repro.ir.events import EntityRef, Event, EventKind, TxnContext
from repro.runtimes.executor import OperatorExecutor
from repro.runtimes.state import PartitionedStore, SlotAssignment
from repro.runtimes.stateflow import (
    StateflowConfig,
    StateflowRuntime,
    coordinator,
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
from repro.substrates.wire import Deliver, Hop, InstallSlot, Routing, Seed
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
    """Everything that crosses the parent's side of the pipes, every
    event a child handed back, and how many frames went child to child,
    from the moment it is installed."""

    def __init__(self, runtime: StateflowRuntime, hops: Any,
                 monkeypatch) -> None:
        self.runtime = runtime
        self.sent: list[str] = []
        self.received: list[str] = []
        self.handed_back: list[tuple] = []   # (event, sending worker)
        self.hopped = 0
        self._hops = hops
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
        and leaves its frames in ``sent``/``received``/``hopped``."""
        del self.sent[:], self.received[:]
        before, hops = self.visits(), self._hops.value
        assert self.runtime.invoke(source, "transfer", 1,
                                   target).unwrap() is True
        self.hopped = self._hops.value - hops
        return self.visits() - before


@pytest.fixture
def two_workers(account_program, monkeypatch, request):
    """A two-worker process runtime, its accounts grouped by owner, and
    a tap on its pipes; ``request.param`` is the channel mode."""
    # Installed before the children fork, so it counts in them: the
    # parent never encodes a ``Hop``.
    hops = multiprocessing.get_context("fork").Value("i", 0)
    encode = procworker.encode_frame

    def counting_encode(message):
        if isinstance(message, Hop):
            with hops.get_lock():
                hops.value += 1
        return encode(message)

    monkeypatch.setattr(procworker, "encode_frame", counting_encode)
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
        yield HopTap(runtime, hops, monkeypatch), owned
    finally:
        runtime.close()


@pytest.mark.parametrize("two_workers", ["direct"], indirect=True)
def test_a_call_chain_stays_in_the_worker_that_owns_it(two_workers) -> None:
    tap, owned = two_workers
    # Same owner: the chain crosses the pipe once, then commits — one
    # acked bucket, to the owner alone.
    assert tap.transfer(owned[0][0], owned[0][1]) == 3
    assert tap.sent == ["Deliver", "ApplyWrites"]
    assert tap.received == ["Out", "Ack"]
    assert tap.hopped == 0
    assert tap.transfer(owned[1][1], owned[1][0]) == 3
    assert (len(tap.sent) + len(tap.received), tap.hopped) == (4, 0)
    # Two owners: the chain hops once, to the callee's child, which also
    # runs the caller's state-free tail and hands the parent the reply;
    # each owner gets its bucket acked.
    assert tap.transfer(owned[0][0], owned[1][0]) == 3
    assert Counter(tap.sent) == {"Deliver": 1, "ApplyWrites": 2}
    assert tap.sent[0] == "Deliver"
    assert Counter(tap.received) == {"Out": 1, "Ack": 2}
    assert tap.hopped == 1
    # Each reply came from the worker whose child ran the chain's end.
    assert [sender for _, sender in tap.handed_back] == [0, 1, 1]
    # Nothing but replies ever came back.
    assert all(event.kind is EventKind.REPLY for event, _ in tap.handed_back)
    balances = [tap.runtime.entity_state(ref)["balance"]
                for refs in owned.values() for ref in refs]
    assert sum(balances) == 100 * len(balances)


@pytest.mark.parametrize("two_workers", ["kafka"], indirect=True)
def test_kafka_channels_loop_every_hop_through_the_broker(
        two_workers) -> None:
    """``channel_mode="kafka"`` means exactly that on this substrate
    too: the child continues nothing and has no channel to another, so
    even a same-owner transfer is three ``Deliver``s and two loopback
    records."""
    tap, owned = two_workers
    broker = tap.runtime.broker
    before = broker.records_produced
    assert tap.transfer(owned[0][0], owned[0][1]) == 3
    assert Counter(tap.sent) == {"Deliver": 3, "ApplyWrites": 1}
    assert Counter(tap.received) == {"Out": 3, "Ack": 1}
    assert tap.hopped == 0
    # The request, its reply, and one loopback per hop between entities.
    assert broker.records_produced - before == 2 + 2


def _accounts(names: list[str], routing: SlotAssignment,
              owner: int) -> PartitionedStore:
    """The slots *owner* holds under *routing*, as its child does."""
    store = PartitionedStore(routing.workers, slots=routing.slots)
    store.assignment = routing
    for name in names:
        if routing.worker_of("Account", name) == owner:
            store.put("Account", name, {"account_id": name, "balance": 100,
                                        "payload": ""})
    return store


def _transfer(source: str, amount: int, target: str) -> Event:
    return Event(kind=EventKind.INVOKE, target=EntityRef("Account", source),
                 method="transfer",
                 args=(amount, EntityRef("Account", target)), request_id=1,
                 txn=TxnContext(tid=0, batch_id=0))


def test_run_chains_continues_only_what_the_table_gives_it(
        account_program, zoo_program) -> None:
    """The child's loop, in-process, over the slots one worker owns: it
    keeps every event it emits to itself and every RESUME that needs no
    state, sorts any other event for another owner by owner, and unless
    ``direct`` hands every emitted event back with the replies."""
    executor = OperatorExecutor(account_program.entities)
    routing = SlotAssignment(2, slots=8)
    names = [f"acct-{i}" for i in range(12)]
    mine = [name for name in names
            if routing.worker_of("Account", name) == 0]
    theirs = [name for name in names
              if routing.worker_of("Account", name) == 1]

    def transfer(target: str, direct: bool = True):
        store = _accounts(names, routing, 0)
        return procworker.run_chains(
            executor, store.partition(0), routing, 0,
            [_transfer(mine[0], 5, target)], direct=direct)

    (reply,), others, visits = transfer(mine[1])
    assert (reply.kind, reply.payload, others, visits) == (
        EventKind.REPLY, True, {}, 3)
    assert set(reply.txn.write_set) == {("Account", mine[0]),
                                        ("Account", mine[1])}
    out, others, visits = transfer(theirs[0])
    ((owner, (invoke,)),) = others.items()
    assert (out, owner, invoke.kind, invoke.target.key, visits) == (
        [], 1, EventKind.INVOKE, theirs[0], 1)
    (hop,), others, visits = transfer(mine[1], direct=False)
    assert (hop.kind, hop.target.key, others, visits) == (
        EventKind.INVOKE, mine[1], {}, 1)
    # The callee's worker resumes the caller's state-free tail itself,
    # though worker 0 owns the caller: one hop, and the reply is its.
    store = _accounts(names, routing, 1)
    (reply,), others, visits = procworker.run_chains(
        executor, store.partition(1), routing, 1, [invoke], direct=True)
    assert (reply.kind, reply.payload, reply.error, others, visits) == (
        EventKind.REPLY, True, None, {}, 2)
    assert reply.txn.write_set == {
        ("Account", mine[0]): {"account_id": mine[0], "balance": 95,
                               "payload": ""},
        ("Account", theirs[0]): {"account_id": theirs[0], "balance": 105,
                                 "payload": ""}}

    # A tail that needs state goes to the caller's owner.  Zoo.straight
    # resumes state-free after its first call and needs ``self`` after
    # its second.
    zoo = OperatorExecutor(zoo_program.entities)
    keys = [f"k{i}" for i in range(40)]
    zid = next(key for key in keys if routing.worker_of("Zoo", key) == 0)
    cid = next(key for key in keys if routing.worker_of("Counter", key) == 1)
    stores = [PartitionedStore(2, slots=8) for _ in (0, 1)]
    for store in stores:
        store.assignment = routing
    stores[0].put("Zoo", zid, {"zid": zid, "calls": 0})
    stores[1].put("Counter", cid, {"cid": cid, "value": 0})

    def call(method: str, x: Any):
        start = Event(kind=EventKind.INVOKE, target=EntityRef("Zoo", zid),
                      method=method, args=(EntityRef("Counter", cid), x),
                      request_id=2, txn=TxnContext(tid=0, batch_id=0))
        out, others, visits = procworker.run_chains(
            zoo, stores[0].partition(0), routing, 0, [start], direct=True)
        assert (out, list(others), visits) == ([], [1], 1)
        return procworker.run_chains(
            zoo, stores[1].partition(1), routing, 1, others[1], direct=True)

    out, others, visits = call("straight", 3)
    ((owner, (resume,)),) = others.items()
    assert (out, owner, visits) == ([], 0, 3)
    assert (resume.kind, resume.execution.top.node) == (
        EventKind.RESUME, "straight_2")
    # A state-free tail that raises at the callee's worker names the
    # caller's block that raised.
    (reply,), others, visits = call("expr_nested", "ab")
    assert (others, visits) == ({}, 4)
    assert reply.error.startswith(
        "error while executing Zoo.expr_nested_2: TypeError(")


def test_child_holds_exactly_the_slots_it_owns(account_program) -> None:
    """A seed fills the owned slots; an installed slot holds exactly the
    shipped entries (what the child held for it and the fragment lacks
    is gone); a table that gives a slot away drops it.  Other slots are
    never touched."""
    routing = SlotAssignment(2, slots=4)
    keys = [("Account", f"acct-{i}") for i in range(16)]
    mine = routing.slots_of(0)

    def in_slot(slot: int) -> list:
        return [key for key in keys if routing.slot_of(*key) == slot]

    child = procworker.ChildWorker(
        0, OperatorExecutor(account_program.entities))
    child.on_control(Seed({slot: {key: {"balance": 1}
                                  for key in in_slot(slot)}
                           for slot in mine}, routing))
    owned = {key for slot in mine for key in in_slot(slot)}
    assert set(child.store.keys()) == owned
    assert all(child.slice.get(*key) is None
               for key in set(keys) - owned)
    kept, dropped = in_slot(mine[0])[0], in_slot(mine[0])[1:]
    assert dropped
    child.on_control(InstallSlot(mine[0], {kept: {"balance": 7}}))
    assert child.slice.get(*kept) == {"balance": 7}
    assert set(child.store.keys()) == owned - set(dropped)
    given_away = SlotAssignment(2, slots=4)
    given_away.owners[mine[1]] = 1
    given_away.epoch = 1
    child.on_control(Routing(given_away))
    assert set(child.store.keys()) == (
        owned - set(dropped) - set(in_slot(mine[1])))


def test_a_hop_routed_under_a_newer_table_waits_for_it(
        account_program) -> None:
    """After a rescale a hop can reach the slot's new owner before the
    parent's ``Routing`` does.  It is held — run under the old table it
    would miss the moved key — and runs once the table arrives."""
    before = SlotAssignment(2, slots=8)
    names = [f"acct-{i}" for i in range(16)]
    source = next(name for name in names
                  if before.worker_of("Account", name) == 0)
    target = next(name for name in names
                  if before.worker_of("Account", name) == 0
                  and before.slot_of("Account", name)
                  != before.slot_of("Account", source))
    moved = before.slot_of("Account", target)
    after = SlotAssignment(2, slots=8)
    after.owners[moved] = 1
    after.epoch = 1
    children = [procworker.ChildWorker(
        index, OperatorExecutor(account_program.entities))
        for index in (0, 1)]
    entries = _accounts(names, before, 0)
    for index, child in enumerate(children):
        child.on_control(Seed(
            {slot: entries.snapshot_slot(slot) if index == 0 else {}
             for slot in before.slots_of(index)}, before, direct=True))
        child.peers.add(1 - index)
    first, second = children
    # The new table and the moved slot reach the old owner's child, and
    # its chain hops to the new owner under them.
    first.on_control(Routing(after))
    out, hops = first.on_control(Deliver([_transfer(source, 5, target)]))
    assert out is None and list(hops) == [1] and hops[1].epoch == 1
    assert second.on_hop(hops[1]) == (None, {})
    assert second.on_control(InstallSlot(
        moved, entries.snapshot_slot(moved))) == (None, {})
    # The caller's tail needs no state: the new owner ends the chain.
    reply, back = second.on_control(Routing(after))
    assert back == {} and reply.visits == 3
    (event,) = reply.events
    assert (event.kind, event.payload, event.error) == (
        EventKind.REPLY, True, None)
    assert event.txn.write_set[("Account", target)]["balance"] == 105


@pytest.mark.parametrize("channel_mode", ["direct", "kafka"])
def test_a_client_create_checks_for_duplicates_at_the_key_owner(
        account_program, channel_mode) -> None:
    """A client's ``__init__`` is routed before its key is known, and a
    child holds only what it owns: the duplicate-key check must run at
    the owner of the key the constructor produced, whether the CREATE
    hops there or loops through the broker."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        **process_stateflow_overrides(workers=2,
                                      channel_mode=channel_mode)))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(12)])
        runtime.start()
        router = runtime.worker_of("Account", None)
        taken = next(ref for ref in refs
                     if runtime.worker_of(ref.entity, ref.key) != router)
        with pytest.raises(InvocationError, match="already exists"):
            runtime.create(Account, taken.key, 5)
        assert runtime.entity_state(taken)["balance"] == 100
        fresh = next(key for key in (f"new-{i}" for i in range(100))
                     if runtime.worker_of("Account", key) != router)
        assert runtime.create(Account, fresh, 5) == EntityRef("Account",
                                                              fresh)
        with pytest.raises(InvocationError, match="already exists"):
            runtime.create(Account, fresh, 6)
        assert runtime.invoke(EntityRef("Account", fresh),
                              "read").unwrap() == 5
    finally:
        runtime.close()


def test_a_transfer_under_the_preset_sets_no_coordinator_timer(
        account_program, monkeypatch) -> None:
    """The process preset zeroes every modelled cost, the fixed parts of
    conflict detection included: on the wall clock a positive delay is
    a real timer the parent waits out.  The periodic ticks are not part
    of any request."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        **process_stateflow_overrides(workers=2)))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(12)])
        runtime.start()
        assert runtime.invoke(refs[0], "read").unwrap() == 100
        kernel = runtime.sim
        schedule, schedule_at = kernel.schedule, kernel.schedule_at
        delays: list[tuple[str, float]] = []

        def note(delay: float, callback) -> None:
            if (callback.__module__ == coordinator.__name__
                    and "_schedule_tick" not in callback.__qualname__):
                delays.append((callback.__qualname__, delay))

        def scheduling(delay, callback):
            note(delay, callback)
            return schedule(delay, callback)

        def scheduling_at(when, callback):
            note(when - kernel.now, callback)
            return schedule_at(when, callback)

        monkeypatch.setattr(kernel, "schedule", scheduling)
        monkeypatch.setattr(kernel, "schedule_at", scheduling_at)
        source = refs[0]
        target = next(ref for ref in refs
                      if runtime.worker_of(ref.entity, ref.key)
                      != runtime.worker_of(source.entity, source.key))
        assert runtime.invoke(source, "transfer", 1, target).unwrap() is True
        assert delays
        # The zeroed network model is exactly zero.
        assert all(delay <= 0 for _, delay in delays), delays
    finally:
        runtime.close()


def test_single_key_writes_follow_their_slot_two_workers(
        account_program) -> None:
    """Tier-1 variant of the lost-update regression (2 -> 1 -> 2); the
    three-worker one is in the slow battery."""
    assert_writes_survive_slot_moves(account_program, workers=2,
                                     shrink_to=1)
