"""A read writes nothing.

``Account.read`` is read-only (no block of it may write the entity), so
its visit skips the flush: no ``put``, so no dirty-set entry and no
pinned-view pre-image, and the coordinator keeps its key out of the
batch's write footprint, so the commit has nothing of it to log or
fold.  ``Account.write`` still does all four.  On the process substrate
a read's single-key write-backs are empty.
"""

from __future__ import annotations

import pytest

from repro.ir.events import EntityRef, Event, EventKind
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.executor import OperatorExecutor
from repro.runtimes.state import SlotAssignment
from repro.runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
)
from repro.runtimes.stateflow import procworker
from repro.runtimes.stateflow.coordinator import Coordinator
from repro.substrates.wire import ExecuteSingleKey, Seed
from repro.workloads import Account

#: A version no batch pins: the coordinator never releases it.
PINNED = 10_000


@pytest.fixture()
def watched(account_program, monkeypatch):
    """A runtime with a pinned view, an incremental changelog and a
    registered view, and the footprint of every batch it closes."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=2, snapshot_mode="incremental",
        coordinator=CoordinatorConfig(snapshot_interval_ms=1e9)))
    runtime.preload(Account, [(f"acct-{i}", 100) for i in range(8)])
    runtime.start()
    QueryEngine(runtime).register_view(
        ViewSpec("total", "Account", "sum", field="balance"))
    runtime.committed.pin_view(PINNED)
    footprints: list[set] = []
    observe = Coordinator._observe_batch_writes

    def recording(self, batch):
        footprints.append(set(batch.footprint))
        observe(self, batch)

    monkeypatch.setattr(Coordinator, "_observe_batch_writes", recording)
    return runtime, footprints


def _traces(watched, key):
    """Where a committed write of *key* leaves a mark."""
    runtime, footprints = watched
    store = runtime.committed
    slot = store.slot_backend(store.slot_of(*key))
    return {
        "dirty": key in slot._dirty,
        "pre-image": key in store.view(PINNED).overlay,
        "footprint": any(key in footprint for footprint in footprints),
        "changelog": runtime.coordinator.changelog.appended,
        "folded": runtime.views.keys_applied,
    }


def test_a_read_leaves_no_mark(watched):
    key = ("Account", "acct-3")
    before = _traces(watched, key)
    runtime, _ = watched
    assert runtime.invoke(EntityRef(*key), "read").unwrap() == 100
    assert _traces(watched, key) == before


def test_a_write_leaves_every_mark(watched):
    key = ("Account", "acct-3")
    before = _traces(watched, key)
    assert not (before["dirty"] or before["pre-image"]
                or before["footprint"])
    runtime, _ = watched
    assert runtime.invoke(EntityRef(*key), "write", "x").unwrap() is True
    assert _traces(watched, key) == {
        "dirty": True, "pre-image": True, "footprint": True,
        "changelog": before["changelog"] + 1,
        "folded": before["folded"] + 1}


def test_a_process_child_sends_no_write_back_for_a_read(account_program):
    routing = SlotAssignment(1, slots=2)
    child = procworker.ChildWorker(
        0, OperatorExecutor(account_program.entities))
    key = ("Account", "acct-1")
    child.on_control(Seed({slot: {key: {"account_id": "acct-1",
                                        "balance": 9, "payload": ""}}
                           if slot == routing.slot_of(*key) else {}
                           for slot in routing.slots_of(0)}, routing))

    def single_key(method, *args):
        event = Event(kind=EventKind.INVOKE, target=EntityRef(*key),
                      method=method, args=args, request_id=1)
        done, hops = child.on_control(ExecuteSingleKey([event], seq=1))
        assert hops == {}
        (reply,) = done.replies
        return reply.payload, done.writes

    assert single_key("read") == (9, {})
    value, writes = single_key("write", "x")
    assert value is True and writes[key]["payload"] == "x"
    assert single_key("read") == (9, {})
