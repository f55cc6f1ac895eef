"""Nobody mutates a shared entry.

Snapshot and delta payloads alias the committed store's live entries
(``repro.runtimes.state``'s entry contract).  Recovery, changelog
repair, slot migration and view rehydration all *read* those payloads;
this battery fingerprints every payload handed to ``SnapshotStore.take``
at cut time and re-checks all of them after a chaos run that drives
each of those readers — a single in-place write anywhere would change
a fingerprint."""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.bench import chaos_coordinator_config
from repro.faults import FaultEvent, FaultPlan
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
)
from repro.runtimes.stateflow.snapshots import SnapshotStore
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

RECORDS = 20
BALANCE = 300

#: A worker crash, a coordinator fail-over, a torn delta fragment (a
#: no-op under ``snapshot_mode="full"``) and a rescale, spaced so each
#: recovery completes and new cuts land before the next fault.
PLAN = FaultPlan(seed=23, events=[
    FaultEvent(kind="crash_worker", at_ms=350.0, worker=1),
    FaultEvent(kind="torn_snapshot", at_ms=700.0, variant="drop"),
    FaultEvent(kind="crash_coordinator", at_ms=1_050.0, duration_ms=80.0),
    FaultEvent(kind="rescale", at_ms=1_600.0, target_workers=3),
])


@pytest.mark.parametrize("pipeline_depth", [1, 2])
@pytest.mark.parametrize("snapshot_mode", ["full", "incremental"])
def test_cut_payloads_are_never_written(account_program, monkeypatch,
                                        snapshot_mode, pipeline_depth):
    cuts: list[tuple[object, bytes]] = []
    take = SnapshotStore.take

    def fingerprinting_take(self, **kwargs):
        cuts.append((kwargs["state"], pickle.dumps(kwargs["state"])))
        return take(self, **kwargs)

    monkeypatch.setattr(SnapshotStore, "take", fingerprinting_take)
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=4, snapshot_mode=snapshot_mode, fault_plan=PLAN,
        coordinator=replace(chaos_coordinator_config(),
                            pipeline_depth=pipeline_depth)))
    workload = YcsbWorkload("T", record_count=RECORDS,
                            distribution="uniform", seed=5,
                            initial_balance=BALANCE)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    engine = QueryEngine(runtime)
    engine.register_view(ViewSpec("total", "Account", "sum",
                                  field="balance"))
    engine.register_view(ViewSpec("top3", "Account", "top_k",
                                  field="balance", k=3))
    WorkloadDriver(runtime, workload, DriverConfig(
        rps=90, duration_ms=2_400, warmup_ms=0, drain_ms=20_000,
        seed=6)).run()
    runtime.sim.run(until=runtime.sim.now + 20_000)

    # The plan did what it says: both recoveries, the tear, the rescale.
    coordinator = runtime.coordinator
    assert coordinator.recoveries >= 2
    assert coordinator.rescales == 1
    if snapshot_mode == "incremental":
        assert coordinator.snapshots.snapshots_torn == 1
    assert len(cuts) >= 6
    # ...and the run stayed correct, so the readers really ran.
    assert engine.view("total").value == RECORDS * BALANCE
    for name in runtime.views.names():
        assert runtime.views.read(name).value == runtime.views.expected(name)

    for index, (payload, fingerprint) in enumerate(cuts):
        assert pickle.dumps(payload) == fingerprint, (
            f"cut {index} of {len(cuts)} was written after it was taken")


def test_the_fan_out_shares_committed_entries(account_program, tmp_path):
    """The changelog and the views get the committed entries themselves;
    neither writes one: after a durable run with views, every entry the
    fan-out handed out equals a deep copy taken before it did."""
    runtime = StateflowRuntime(account_program, config=StateflowConfig(
        workers=2, snapshot_mode="incremental",
        durability_dir=str(tmp_path),
        coordinator=CoordinatorConfig(snapshot_interval_ms=200)))
    refs = runtime.preload(Account, [(f"acct-{i}", 100) for i in range(6)])
    runtime.start()
    engine = QueryEngine(runtime)
    engine.register_view(ViewSpec("total", "Account", "sum",
                                  field="balance"))
    engine.register_view(ViewSpec("top", "Account", "top_k",
                                  field="balance", k=2))
    handed: list = []
    entry = runtime.committed.entry

    def recording_entry(entity, key):
        state = entry(entity, key)
        handed.append((state, copy.deepcopy(state)))
        return state

    runtime.committed.entry = recording_entry
    for step in range(12):
        source, target = refs[step % 6], refs[(step + 1) % 6]
        runtime.invoke(source, "transfer", 3, target).unwrap()
        runtime.invoke(target, "write", f"p{step}").unwrap()
        runtime.invoke(source, "read").unwrap()
    runtime.sim.run(until=runtime.sim.now + 1_000)
    assert len(handed) >= 12 and runtime.coordinator.changelog.appended
    assert all(state == before for state, before in handed)
    assert engine.view("total").value == 600
    for name in runtime.views.names():
        assert runtime.views.read(name).value == runtime.views.expected(name)
