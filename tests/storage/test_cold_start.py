"""Cold-start battery: durable runs are observationally identical to
in-memory runs, and a process death — simulated or a real SIGKILL —
loses nothing the stores called durable.

The equivalence leg reuses the PR-5 battery's deterministic
configuration (150 ms cuts, a base every 3) so crashes land between
bases and position cuts; the disk must be a pure side effect of
exactly the same run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import verify_history
from repro.faults import random_plan
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.state import DictStateBackend, materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import Coordinator, CoordinatorConfig
from repro.runtimes.stateflow.snapshots import SnapshotStore
from repro.storage import FileChangelogStore, FileSnapshotStore
from repro.substrates.simulation import Simulation
from repro.views import ViewManager
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload

#: Serial batches, and one batch executing while the previous commits.
DEPTHS = (1, 2)
SNAPSHOT_INTERVAL_MS = 150.0
BASE_EVERY = 3
#: Every cut a base, and position cuts between bases.
CADENCES = (1, BASE_EVERY)


def run_once(base_every=BASE_EVERY, *, seed=11, durability_dir=None,
             pipeline_depth=2, fault_plan=None, rps=150.0,
             duration_ms=1_500.0, records=24):
    config = StateflowConfig(
        workers=3, fault_plan=fault_plan, durability_dir=durability_dir,
        coordinator=CoordinatorConfig(
            pipeline_depth=pipeline_depth,
            snapshot_interval_ms=SNAPSHOT_INTERVAL_MS,
            failure_detect_ms=200.0,
            snapshot_base_every=base_every))
    runtime = StateflowRuntime(run_once.program, sim=Simulation(seed=seed),
                               config=config)
    trace = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error))
    workload = YcsbWorkload("T", record_count=records,
                            distribution="uniform", seed=seed + 1,
                            initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=25_000.0, seed=seed + 2))
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + 25_000.0)
    state = materialize_snapshot(runtime.committed.snapshot())
    return (trace, state, runtime, result.sent, driver.completed, workload)


@pytest.fixture(autouse=True)
def _program(account_program):
    run_once.program = account_program


def reopen_stores(directory):
    """A cold start: fresh store objects over the surviving files only."""
    snapshots = FileSnapshotStore(directory, base_every=BASE_EVERY)
    changelog = FileChangelogStore(directory)
    return snapshots, changelog


class TestDurableRunsAreInvisible:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    @pytest.mark.parametrize("base_every", CADENCES,
                             ids=lambda n: f"base_every={n}")
    def test_traces_byte_identical_to_in_memory(self, tmp_path, base_every,
                                                pipeline_depth):
        memory = run_once(base_every, pipeline_depth=pipeline_depth)
        durable = run_once(base_every, pipeline_depth=pipeline_depth,
                           durability_dir=str(tmp_path))
        assert memory[0] == durable[0], "reply traces diverged"
        assert memory[1] == durable[1], "final committed state diverged"
        trace, state, _, sent, completed, workload = durable
        problems = verify_history(sent=sent, completed=completed,
                                  trace=trace, state=state,
                                  workload=workload, workload_name="T")
        assert problems == [], problems
        # The run really did hit the disk.
        coordinator = durable[2].coordinator
        assert coordinator.snapshots.bytes_written > 0
        assert coordinator.changelog.bytes_written > 0

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_durable_recovery_equals_in_memory_recovery(self, tmp_path,
                                                        pipeline_depth):
        """Crashes under a chaos plan: the replies of the durable run
        must stay byte-identical through recovery itself."""
        plan = random_plan(23, duration_ms=1_500.0, workers=3,
                           coordinator_faults=True)
        memory = run_once(fault_plan=plan, seed=23,
                          pipeline_depth=pipeline_depth)
        durable = run_once(fault_plan=plan, seed=23,
                           pipeline_depth=pipeline_depth,
                           durability_dir=str(tmp_path))
        assert durable[2].coordinator.recoveries >= 1
        assert memory[0] == durable[0]
        assert memory[1] == durable[1]


class TestColdStart:
    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_cold_reopen_resolves_the_live_state(self, tmp_path,
                                                 pipeline_depth):
        durable = run_once(pipeline_depth=pipeline_depth,
                           durability_dir=str(tmp_path))
        coordinator = durable[2].coordinator
        live_snapshot, live_payload = \
            coordinator.snapshots.latest_recoverable(coordinator.changelog)
        live_state = materialize_snapshot(live_payload)

        cold_snapshots, cold_changelog = reopen_stores(tmp_path)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        assert cold_snapshot.snapshot_id == live_snapshot.snapshot_id
        assert materialize_snapshot(cold_payload) == live_state
        assert cold_changelog.head_seq == coordinator.changelog.head_seq
        cold_changelog.close()

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_rewind_survives_the_cold_start(self, tmp_path, pipeline_depth):
        """A recovery rewinds the changelog; the dropped suffix must be
        gone from disk too, not just from the dying process's memory."""
        plan = random_plan(23, duration_ms=1_500.0, workers=3,
                           coordinator_faults=True)
        durable = run_once(fault_plan=plan, seed=23,
                           pipeline_depth=pipeline_depth,
                           durability_dir=str(tmp_path))
        live = durable[2].coordinator.changelog
        assert durable[2].coordinator.recoveries >= 1
        assert live.rewound > 0, "the plan must actually force a rewind"

        _, cold_changelog = reopen_stores(tmp_path)
        assert cold_changelog.head_seq == live.head_seq
        assert ([r.seq for r in cold_changelog._records]
                == [r.seq for r in live._records])
        cold_changelog.close()


VIEW_SPECS = [
    ViewSpec("total", "Account", "sum", field="balance"),
    ViewSpec("poorest", "Account", "min", field="balance"),
    ViewSpec("top3", "Account", "top_k", field="balance", k=3),
    ViewSpec("by-window", "Account", "count", window_ms=400.0),
]


def cold_start_views(directory, specs):
    """The cold-start recipe for views: the store at the reopened log's
    head (the latest recoverable cut with the records past it folded
    over), then a manager over that log restores the cut's sidecar (its
    base's) and registers — each view resumes from its memos at the
    base's seq plus a fold of the records past it.  The caller closes
    the log."""
    snapshots, changelog = reopen_stores(directory)
    snapshot, _ = snapshots.latest_recoverable(changelog)
    state = materialize_snapshot(snapshots.resolve(
        snapshot, changelog, up_to_seq=changelog.head_seq))
    manager = ViewManager(DictStateBackend(state), log=changelog)
    manager.on_restore(snapshots.sidecar(snapshot))
    for spec in specs:
        manager.register(spec)
    return manager, state, changelog


def canonical(value):
    """Order-insensitive repr for cross-process view comparison (dict
    insertion order differs between a live run and a restore)."""
    if isinstance(value, dict):
        return repr(sorted(value.items(), key=repr))
    return repr(value)


class TestDurableViewsColdStart:
    def _durable_run_with_views(self, directory, pipeline_depth):
        config = StateflowConfig(
            workers=3, durability_dir=str(directory),
            coordinator=CoordinatorConfig(
                pipeline_depth=pipeline_depth,
                snapshot_interval_ms=SNAPSHOT_INTERVAL_MS,
                failure_detect_ms=200.0,
                snapshot_base_every=BASE_EVERY))
        runtime = StateflowRuntime(run_once.program,
                                   sim=Simulation(seed=11), config=config)
        workload = YcsbWorkload("T", record_count=24,
                                distribution="uniform", seed=12,
                                initial_balance=1_000)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        engine = QueryEngine(runtime)
        for spec in VIEW_SPECS:
            engine.register_view(spec)
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=150.0, duration_ms=1_500.0, warmup_ms=0.0,
            drain_ms=25_000.0, seed=13))
        driver.run()
        runtime.sim.run(until=runtime.sim.now + 25_000.0)
        return runtime

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_cold_start_resumes_views_without_a_scan(self, tmp_path,
                                                     pipeline_depth):
        """The full durable loop: run with views, quiesce, reopen the
        *files* in a fresh manager, and resume every view — including
        the windowed one no scan could rebuild — from the sidecar of the
        cut's base plus the changelog suffix.  Zero rehydrations,
        byte-identical values."""
        runtime = self._durable_run_with_views(tmp_path, pipeline_depth)
        live_values = {name: runtime.views.read(name).value
                       for name in runtime.views.names()}
        runtime.coordinator.changelog.close()

        manager, state, changelog = cold_start_views(tmp_path, VIEW_SPECS)
        changelog.close()
        assert manager.rehydrations == 0, (
            "a sidecar-covered cold start must not rescan the store")
        assert manager.sidecar_restores == len(VIEW_SPECS)
        cold_values = {name: manager.read(name).value
                       for name in manager.names()}
        assert cold_values == live_values, (
            "cold-started views must be byte-identical to the live ones")

        # Control: scan hydration agrees wherever a scan *can* answer,
        # and provably cannot for the windowed view.
        control = ViewManager(DictStateBackend(state))
        for spec in VIEW_SPECS:
            if spec.window_ms is None:
                control.register(spec)
        for name in control.names():
            assert control.read(name).value == cold_values[name]
        assert len(cold_values["by-window"]) > 1, (
            "the run must spread commits over multiple windows")

    @pytest.mark.parametrize("pipeline_depth", DEPTHS)
    def test_the_resumed_views_keep_folding_the_reopened_log(
            self, tmp_path, pipeline_depth):
        """After a cold start the manager is one more subscriber of the
        reopened log: every record appended afterwards folds in, each
        scan-derivable view equals the full-scan oracle after each one,
        and the windowed view equals a twin that never stopped (the
        live run's manager, subscribed to the same log)."""
        runtime = self._durable_run_with_views(tmp_path, pipeline_depth)
        runtime.coordinator.changelog.close()
        manager, state, changelog = cold_start_views(tmp_path, VIEW_SPECS)
        twin = runtime.views
        changelog.subscribe(manager.on_commit)
        changelog.subscribe(twin.on_commit)
        keys = sorted(key for entity, key in state if entity == "Account")
        for step, key in enumerate(keys[::3]):
            row = dict(state[("Account", key)], balance=step * 37)
            state[("Account", key)] = row
            runtime.committed.put("Account", key, row)
            seq = changelog.append(step, {("Account", key): row},
                                   at_ms=runtime.sim.now + 150.0 * step)
            for spec in VIEW_SPECS:
                assert manager.read(spec.name).applied_seq == seq
                if spec.window_ms is None:
                    assert manager.read(spec.name).value \
                        == manager.expected(spec.name)
            assert manager.read("by-window").value \
                == twin.read("by-window").value
        assert len(manager.read("by-window").value) > 2
        changelog.close()

    def test_only_bases_carry_a_sidecar(self, tmp_path, monkeypatch):
        """A position cut's sidecar is its base's, so it carries none.
        The views register after the first base, which therefore has
        none either; every later base has one, on disk too."""
        cuts = []
        take = SnapshotStore.take

        def recording_take(store, **kwargs):
            cuts.append(take(store, **kwargs))
            return cuts[-1]

        monkeypatch.setattr(SnapshotStore, "take", recording_take)
        runtime = self._durable_run_with_views(tmp_path, pipeline_depth=2)
        runtime.coordinator.changelog.close()
        assert {cut.kind for cut in cuts} == {"base", "position"}
        snapshots, changelog = reopen_stores(tmp_path)
        changelog.close()
        for cut in [*cuts[1:], *snapshots.retained()]:
            assert (cut.views_state is None) == (cut.kind == "position"), (
                cut.snapshot_id, cut.kind)
        assert cuts[0].views_state is None

    def test_position_cuts_with_their_own_sidecars_cold_start(
            self, tmp_path, monkeypatch):
        """A directory written when every cut carried its own sidecar:
        its position cuts resume from that sidecar, not their base's,
        with zero rescans and the live run's values."""
        coordinators = []
        take_snapshot, take = Coordinator._take_snapshot, SnapshotStore.take

        def recording_take_snapshot(coordinator):
            coordinators.append(coordinator)
            take_snapshot(coordinator)

        def take_with_a_sidecar(store, **kwargs):
            kwargs["views_state"] = coordinators[-1].views.export_sidecar()
            return take(store, **kwargs)

        monkeypatch.setattr(Coordinator, "_take_snapshot",
                            recording_take_snapshot)
        monkeypatch.setattr(SnapshotStore, "take", take_with_a_sidecar)
        runtime = self._durable_run_with_views(tmp_path, pipeline_depth=2)
        coordinator = runtime.coordinator
        while coordinator.snapshots.latest().kind != "position":
            coordinator._take_snapshot()
        live_values = {name: runtime.views.read(name).value
                       for name in runtime.views.names()}
        coordinator.changelog.close()

        snapshots, changelog = reopen_stores(tmp_path)
        latest, _ = snapshots.latest_recoverable(changelog)
        changelog.close()
        assert latest.kind == "position"
        assert snapshots.sidecar(latest) is latest.views_state is not None
        manager, _, changelog = cold_start_views(tmp_path, VIEW_SPECS)
        changelog.close()
        assert manager.rehydrations == 0
        assert manager.sidecar_restores == len(VIEW_SPECS)
        assert {name: manager.read(name).value
                for name in manager.names()} == live_values


#: The child runs a deterministic durable workload, reports what its
#: stores say is recoverable, then dies by real SIGKILL mid-breath —
#: no atexit, no flush, no orderly close.
_CHILD = """
import json, os, signal, sys
from repro.compiler.pipeline import compile_program
from repro.runtimes.state import materialize_snapshot
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.substrates.simulation import Simulation
from repro.workloads import Account, DriverConfig, WorkloadDriver, \\
    YcsbWorkload

durable, report = sys.argv[1], sys.argv[2]
config = StateflowConfig(
    workers=3, durability_dir=durable,
    coordinator=CoordinatorConfig(
        pipeline_depth=2,
        snapshot_interval_ms=150.0, failure_detect_ms=200.0,
        snapshot_base_every=3))
runtime = StateflowRuntime(compile_program([Account]),
                           sim=Simulation(seed=11), config=config)
workload = YcsbWorkload("T", record_count=16, distribution="uniform",
                        seed=12, initial_balance=1_000)
runtime.preload(Account, workload.dataset_rows())
runtime.start()
driver = WorkloadDriver(runtime, workload, DriverConfig(
    rps=150.0, duration_ms=1_000.0, warmup_ms=0.0, drain_ms=20_000.0,
    seed=13))
driver.run()
runtime.sim.run(until=runtime.sim.now + 20_000.0)
coordinator = runtime.coordinator
snapshot, payload = coordinator.snapshots.latest_recoverable(
    coordinator.changelog)
state = materialize_snapshot(payload)
with open(report, "w") as handle:
    json.dump({"snapshot_id": snapshot.snapshot_id,
               "head_seq": coordinator.changelog.head_seq,
               "state": repr(sorted(state.items(), key=repr))}, handle)
    handle.flush()
    os.fsync(handle.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestRealKill:
    def test_sigkill_loses_nothing_durable(self, tmp_path):
        durable = tmp_path / "durable"
        report = tmp_path / "report.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, str(durable), str(report)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == -signal.SIGKILL, child.stderr
        dying_words = json.loads(report.read_text(encoding="utf-8"))

        cold_snapshots, cold_changelog = reopen_stores(durable)
        snapshot, payload = cold_snapshots.latest_recoverable(cold_changelog)
        state = materialize_snapshot(payload)
        assert snapshot.snapshot_id == dying_words["snapshot_id"]
        assert cold_changelog.head_seq == dying_words["head_seq"]
        assert repr(sorted(state.items(), key=repr)) == dying_words["state"]
        cold_changelog.close()


#: Same shape as _CHILD, but with the PR-10 view set registered: the
#: dying words are the views' values, so the parent can diff them
#: against a files-only cold start.
_CHILD_VIEWS = """
import json, os, signal, sys
from repro.compiler.pipeline import compile_program
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.runtimes.stateflow.coordinator import CoordinatorConfig
from repro.substrates.simulation import Simulation
from repro.workloads import Account, DriverConfig, WorkloadDriver, \\
    YcsbWorkload

durable, report = sys.argv[1], sys.argv[2]
config = StateflowConfig(
    workers=3, durability_dir=durable,
    coordinator=CoordinatorConfig(
        pipeline_depth=2,
        snapshot_interval_ms=150.0, failure_detect_ms=200.0,
        snapshot_base_every=3))
runtime = StateflowRuntime(compile_program([Account]),
                           sim=Simulation(seed=11), config=config)
workload = YcsbWorkload("T", record_count=16, distribution="uniform",
                        seed=12, initial_balance=1_000)
runtime.preload(Account, workload.dataset_rows())
runtime.start()
engine = QueryEngine(runtime)
for spec in [ViewSpec("total", "Account", "sum", field="balance"),
             ViewSpec("poorest", "Account", "min", field="balance"),
             ViewSpec("top3", "Account", "top_k", field="balance", k=3),
             ViewSpec("by-window", "Account", "count", window_ms=400.0)]:
    engine.register_view(spec)
driver = WorkloadDriver(runtime, workload, DriverConfig(
    rps=150.0, duration_ms=1_000.0, warmup_ms=0.0, drain_ms=20_000.0,
    seed=13))
driver.run()
runtime.sim.run(until=runtime.sim.now + 20_000.0)


def canonical(value):
    if isinstance(value, dict):
        return repr(sorted(value.items(), key=repr))
    return repr(value)


values = {name: canonical(runtime.views.read(name).value)
          for name in runtime.views.names()}
with open(report, "w") as handle:
    json.dump(values, handle)
    handle.flush()
    os.fsync(handle.fileno())
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestRealKillPreservesViews:
    def test_view_values_identical_across_sigkill_cold_start(self,
                                                             tmp_path):
        """A real SIGKILL, then a files-only cold start of the views:
        every value — including the windowed one — must match the dying
        process's last reads, with zero store rescans."""
        durable = tmp_path / "durable"
        report = tmp_path / "report.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_VIEWS, str(durable), str(report)],
            env=env, capture_output=True, text=True, timeout=300)
        assert child.returncode == -signal.SIGKILL, child.stderr
        dying_words = json.loads(report.read_text(encoding="utf-8"))

        manager, _, changelog = cold_start_views(durable, [
            ViewSpec("total", "Account", "sum", field="balance"),
            ViewSpec("poorest", "Account", "min", field="balance"),
            ViewSpec("top3", "Account", "top_k", field="balance", k=3),
            ViewSpec("by-window", "Account", "count", window_ms=400.0)])
        changelog.close()
        assert manager.rehydrations == 0
        assert manager.sidecar_restores == 4
        cold = {name: canonical(manager.read(name).value)
                for name in manager.names()}
        assert cold == dying_words


@pytest.mark.slow
class TestRealKillOnProcessSubstrate:
    def test_worker_sigkill_with_durable_stores(self, tmp_path,
                                                account_program):
        """Real worker processes, a real mid-history kill, real files:
        the history stays exact and a cold reopen of the durability
        directory resolves what the live coordinator resolves."""
        config = StateflowConfig(
            spawner="process", workers=3, durability_dir=str(tmp_path),
            coordinator=CoordinatorConfig(
                failure_detect_ms=2_000.0, snapshot_interval_ms=500.0,
                snapshot_base_every=3))
        runtime = StateflowRuntime(account_program, config=config)
        try:
            (ref,) = runtime.preload(Account, [("hot", 0)])
            runtime.start()
            increments = [1 + (i % 9) for i in range(30)]
            replies = []

            def submit(amount):
                runtime.submit(ref, "add", (amount,),
                               on_reply=lambda r: replies.append(
                                   r.request_id))

            for amount in increments[:10]:
                submit(amount)
            runtime.sim.run_until(lambda: len(replies) >= 5,
                                  max_time=runtime.sim.now + 90_000.0)
            runtime.fail_worker(1)  # a real SIGKILL under the hood
            for amount in increments[10:]:
                submit(amount)
            expected = sum(increments)
            assert runtime.sim.run_until(
                lambda: (runtime.entity_state(ref) or {}).get("balance")
                == expected and len(replies) >= len(increments),
                max_time=runtime.sim.now + 90_000.0)
            coordinator = runtime.coordinator
            live_snapshot, live_payload = \
                coordinator.snapshots.latest_recoverable(
                    coordinator.changelog)
            live_state = materialize_snapshot(live_payload)
        finally:
            runtime.close()

        cold_snapshots, cold_changelog = reopen_stores(tmp_path)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        assert cold_snapshot.snapshot_id == live_snapshot.snapshot_id
        assert materialize_snapshot(cold_payload) == live_state
        cold_changelog.close()
