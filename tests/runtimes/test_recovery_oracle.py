"""Recovery oracle: every retained cut resolves to the committed state it
was taken at.

The oracle shares no code with the replay.  It wraps
``SnapshotStore.take`` and records ``materialize_snapshot`` of the live
committed store at the moment of each cut — what a restore of that cut
must give back.  The store, in turn, only ever sees a base payload, a
changelog position and the changelog; resolving a position cut folds
records it never saw the store for.  The CI chaos plan (seed 7, a
coordinator fail-over, worker crashes, message faults) runs at the
default base cadence and with every cut a base, in memory and with a
durability directory, and then every retained cut — and every cut a
cold start over the directory finds — must resolve to exactly the
recorded state.
"""

import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_chaos_cell
from repro.faults import random_plan
from repro.runtimes.state import DictStateBackend, materialize_snapshot
from repro.runtimes.stateflow.coordinator import Coordinator
from repro.runtimes.stateflow.snapshots import (ChangelogStore,
                                                SnapshotChainError,
                                                SnapshotStore, replay)
from repro.storage import FileChangelogStore, FileSnapshotStore

#: The CI smoke run: ``chaos plan --seed 7 --duration-ms 2000
#: --coordinator-faults`` driven by ``chaos run --seed 7 --duration-ms
#: 2000``.
SEED = 7
DURATION_MS = 2_000.0
CHAOS_DIGEST = ("cf6f59fdfa72342bf22340a576c191a07e4f6740eb03d8f746721cdbe"
                "5045a00")


def run_ci_chaos(monkeypatch, durability_dir=None, after_cut=None,
                 base_every=None):
    """The CI chaos run, at *base_every* when given.  Records
    ``{snapshot_id: committed state at the cut}`` and calls
    ``after_cut(coordinator, expected)`` once each cut is complete
    (persisted, changelog compacted); returns (report, coordinator,
    expected)."""
    coordinators: list[Coordinator] = []
    expected: dict[int, dict] = {}
    init, take = Coordinator.__init__, SnapshotStore.take
    take_snapshot = Coordinator._take_snapshot

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        coordinators.append(self)

    def recording_take(self, **kwargs):
        snapshot = take(self, **kwargs)
        (owner,) = [c for c in coordinators if c.snapshots is self]
        expected[snapshot.snapshot_id] = materialize_snapshot(
            owner.committed.snapshot())
        return snapshot

    def checked_take_snapshot(self):
        take_snapshot(self)
        if after_cut is not None:
            after_cut(self, expected)

    monkeypatch.setattr(Coordinator, "__init__", recording_init)
    monkeypatch.setattr(SnapshotStore, "take", recording_take)
    monkeypatch.setattr(Coordinator, "_take_snapshot", checked_take_snapshot)
    overrides = {}
    if base_every is not None:
        overrides["snapshot_base_every"] = base_every
    if durability_dir is not None:
        overrides["durability_dir"] = str(durability_dir)
    report = run_chaos_cell(
        duration_ms=DURATION_MS, seed=SEED,
        plan=random_plan(SEED, duration_ms=DURATION_MS,
                         coordinator_faults=True),
        **overrides)
    (coordinator,) = coordinators
    return report, coordinator, expected


def folds(snapshots, cut) -> bool:
    """Whether resolving *cut* folds changelog records."""
    base = next(b for b in snapshots.retained()
                if b.snapshot_id == cut.base_id)
    return cut.changelog_seq > base.changelog_seq


def check_every_cut(snapshots, changelog, expected) -> int:
    """Every retained cut resolves to its recorded state; returns how
    many of them folded records."""
    retained = snapshots.retained()
    for cut in retained:
        payload = snapshots.resolve(cut, changelog)
        assert materialize_snapshot(payload) == expected[cut.snapshot_id], (
            f"cut {cut.snapshot_id} ({cut.kind}, base {cut.base_id}) "
            f"resolves to a state other than the one it was taken at")
    latest, payload = snapshots.latest_recoverable(changelog)
    assert latest is retained[-1]
    assert materialize_snapshot(payload) == expected[latest.snapshot_id]
    return sum(folds(snapshots, cut) for cut in retained)


def cold_start(directory):
    return (FileSnapshotStore(directory),
            FileChangelogStore(directory))


@pytest.mark.parametrize("durable, base_every", [
    (False, None), (True, None), (False, 1), (True, 1)],
    ids=["memory", "durable", "memory-base_every=1", "durable-base_every=1"])
def test_every_retained_cut_resolves_to_its_recorded_state(
        monkeypatch, tmp_path, durable, base_every):
    directory = tmp_path / "state" if durable else None
    folded = []

    def after_cut(coordinator, expected):
        folded.append(check_every_cut(
            coordinator.snapshots, coordinator.changelog, expected))
        if durable:
            snapshots, changelog = cold_start(directory)
            try:
                assert [cut.snapshot_id for cut in snapshots.retained()] \
                    == [cut.snapshot_id
                        for cut in coordinator.snapshots.retained()]
                check_every_cut(snapshots, changelog, expected)
            finally:
                changelog.close()

    report, coordinator, _ = run_ci_chaos(monkeypatch, directory, after_cut,
                                          base_every)
    assert report["trace_digest"] == CHAOS_DIGEST
    assert not report["problems"], report["problems"]
    assert coordinator.recoveries >= 1, "the plan must force a recovery"
    if base_every == 1:
        assert {cut.kind for cut in coordinator.snapshots.cut_log} \
            == {"base"}
        assert sum(folded) == 0, "a cut that is its own base folds nothing"
    else:
        assert sum(folded) >= 20, "too few cuts folded changelog records"


def test_a_corrupt_newest_base_never_restores_a_state_missing_writes(
        monkeypatch, tmp_path):
    """At every cut that folds records, copy the directory, break its
    newest base file and cold-start the copy: the start recovers from
    an older cut whose state is exactly the recorded one, or refuses by
    name — never a state that lacks a committed write."""
    directory = tmp_path / "state"
    outcomes = []

    def after_cut(coordinator, expected):
        snapshots = coordinator.snapshots
        if not folds(snapshots, snapshots.latest()):
            return
        copy = tmp_path / f"copy-{len(outcomes)}"
        shutil.copytree(directory, copy)
        newest_base = snapshots.latest().base_id
        path = copy / "snapshots" / f"cut-{newest_base:010d}.bin"
        path.write_bytes(path.read_bytes()[:40])
        cold_snapshots, cold_changelog = cold_start(copy)
        try:
            assert cold_snapshots.dropped_unreadable == 1
            cut, payload = cold_snapshots.latest_recoverable(cold_changelog)
        except SnapshotChainError:
            outcomes.append("refused")
            return
        finally:
            cold_changelog.close()
            shutil.rmtree(copy)
        assert cut.base_id != newest_base
        assert materialize_snapshot(payload) == expected[cut.snapshot_id]
        outcomes.append("older cut")

    run_ci_chaos(monkeypatch, directory, after_cut)
    assert len(outcomes) >= 5
    assert "older cut" in outcomes


#: One commit's write set: the changelog never carries deletes.
write_sets = st.dictionaries(
    st.sampled_from([("E", f"k{i}") for i in range(6)]),
    st.fixed_dictionaries({"v": st.integers(0, 99)}), min_size=1,
    max_size=4)


@given(base=write_sets, commits=st.lists(write_sets, max_size=8))
@settings(max_examples=60, deadline=None)
def test_folding_records_equals_applying_each_commit(base, commits):
    """The fold against a store that applied every commit one put at a
    time; folding the records twice changes nothing (absolute
    post-states)."""
    reference = DictStateBackend()
    reference.apply_writes(base)
    changelog = ChangelogStore()
    for batch_id, writes in enumerate(commits):
        reference.apply_writes(writes)
        changelog.append(batch_id, writes)
    records = changelog.records_between(-1, changelog.head_seq)
    folded = replay(dict(base), records)
    assert folded == reference.snapshot()
    assert replay(folded, records) == folded
