"""File-backed snapshot store: cut persistence, chain cadence across
restarts, pruning on disk, corrupt-cut handling, changelog repair after
a cold start, and refusal of every layout version but the current one."""

import json
import shutil

import pytest

from repro.runtimes.state import StateDelta
from repro.storage import (FileChangelogStore, FileSnapshotStore,
                           StorageError, read_manifest, open_layout)
from repro.storage.manifest import FORMAT_VERSION

#: The coordinator-owned consistency metadata every cut carries; these
#: tests exercise the store, not the coordinator, so minimal values do.
META = dict(source_offsets={}, replied=set(), batch_seq=0, arrival_seq=0)


def state_v(v):
    return {("Account", "x"): {"v": v}}


def delta_v(v):
    return StateDelta(layers=(state_v(v),))


class TestRoundTrip:
    def test_take_close_reopen_resolves_the_same_payload(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="incremental", base_every=3)
        store.take(taken_at_ms=0.0, state=state_v(0), kind="base",
                   changelog_seq=-1, **META)
        store.take(taken_at_ms=10.0, state=delta_v(1), kind="delta",
                   changelog_seq=0, **META)

        reopened = FileSnapshotStore(tmp_path, mode="incremental",
                                     base_every=3)
        assert reopened.loaded == 2
        latest = reopened.latest()
        assert (latest.snapshot_id, latest.kind, latest.parent_id,
                latest.taken_at_ms) == (1, "delta", 0, 10.0)
        assert reopened.resolve(latest) == state_v(1)
        # The bench-facing ledger survives too.
        assert [(c.snapshot_id, c.kind) for c in reopened.cut_log] == [
            (0, "base"), (1, "delta")]

    def test_chain_cadence_continues_across_restarts(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="incremental", base_every=3)
        store.take(taken_at_ms=0.0, state=state_v(0), kind="base",
                   changelog_seq=-1, **META)
        store.take(taken_at_ms=1.0, state=delta_v(1), kind="delta",
                   changelog_seq=-1, **META)
        assert store.next_kind() == "delta"

        reopened = FileSnapshotStore(tmp_path, mode="incremental",
                                     base_every=3)
        # base + one delta so far: one more delta, then re-anchor.
        assert reopened.next_kind() == "delta"
        reopened.take(taken_at_ms=2.0, state=delta_v(2), kind="delta",
                      changelog_seq=-1, **META)
        assert reopened.next_kind() == "base"

    def test_id_counter_survives_even_a_full_prune(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full")
        store.take(taken_at_ms=0.0, state=state_v(0), kind="full",
                   changelog_seq=-1, **META)
        store.prune(0)
        reopened = FileSnapshotStore(tmp_path, mode="full")
        taken = reopened.take(taken_at_ms=1.0, state=state_v(1),
                              kind="full", changelog_seq=-1, **META)
        # Ids must never be reused: a stale cut-0 file from a slow
        # unlink or a backup could otherwise shadow a new cut.
        assert taken.snapshot_id == 1


class TestPruning:
    def test_auto_prune_unlinks_fallen_cut_files(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full", keep=2)
        for n in range(5):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       changelog_seq=-1, **META)
        names = sorted(p.name for p in
                       (tmp_path / "snapshots").glob("cut-*.bin"))
        assert names == ["cut-0000000003.bin", "cut-0000000004.bin"]

    def test_explicit_prune_unlinks_the_file(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full", keep=4)
        for n in range(2):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       changelog_seq=-1, **META)
        store.prune(0)
        assert not (tmp_path / "snapshots" / "cut-0000000000.bin").exists()
        assert (tmp_path / "snapshots" / "cut-0000000001.bin").exists()


class TestCorruption:
    def test_unreadable_cut_is_dropped_not_fatal(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full")
        for n in range(2):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       changelog_seq=-1, **META)
        newest = tmp_path / "snapshots" / "cut-0000000001.bin"
        newest.write_bytes(b"SF\x00\x00\x00\x09garbage!!")

        reopened = FileSnapshotStore(tmp_path, mode="full")
        assert reopened.dropped_unreadable == 1
        assert not newest.exists()
        assert reopened.latest().snapshot_id == 0
        assert reopened.resolve(reopened.latest()) == state_v(0)

    def test_torn_ledger_tail_is_truncated(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full")
        store.take(taken_at_ms=0.0, state=state_v(0), kind="full",
                   changelog_seq=-1, **META)
        ledger = tmp_path / "snapshots" / "ledger.log"
        intact = ledger.stat().st_size
        with open(ledger, "ab") as handle:
            handle.write(b"SF\xff\xff")
        reopened = FileSnapshotStore(tmp_path, mode="full")
        assert len(reopened.cut_log) == 1
        assert ledger.stat().st_size == intact


class TestRepairAfterColdStart:
    def test_torn_delta_repairs_through_reopened_changelog(self, tmp_path):
        snapshots = FileSnapshotStore(tmp_path, mode="incremental",
                                      base_every=4)
        changelog = FileChangelogStore(tmp_path)
        snapshots.take(taken_at_ms=0.0, state=state_v(0), kind="base",
                       changelog_seq=changelog.head_seq, **META)
        changelog.append(0, state_v(1), at_ms=10.0)
        snapshots.arm_torn("drop")
        snapshots.take(taken_at_ms=10.0, state=delta_v(1), kind="delta",
                       changelog_seq=changelog.head_seq, **META)
        live_snapshot, live_payload = snapshots.latest_recoverable(changelog)
        assert live_snapshot.snapshot_id == 1
        assert live_payload == state_v(1)
        assert snapshots.changelog_repairs == 1
        changelog.close()

        cold_snapshots = FileSnapshotStore(tmp_path, mode="incremental",
                                           base_every=4)
        cold_changelog = FileChangelogStore(tmp_path)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        # The tear survives persistence — and so does its repair.
        assert cold_snapshot.snapshot_id == 1
        assert cold_payload == state_v(1)
        assert cold_snapshots.changelog_repairs == 1
        cold_changelog.close()


def _tree(root):
    """Every path under *root*, with each file's bytes."""
    return {str(path.relative_to(root)):
            path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


class TestLayoutVersioning:
    def _make_v0(self, tmp_path):
        """Fabricate the flat v0 prototype layout: everything in the
        root, no manifest."""
        staging = tmp_path / "staging"
        snapshots = FileSnapshotStore(staging, mode="full")
        snapshots.take(taken_at_ms=0.0, state=state_v(0), kind="full",
                       changelog_seq=-1, **META)
        changelog = FileChangelogStore(staging)
        changelog.append(0, state_v(1), at_ms=10.0)
        changelog.close()
        root = tmp_path / "v0"
        root.mkdir()
        for path in (staging / "changelog").glob("segment-*.log"):
            shutil.move(path, root / path.name)
        for path in (staging / "snapshots").iterdir():
            shutil.move(path, root / path.name)
        return root

    def _assert_refused_untouched(self, root, version):
        before = _tree(root)
        for store in (FileSnapshotStore, FileChangelogStore):
            with pytest.raises(StorageError, match=f"version {version};"):
                store(root)
        assert _tree(root) == before

    @pytest.mark.parametrize("kept", ["segment-*.log", "cut-*.bin",
                                      "ledger.log"],
                             ids=["segment", "cut", "ledger"])
    def test_v0_layout_is_refused(self, tmp_path, kept):
        """Any one kind of root-level v0 file marks the directory as
        the flat layout."""
        root = self._make_v0(tmp_path)
        assert not (root / "MANIFEST.json").exists()
        for path in set(root.iterdir()) - set(root.glob(kept)):
            path.unlink()
        assert list(root.iterdir())
        self._assert_refused_untouched(root, 0)

    def test_v1_layout_is_refused(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full")
        store.take(taken_at_ms=0.0, state=state_v(0), kind="full",
                   changelog_seq=-1, **META)
        layout = open_layout(tmp_path)
        manifest = json.loads(layout.manifest_path.read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        manifest["format_version"] = 1
        layout.manifest_path.write_text(json.dumps(manifest))
        self._assert_refused_untouched(tmp_path, 1)

    def test_current_layout_reopens(self, tmp_path):
        FileChangelogStore(tmp_path).close()
        assert read_manifest(open_layout(tmp_path))["format_version"] \
            == FORMAT_VERSION

    def test_newer_layout_is_refused(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text(
            json.dumps({"format_version": 99}), encoding="utf-8")
        with pytest.raises(StorageError, match="newer"):
            FileChangelogStore(tmp_path)
        with pytest.raises(StorageError, match="newer"):
            FileSnapshotStore(tmp_path)


class TestRetiredPayloadClasses:
    def test_cut_of_a_retired_class_is_dropped_as_unreadable(
            self, tmp_path, monkeypatch):
        """A cut written by a build with a state class this one no
        longer has (the copy-on-write backend's layer chain) cannot be
        unpickled: on open it counts as unreadable, exactly as a
        corrupt cut does, and the other cuts still load."""
        from repro.runtimes import state as state_module
        from repro.runtimes.state import PartitionedSnapshot
        from repro.substrates.wire import decode_frame, encode_frame

        store = FileSnapshotStore(tmp_path, mode="full")
        for n in range(3):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       changelog_seq=-1, **META)
        retired = tmp_path / "snapshots" / "cut-0000000001.bin"
        snapshot = decode_frame(retired.read_bytes())

        class CowSnapshot:
            """Pickles by reference as ``repro.runtimes.state.CowSnapshot``."""

            __module__ = "repro.runtimes.state"
            __qualname__ = "CowSnapshot"

            def __init__(self, layers):
                self.layers = layers

        with monkeypatch.context() as patch:
            patch.setattr(state_module, "CowSnapshot", CowSnapshot,
                          raising=False)
            snapshot.state = PartitionedSnapshot(
                parts=(CowSnapshot(layers=(state_v(1),)),))
            retired.write_bytes(encode_frame(snapshot))
        assert not hasattr(state_module, "CowSnapshot")

        reopened = FileSnapshotStore(tmp_path, mode="full")
        assert reopened.dropped_unreadable == 1
        assert reopened.loaded == 2
        assert not retired.exists()
        assert reopened.latest().snapshot_id == 2
        assert reopened.resolve(reopened.latest()) == state_v(2)
