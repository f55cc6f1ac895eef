"""File-backed snapshot store: cut persistence, the cut cadence across
restarts, pruning on disk, corrupt-cut handling, position cuts resolved
through a reopened changelog, cuts of the deleted full mode read as
bases, and refusal of every layout version but the current one."""

import json
import shutil

import pytest

from repro.runtimes.stateflow.snapshots import SnapshotChainError
from repro.storage import (FORMAT_VERSION, DirectoryMedium,
                           FileChangelogStore, FileSnapshotStore,
                           StorageError)

#: The coordinator-owned consistency metadata every cut carries; these
#: tests exercise the store, not the coordinator, so minimal values do.
META = dict(source_offsets={}, replied=set(), batch_seq=0, arrival_seq=0)


def state_v(v):
    return {("Account", "x"): {"v": v}}


def cut(store, changelog=None, at_ms=0.0, state=None):
    """Take the cut the store asks for, at the changelog's head."""
    kind = store.next_kind()
    return store.take(taken_at_ms=at_ms, state=state, kind=kind,
                      changelog_seq=(changelog.head_seq
                                     if changelog is not None else -1),
                      **META)


class TestRoundTrip:
    def test_take_close_reopen_resolves_the_same_payload(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=3)
        changelog = FileChangelogStore(tmp_path)
        cut(store, changelog, state=state_v(0))
        changelog.append(0, state_v(1), at_ms=5.0)
        cut(store, changelog, at_ms=10.0, state=state_v(1))
        changelog.close()

        reopened = FileSnapshotStore(tmp_path, base_every=3)
        assert reopened.loaded == 2
        latest = reopened.latest()
        assert (latest.snapshot_id, latest.kind, latest.base_id,
                latest.changelog_seq, latest.taken_at_ms, latest.state) \
            == (1, "position", 0, 0, 10.0, None)
        cold_changelog = FileChangelogStore(tmp_path)
        assert reopened.resolve(latest, cold_changelog) == state_v(1)
        cold_changelog.close()
        # The bench-facing ledger survives too.
        assert [(c.snapshot_id, c.kind) for c in reopened.cut_log] == [
            (0, "base"), (1, "position")]

    def test_the_first_cut_after_opening_is_a_base(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=3)
        cut(store, state=state_v(0))
        assert store.next_kind() == "position"
        cut(store)

        # A run over an existing directory starts from whatever its
        # store holds, not from the old run's base.
        reopened = FileSnapshotStore(tmp_path, base_every=3)
        assert reopened.next_kind() == "base"
        taken = cut(reopened, state=state_v(5))
        assert (taken.snapshot_id, taken.base_id) == (2, 2)
        assert reopened.next_kind() == "position"

    def test_id_counter_survives_losing_every_cut_file(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=1)
        cut(store, state=state_v(0))
        for path in (tmp_path / "snapshots").glob("cut-*.bin"):
            path.unlink()
        reopened = FileSnapshotStore(tmp_path, base_every=1)
        assert reopened.loaded == 0
        taken = cut(reopened, state=state_v(1))
        # Ids must never be reused: a stale cut-0 file from a slow
        # unlink or a backup could otherwise shadow a new cut.
        assert taken.snapshot_id == 1


class TestPruning:
    def test_auto_prune_unlinks_fallen_cut_files(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=1, keep=2)
        for n in range(5):
            cut(store, state=state_v(n))
        names = sorted(p.name for p in
                       (tmp_path / "snapshots").glob("cut-*.bin"))
        assert names == ["cut-0000000003.bin", "cut-0000000004.bin"]

    def test_the_base_of_a_retained_cut_keeps_its_file(self, tmp_path):
        store = FileSnapshotStore(tmp_path, keep=2, base_every=4)
        for n in range(4):
            cut(store, state=state_v(n))
        names = sorted(p.name for p in
                       (tmp_path / "snapshots").glob("cut-*.bin"))
        assert names == ["cut-0000000000.bin", "cut-0000000002.bin",
                         "cut-0000000003.bin"]


class TestCorruption:
    def test_unreadable_cut_is_dropped_not_fatal(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=1)
        for n in range(2):
            cut(store, state=state_v(n))
        newest = tmp_path / "snapshots" / "cut-0000000001.bin"
        newest.write_bytes(b"SF\x00\x00\x00\x09garbage!!")

        reopened = FileSnapshotStore(tmp_path, base_every=1)
        assert reopened.dropped_unreadable == 1
        assert not newest.exists()
        assert reopened.latest().snapshot_id == 0
        assert reopened.resolve(reopened.latest()) == state_v(0)

    def test_torn_ledger_tail_is_truncated(self, tmp_path):
        store = FileSnapshotStore(tmp_path, base_every=1)
        cut(store, state=state_v(0))
        ledger = tmp_path / "snapshots" / "ledger.log"
        intact = ledger.stat().st_size
        with open(ledger, "ab") as handle:
            handle.write(b"SF\xff\xff")
        reopened = FileSnapshotStore(tmp_path, base_every=1)
        assert len(reopened.cut_log) == 1
        assert ledger.stat().st_size == intact

    def test_a_cut_whose_base_file_is_gone_is_skipped(self, tmp_path):
        store = FileSnapshotStore(tmp_path, keep=8, base_every=2)
        changelog = FileChangelogStore(tmp_path)
        for n in range(4):
            changelog.append(n, state_v(n), at_ms=float(n))
            cut(store, changelog, at_ms=float(n), state=state_v(n))
        changelog.close()
        # Cuts 0 and 2 are bases; 1 and 3 are position cuts.
        (tmp_path / "snapshots" / "cut-0000000002.bin").write_bytes(b"x")

        reopened = FileSnapshotStore(tmp_path, base_every=2)
        cold_changelog = FileChangelogStore(tmp_path)
        assert reopened.dropped_unreadable == 1
        with pytest.raises(SnapshotChainError, match="base 2 is gone"):
            reopened.resolve(reopened.latest(), cold_changelog)
        recovered, payload = reopened.latest_recoverable(cold_changelog)
        assert recovered.snapshot_id == 1
        assert payload == state_v(1)
        cold_changelog.close()


class TestResolveAfterColdStart:
    def test_position_cut_resolves_through_reopened_changelog(
            self, tmp_path):
        snapshots = FileSnapshotStore(tmp_path, base_every=4)
        changelog = FileChangelogStore(tmp_path)
        cut(snapshots, changelog, state=state_v(0))
        changelog.append(0, state_v(1), at_ms=10.0)
        changelog.append(1, {("Account", "y"): {"v": 7}}, at_ms=20.0)
        cut(snapshots, changelog, at_ms=20.0)
        live_snapshot, live_payload = snapshots.latest_recoverable(changelog)
        assert live_snapshot.snapshot_id == 1
        assert live_payload == {**state_v(1), ("Account", "y"): {"v": 7}}
        changelog.close()

        cold_snapshots = FileSnapshotStore(tmp_path, base_every=4)
        cold_changelog = FileChangelogStore(tmp_path)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        assert cold_snapshot.snapshot_id == 1
        assert cold_payload == live_payload
        cold_changelog.close()


def _tree(root):
    """Every path under *root*, with each file's bytes."""
    return {str(path.relative_to(root)):
            path.read_bytes() if path.is_file() else None
            for path in sorted(root.rglob("*"))}


class TestFullModeCuts:
    """Before the one durability mode, every cut of a full-mode run
    carried ``kind="full"`` (``perf/probes.py`` still takes such cuts).
    A current-format directory holding them reopens: a cut that is not
    a position cut is a base."""

    def test_full_cuts_reopen_and_resolve_the_newest(self, tmp_path):
        store = FileSnapshotStore(tmp_path, mode="full")
        assert store.base_every == 1
        for n in range(3):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       **META)

        reopened = FileSnapshotStore(tmp_path)
        changelog = FileChangelogStore(tmp_path)
        assert DirectoryMedium(tmp_path).manifest()["format_version"] \
            == FORMAT_VERSION
        assert [(c.snapshot_id, c.kind, c.base_id)
                for c in reopened.retained()] == [
            (0, "full", 0), (1, "full", 1), (2, "full", 2)]
        snapshot, payload = reopened.latest_recoverable(changelog)
        assert snapshot.snapshot_id == 2
        assert payload == state_v(2)
        assert reopened.floor_changelog_seq() == -1
        assert reopened.next_kind() == "base"
        changelog.close()

    @pytest.mark.parametrize("mode,base_every", [
        ("full", 1), ("incremental", 3), (None, 3)])
    def test_the_mode_keyword_only_sets_the_cadence(self, tmp_path, mode,
                                                    base_every):
        """``mode="full"`` means every cut a base; any other value
        leaves the cadence the caller passed."""
        store = FileSnapshotStore(tmp_path, base_every=3, mode=mode)
        assert store.base_every == base_every
        kinds = [cut(store, state=state_v(n)).kind for n in range(4)]
        assert kinds == ["base" if n % base_every == 0 else "position"
                         for n in range(4)]

    def test_a_reopened_directory_of_full_cuts_grows_a_chain(self,
                                                             tmp_path):
        """A run that resumes over full cuts cuts a fresh base, then
        position cuts that resolve through the reopened changelog."""
        store = FileSnapshotStore(tmp_path, mode="full")
        for n in range(2):
            store.take(taken_at_ms=float(n), state=state_v(n), kind="full",
                       **META)
        reopened = FileSnapshotStore(tmp_path, base_every=3)
        changelog = FileChangelogStore(tmp_path)
        base = cut(reopened, changelog, state=state_v(5))
        positions = []
        for v in (6, 7):
            changelog.append(v, state_v(v))
            positions.append(cut(reopened, changelog, state=state_v(v)))
        assert (base.kind, base.snapshot_id) == ("base", 2)
        assert [(c.kind, c.base_id) for c in positions] == \
            [("position", 2), ("position", 2)]
        assert [reopened.resolve(c, changelog) for c in positions] == \
            [state_v(6), state_v(7)]
        changelog.close()


class TestLayoutVersioning:
    def _make_v0(self, tmp_path):
        """Fabricate the flat v0 prototype layout: everything in the
        root, no manifest."""
        staging = tmp_path / "staging"
        cut(FileSnapshotStore(staging, base_every=1), state=state_v(0))
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

    def _stamp(self, tmp_path, version):
        """A current-format directory whose manifest claims *version*."""
        cut(FileSnapshotStore(tmp_path, base_every=1), state=state_v(0))
        path = tmp_path / "MANIFEST.json"
        manifest = json.loads(path.read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        manifest["format_version"] = version
        path.write_text(json.dumps(manifest))

    def test_v1_layout_is_refused(self, tmp_path):
        self._stamp(tmp_path, 1)
        self._assert_refused_untouched(tmp_path, 1)

    def test_v2_layout_is_refused(self, tmp_path):
        """Version 2 cut frames chain deltas to their parent; this build
        cannot resolve them."""
        self._stamp(tmp_path, 2)
        self._assert_refused_untouched(tmp_path, 2)

    def test_v3_layout_is_refused(self, tmp_path):
        """Version 3 cut frames hold their dedup ids as plain sets of
        every id; this build reads a watermark and the ids past it."""
        self._stamp(tmp_path, 3)
        self._assert_refused_untouched(tmp_path, 3)

    def test_current_layout_reopens(self, tmp_path):
        FileChangelogStore(tmp_path).close()
        assert DirectoryMedium(tmp_path).manifest()["format_version"] \
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

        store = FileSnapshotStore(tmp_path, base_every=1)
        for n in range(3):
            cut(store, state=state_v(n))
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

        reopened = FileSnapshotStore(tmp_path, base_every=1)
        assert reopened.dropped_unreadable == 1
        assert reopened.loaded == 2
        assert not retired.exists()
        assert reopened.latest().snapshot_id == 2
        assert reopened.resolve(reopened.latest()) == state_v(2)
