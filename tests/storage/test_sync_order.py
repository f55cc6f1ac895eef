"""The durable stores keep their written contract across a power loss:
when a store call returns (and when the changelog publishes a record),
nothing it did can be undone by losing the page cache.

The test models what a power loss keeps.  A file keeps the size it had
at its last ``fsync``; a directory keeps the entries it had at its last
``fsync`` — so a create, rename or unlink is durable only once its
directory is synced afterwards, and a write or truncation only once its
file is.  Every ``os.fsync`` is recorded, and after every call the
tree on disk must equal what that model says survives."""

import os
import stat

import pytest

from repro.storage import FileChangelogStore, FileSnapshotStore

from test_file_changelog import fill, writes_for
from test_file_snapshots import cut, state_v


class PowerLossModel:
    """What survives a power loss, per inode, from the recorded syncs."""

    def __init__(self, monkeypatch):
        self.sizes: dict[tuple, int] = {}
        self.listings: dict[tuple, list[str]] = {}
        self.syncs = 0
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            real_fsync(descriptor)
            status = os.fstat(descriptor)
            node = (status.st_dev, status.st_ino)
            if stat.S_ISDIR(status.st_mode):
                self.listings[node] = sorted(os.listdir(descriptor))
            else:
                self.sizes[node] = status.st_size
            self.syncs += 1

        monkeypatch.setattr(os, "fsync", recording_fsync)

    def undone_by_power_loss(self, root) -> list[str]:
        """Every path whose entries or bytes a power loss would undo."""
        lost = []
        for directory, _, names in os.walk(root):
            status = os.stat(directory)
            node = (status.st_dev, status.st_ino)
            if self.listings.get(node, []) != sorted(os.listdir(directory)):
                lost.append(f"{directory}/ (entries)")
            for name in names:
                path = os.path.join(directory, name)
                status = os.stat(path)
                if self.sizes.get((status.st_dev, status.st_ino), 0) \
                        != status.st_size:
                    lost.append(path)
        return lost


@pytest.fixture()
def disk(monkeypatch):
    return PowerLossModel(monkeypatch)


def test_the_changelog_survives_a_power_loss_after_every_call(tmp_path,
                                                              disk):
    store = FileChangelogStore(tmp_path, segment_records=2)
    assert disk.undone_by_power_loss(tmp_path) == []
    at_publish = []
    store.subscribe(lambda seq, writes, at_ms: at_publish.append(
        (seq, disk.undone_by_power_loss(tmp_path))))
    for n in range(5):  # three segments
        fill(store, 1, start=n)
        assert disk.undone_by_power_loss(tmp_path) == [], n
    assert at_publish == [(n, []) for n in range(5)]
    store.rewind_to(2)  # unlinks the last segment, truncates another
    assert disk.undone_by_power_loss(tmp_path) == []
    fill(store, 2, start=3)
    store.truncate_through(3)  # the floor, then two segments unlinked
    assert store.segments_dropped == 2
    assert disk.undone_by_power_loss(tmp_path) == []
    fill(store, 3, start=5)
    store.close()

    # A torn segment: its tail is truncated and the segment after it
    # (bytes that never logically existed) unlinked on open.
    torn, _ = sorted((tmp_path / "changelog").glob("segment-*.log"))
    with open(torn, "ab") as handle:
        handle.write(b"SF\x00\x00\x00\xff half-a-frame")
    reopened = FileChangelogStore(tmp_path, segment_records=2)
    assert reopened.torn_tail_bytes > 0
    assert [record.seq for record in reopened._records] == [4, 5]
    assert disk.undone_by_power_loss(tmp_path) == []
    reopened.close()


def test_the_snapshot_store_survives_a_power_loss_after_every_take(
        tmp_path, disk):
    store = FileSnapshotStore(tmp_path, keep=2, base_every=1)
    for n in range(5):  # the ledger created, then cuts swept
        cut(store, state=state_v(n))
        assert disk.undone_by_power_loss(tmp_path) == [], n
    assert len(list((tmp_path / "snapshots").glob("cut-*.bin"))) == 2


def test_a_store_opened_without_fsync_forces_none(tmp_path, disk):
    changelog = FileChangelogStore(tmp_path, fsync=False,
                                   segment_records=2)
    snapshots = FileSnapshotStore(tmp_path, fsync=False, keep=2)
    fill(changelog, 5)
    changelog.rewind_to(2)
    changelog.truncate_through(1)
    for n in range(4):
        cut(snapshots, changelog, state=state_v(n))
    changelog.append(9, writes_for(9))
    changelog.close()
    assert disk.syncs == 0
    assert changelog.fsyncs == snapshots.fsyncs == 0
