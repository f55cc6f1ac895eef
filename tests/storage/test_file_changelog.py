"""File-backed changelog: segment files, fsync accounting, torn-tail
truncation, physical rewind, whole-segment compaction, and the log's
publish contract (a subscriber hears of a record only once its frame is
on disk, and in seq order across a rewind)."""

import pytest

from repro.bench.recovery import tally_changelog_bytes
from repro.runtimes.stateflow.snapshots import ChangelogStore
from repro.storage import DirectoryMedium, FileChangelogStore, scan_frames


def writes_for(n):
    return {("Account", f"k{n}"): {"balance": float(n)}}


def fill(store, count, *, start=0):
    for n in range(start, start + count):
        store.append(n, writes_for(n), at_ms=float(n) * 10.0)


class TestRoundTrip:
    def test_append_close_reopen_restores_every_record(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        fill(store, 5)
        before = [(r.seq, r.batch_id, r.writes, r.at_ms)
                  for r in store._records]
        store.close()

        reopened = FileChangelogStore(tmp_path)
        after = [(r.seq, r.batch_id, r.writes, r.at_ms)
                 for r in reopened._records]
        assert after == before
        assert reopened.head_seq == 4
        assert reopened.loaded == 5
        # Sequencing continues where the dead process stopped.
        assert reopened.append(99, writes_for(99)) == 5

    def test_every_append_is_fsynced(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        # A new directory's manifest: the file, then the directory.
        assert store.fsyncs == 2
        fill(store, 7)
        # One per append, plus the first segment's directory entry.
        assert store.fsyncs == 2 + 7 + 1
        assert store.bytes_written > 0

        relaxed = FileChangelogStore(tmp_path / "relaxed", fsync=False)
        fill(relaxed, 7)
        assert relaxed.fsyncs == 0

    def test_a_new_run_reusing_batch_ids_is_logged(self, tmp_path):
        """Batch ids restart with every run over one directory, and the
        log is the only record of committed writes: an append whose id
        an older run used gets the next seq, in memory and on disk."""
        store = FileChangelogStore(tmp_path)
        seq = store.append(7, writes_for(7))
        store.close()
        rerun = FileChangelogStore(tmp_path)
        assert rerun.append(7, writes_for(8)) == seq + 1
        rerun.close()
        reopened = FileChangelogStore(tmp_path)
        assert reopened.loaded == 2
        assert reopened.records_between(seq, seq + 1)[0].writes \
            == writes_for(8)
        reopened.close()


class TestTornTail:
    def test_partial_trailing_frame_is_truncated(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        fill(store, 3)
        store.close()
        [segment] = list((tmp_path / "changelog").glob("segment-*.log"))
        intact = segment.stat().st_size
        # A crash mid-append leaves half a frame on disk.
        with open(segment, "ab") as handle:
            handle.write(b"SF\x00\x00\x00\xff half-a-frame")

        reopened = FileChangelogStore(tmp_path)
        assert reopened.loaded == 3
        assert reopened.torn_tail_bytes > 0
        assert segment.stat().st_size == intact
        # The log stays appendable after the repair.
        assert reopened.append(3, writes_for(3)) == 3

    def test_corrupt_frame_body_drops_the_suffix(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        fill(store, 4)
        store.close()
        [segment] = list((tmp_path / "changelog").glob("segment-*.log"))
        # Zero out record 2's bytes (frame framing intact, body rotted):
        # everything from the corruption on is untrusted.
        _, end_1, end_2, _ = [end for end, _ in
                              scan_frames(segment.read_bytes())[0]]
        data = bytearray(segment.read_bytes())
        data[end_1 + 8:end_2] = bytes(len(data[end_1 + 8:end_2]))
        segment.write_bytes(bytes(data))

        reopened = FileChangelogStore(tmp_path)
        assert [r.seq for r in reopened._records] == [0, 1]
        assert reopened.torn_tail_bytes > 0

    def test_segments_after_a_torn_one_are_dropped(self, tmp_path):
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 6)
        store.close()
        segments = sorted((tmp_path / "changelog").glob("segment-*.log"))
        assert len(segments) == 3
        # Tear the middle segment mid-record: the third segment's
        # records come after the tear, so they are from a lost timeline.
        middle = segments[1]
        middle.write_bytes(middle.read_bytes()[:-3])

        reopened = FileChangelogStore(tmp_path)
        assert [r.seq for r in reopened._records] == [0, 1, 2]
        assert not segments[2].exists()

    def test_segments_after_a_gap_are_dropped(self, tmp_path):
        """A crash between cutting a torn tail away and unlinking the
        segments after it leaves a clean segment followed by a gap:
        what follows the gap is from the same lost timeline."""
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 6)
        store.close()
        segments = sorted((tmp_path / "changelog").glob("segment-*.log"))
        middle = segments[1]
        [(end, _), _] = scan_frames(middle.read_bytes())[0]
        middle.write_bytes(middle.read_bytes()[:end])

        reopened = FileChangelogStore(tmp_path, segment_records=2)
        assert [r.seq for r in reopened._records] == [0, 1, 2]
        assert reopened.torn_tail_bytes == 0
        assert not segments[2].exists()
        assert reopened.append(9, writes_for(9)) == 3
        reopened.close()


class TestSegments:
    def test_appends_roll_into_new_segments(self, tmp_path):
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 5)
        names = sorted(p.name for p in
                       (tmp_path / "changelog").glob("segment-*.log"))
        assert names == ["segment-0000000000.log", "segment-0000000002.log",
                         "segment-0000000004.log"]
        store.close()
        assert FileChangelogStore(tmp_path, segment_records=2).loaded == 5

    def test_truncate_through_drops_dead_segments(self, tmp_path):
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 6)
        store.truncate_through(3)
        assert store.segments_dropped == 2
        names = sorted(p.name for p in
                       (tmp_path / "changelog").glob("segment-*.log"))
        assert names == ["segment-0000000004.log"]
        assert DirectoryMedium(tmp_path).manifest()["changelog_floor"] == 3
        store.close()
        reopened = FileChangelogStore(tmp_path, segment_records=2)
        assert [r.seq for r in reopened._records] == [4, 5]

    def test_records_below_the_floor_are_skipped_on_reload(self, tmp_path):
        # The floor can land inside the live segment: its file survives
        # (appends keep landing there) but the dead prefix must not
        # come back on a cold start.
        store = FileChangelogStore(tmp_path, segment_records=4)
        fill(store, 3)
        store.truncate_through(1)
        assert [r.seq for r in store._records] == [2]
        store.close()
        reopened = FileChangelogStore(tmp_path, segment_records=4)
        assert [r.seq for r in reopened._records] == [2]
        assert reopened.head_seq == 2


class TestRewind:
    def test_rewind_truncates_disk_and_counts_the_loss(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        fill(store, 5)
        store.rewind_to(2)
        assert store.rewound == 2
        assert store.head_seq == 2
        store.close()
        # The orphaned suffix must not resurrect on a cold start.
        reopened = FileChangelogStore(tmp_path)
        assert [r.seq for r in reopened._records] == [0, 1, 2]

    def test_append_after_rewind_reuses_seqs_durably(self, tmp_path):
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 6)
        store.rewind_to(2)
        store.append(100, writes_for(100), at_ms=1000.0)
        assert store.head_seq == 3
        store.close()
        reopened = FileChangelogStore(tmp_path, segment_records=2)
        assert [(r.seq, r.batch_id) for r in reopened._records] == [
            (0, 0), (1, 1), (2, 2), (3, 100)]

    def test_every_segment_stays_named_by_its_first_seq(self, tmp_path):
        """A rewind that orphans every record of the segment being
        appended into drops that file too: kept empty, it would share
        its name with the segment a later roll creates, and the next
        rewind past both would unlink one file twice."""
        store = FileChangelogStore(tmp_path, segment_records=2)
        fill(store, 5)
        store.rewind_to(1)
        fill(store, 6, start=2)
        store.rewind_to(0)
        assert store.head_seq == 0
        fill(store, 3, start=1)
        store.close()
        reopened = FileChangelogStore(tmp_path, segment_records=2)
        assert [r.seq for r in reopened._records] == [0, 1, 2, 3]
        names = [path.name for path in
                 sorted((tmp_path / "changelog").glob("segment-*.log"))]
        assert names == [f"segment-{seq:010d}.log" for seq in (0, 2)]
        reopened.close()

    def test_rewind_below_every_record_empties_the_log(self, tmp_path):
        store = FileChangelogStore(tmp_path)
        fill(store, 3)
        store.rewind_to(-1)
        assert store.head_seq == -1
        assert store.rewound == 3
        store.append(50, writes_for(50))
        store.close()
        reopened = FileChangelogStore(tmp_path)
        assert [(r.seq, r.batch_id) for r in reopened._records] == [(0, 50)]

    def test_the_byte_tally_keeps_only_the_surviving_timeline(self,
                                                              tmp_path):
        """The recovery cell's changelog bytes: a subscriber's ``repr``
        estimate of the latest record at each seq up to the head, which
        is every appended record's size less the rewound ones'."""
        def size(n):
            return sum(len(repr(key)) + len(repr(state))
                       for key, state in writes_for(n).items())

        store = FileChangelogStore(tmp_path)
        tally = tally_changelog_bytes(store)
        fill(store, 5)
        assert tally() == sum(size(n) for n in range(5))
        store.rewind_to(2)
        assert tally() == sum(size(n) for n in range(3)) > 0
        fill(store, 2, start=100)
        appended = sum(size(n) for n in [*range(5), 100, 101])
        rewound = size(3) + size(4)
        assert rewound > 0
        assert tally() == appended - rewound
        store.close()


def _stores():
    return [pytest.param(lambda path: ChangelogStore(), id="memory"),
            pytest.param(FileChangelogStore, id="file")]


class TestPublish:
    def test_a_subscriber_hears_of_a_record_its_segment_holds(self,
                                                              tmp_path):
        """At the moment a subscriber is called, the record's frame is
        the last one in the segment files and has been fsynced, and so
        has the directory entry of its segment."""
        store = FileChangelogStore(tmp_path, segment_records=2)
        heard = []

        def subscriber(seq, writes, at_ms):
            frames = [record
                      for path in sorted(
                          (tmp_path / "changelog").glob("segment-*.log"))
                      for _, record in scan_frames(path.read_bytes())[0]]
            last = frames[-1] if frames else None
            heard.append((seq, writes, last and last.seq,
                          last and last.writes, store.fsyncs))

        store.subscribe(subscriber)
        fill(store, 5)
        # Two syncs of the new directory's manifest, one per append and
        # one per segment (two records each) created.
        assert heard == [(n, writes_for(n), n, writes_for(n),
                          2 + (n + 1) + (n // 2 + 1)) for n in range(5)]
        store.close()

    @pytest.mark.parametrize("make", _stores())
    def test_subscribers_hear_seq_order_across_a_rewind(self, tmp_path,
                                                        make):
        store = make(tmp_path)
        first, second = [], []
        store.subscribe(lambda seq, writes, at_ms: first.append(seq))
        store.subscribe(lambda seq, writes, at_ms: second.append(
            (seq, writes, at_ms)))
        fill(store, 5)
        store.rewind_to(2)
        assert first == [0, 1, 2, 3, 4], "a rewind publishes nothing"
        fill(store, 2, start=10)
        assert first == [0, 1, 2, 3, 4, 3, 4]
        assert second == [(seq, writes_for(n), n * 10.0) for seq, n in
                          zip(first, [0, 1, 2, 3, 4, 10, 11])]
