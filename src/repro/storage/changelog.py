"""Append-only segment-file changelog (the durable commit log).

:class:`FileChangelogStore` is the in-memory
:class:`~repro.runtimes.stateflow.snapshots.ChangelogStore` with real
files underneath: the coordinator, recovery, queries and the benches
use the identical interface, and the file layer is a pure side effect — a
durable run's reply trace is byte-identical to an in-memory run's.

Shape (the log-structured contract sequential flash wants):

- records append as length-prefixed :mod:`repro.substrates.wire`
  frames into segment files (``changelog/segment-<firstseq>.log``),
  rolled every ``segment_records`` records;
- every append is flushed and (by default) fsynced before the record
  is published to the log's subscribers and before the call returns —
  a record the coordinator or a view believes durable is durable (a new
  segment's directory entry is synced before its first record);
- on open, a torn tail (the bytes a crash landed mid-append) is
  detected by the framing and truncated away; segments after a torn
  one are dropped whole (appends are sequential, so anything beyond
  the tear is from a lost timeline);
- ``truncate_through`` (compaction) drops whole segments and advances
  the manifest's ``changelog_floor``; records in a partially-live
  segment stay on disk but are skipped on reload;
- ``rewind_to`` (recovery) physically truncates the orphaned suffix,
  so a cold start can never resurrect a rolled-back timeline: every
  truncation is synced, and so is the directory after every unlink.
"""

from __future__ import annotations

import os
from pathlib import Path

from ..runtimes.stateflow.snapshots import ChangelogRecord, ChangelogStore
from ..substrates.wire import encode_frame
from .manifest import (Synced, open_layout, read_manifest, scan_frames,
                       truncate_file, update_manifest)


class FileChangelogStore(Synced, ChangelogStore):
    """Segment-file-backed changelog (see module docstring).

    Extra counters over the in-memory store: ``fsyncs`` /
    ``fsync_wall_ms`` (the durability tax the recovery bench reports),
    ``bytes_written`` (frame bytes), ``loaded`` (records
    recovered from disk on open), ``torn_tail_bytes`` (bytes a crash
    tore, truncated on open) and ``segments_dropped`` (compaction)."""

    def __init__(self, directory: str | os.PathLike, *,
                 fsync: bool = True, segment_records: int = 256):
        super().__init__()
        self._fsync = fsync
        self.fsyncs = 0
        self.fsync_wall_ms = 0.0
        self._layout = open_layout(directory, sync=self._sync)
        self._segment_records = max(int(segment_records), 1)
        self.bytes_written = 0
        self.loaded = 0
        self.torn_tail_bytes = 0
        self.segments_dropped = 0
        #: seq -> (segment path, byte offset just past the record):
        #: rewind truncates the containing segment at these marks.
        self._offsets: dict[int, tuple[Path, int]] = {}
        self._segments: list[Path] = []
        self._handle = None
        self._current_path: Path | None = None
        self._current_records = 0
        self._load()

    # -- open / recovery ------------------------------------------------
    def _load(self) -> None:
        floor = read_manifest(self._layout).get("changelog_floor", -1)
        max_seq = -1
        torn = False
        for path in self._layout.segment_files():
            if torn:
                # Appends are strictly sequential: segments past a torn
                # one belong to bytes that never logically existed.
                path.unlink()
                continue
            data = path.read_bytes()
            entries, clean = scan_frames(data)
            if clean < len(data):
                self.torn_tail_bytes += len(data) - clean
                truncate_file(path, clean, sync=self._sync)
                torn = True
            self._segments.append(path)
            for end, record in entries:
                self._offsets[record.seq] = (path, end)
                max_seq = max(max_seq, record.seq)
                self.loaded += 1
                if record.seq > floor:
                    self._records.append(record)
        if torn:
            self._sync(self._layout.changelog_dir)
        self._next_seq = max(max_seq, floor) + 1
        if self._segments:
            self._current_path = self._segments[-1]
            self._current_records = sum(
                1 for path, _ in self._offsets.values()
                if path == self._current_path)

    # -- durability plumbing --------------------------------------------
    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def _append_handle(self, first_seq: int):
        if (self._current_path is None
                or self._current_records >= self._segment_records):
            self._close_handle()
            self._current_path = self._layout.segment_path(first_seq)
            self._segments.append(self._current_path)
            self._current_records = 0
            self._handle = open(self._current_path, "ab")
            self._sync(self._layout.changelog_dir)
        if self._handle is None:
            self._handle = open(self._current_path, "ab")
        return self._handle

    # -- the in-memory interface, persisted -----------------------------
    def append(self, batch_id, writes, *, at_ms: float = 0.0) -> int:
        """Write and sync the record's frame, then publish it: a
        subscriber only ever hears of a record the segment file holds."""
        record = ChangelogRecord(self._next_seq, batch_id, dict(writes),
                                 at_ms)
        frame = encode_frame(record)
        handle = self._append_handle(record.seq)
        handle.write(frame)
        handle.flush()
        self._sync(handle)
        self.bytes_written += len(frame)
        self._current_records += 1
        self._offsets[record.seq] = (self._current_path, handle.tell())
        return self._publish(record)

    def rewind_to(self, seq: int) -> None:
        head = self.head_seq
        super().rewind_to(seq)
        if seq >= head:
            return
        self._close_handle()
        for dropped in [s for s in self._offsets if s > seq]:
            del self._offsets[dropped]
        unlinked = False
        for path in list(self._segments):
            keep = max((end for s, (p, end) in self._offsets.items()
                        if p == path), default=None)
            if keep is None:
                # Even the segment's first record is orphaned: drop the
                # whole file, the one being appended into too, so every
                # segment stays named by its first record's seq (a kept
                # empty one would share its name with a later roll).
                path.unlink()
                self._segments.remove(path)
                unlinked = True
            else:
                truncate_file(path, keep, sync=self._sync)
                if path == self._current_path:
                    self._current_records = sum(
                        1 for p, _ in self._offsets.values() if p == path)
        if unlinked:
            self._sync(self._layout.changelog_dir)
        if self._current_path is not None \
                and self._current_path not in self._segments:
            self._current_path = self._segments[-1] if self._segments \
                else None
            self._current_records = sum(
                1 for p, _ in self._offsets.values()
                if p == self._current_path)

    def truncate_through(self, seq: int) -> None:
        super().truncate_through(seq)
        if seq < 0:
            return
        manifest = read_manifest(self._layout)
        if seq > manifest.get("changelog_floor", -1):
            update_manifest(self._layout, sync=self._sync,
                            changelog_floor=seq)
        # Segment-drop compaction: a file whose every record is at or
        # below the floor can never be folded again.  The live
        # append segment is kept even when fully below the floor — the
        # next append lands there.
        dropped = self.segments_dropped
        for path in list(self._segments):
            if path == self._current_path:
                continue
            seqs = [s for s, (p, _) in self._offsets.items() if p == path]
            if seqs and max(seqs) <= seq:
                path.unlink()
                self._segments.remove(path)
                for s in seqs:
                    del self._offsets[s]
                self.segments_dropped += 1
        if self.segments_dropped > dropped:
            self._sync(self._layout.changelog_dir)

    def close(self) -> None:
        self._close_handle()
