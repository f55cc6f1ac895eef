"""File-backed snapshot store: cuts and their ledger persisted under the
durability directory.

:class:`FileSnapshotStore` keeps the in-memory
:class:`~repro.runtimes.stateflow.snapshots.SnapshotStore` semantics
bit for bit (it *is* one, with persistence layered on):

- every cut — a base with its state payload, or a position cut with
  none — is one :mod:`repro.substrates.wire` frame in
  ``snapshots/cut-<id>.bin``, written to a temp file, fsynced and
  atomically renamed, and the directory synced after the rename, so a
  crash mid-take leaves no half-cut and a returned cut stays;
- the ``cut_log`` ledger appends one ``CutRecord`` frame per cut to
  ``snapshots/ledger.log`` (same framing, same torn-tail truncation on
  open), so bench accounting survives restarts;
- the id counter rides in ``MANIFEST.json``;
- the retention window trim unlinks the files of cuts that fell out of
  it, exactly as the in-memory window behaves, only once the new cut is
  durable.

A cold start is just construction over an existing directory: the
retained cuts and the ledger come back, an unreadable cut file is
dropped, and ``latest_recoverable`` (with a reopened
:class:`~repro.storage.changelog.FileChangelogStore`) resolves the same
payload the dying process would have restored — or skips to an older
cut when a base is gone.  The first cut taken after opening is a base.
"""

from __future__ import annotations

import os

from ..runtimes.stateflow.snapshots import Snapshot, SnapshotStore
from ..substrates.wire import FrameError, decode_frame, encode_frame
from .manifest import (Synced, open_layout, read_manifest, scan_frames,
                       truncate_file, update_manifest)


class FileSnapshotStore(Synced, SnapshotStore):
    """Durability-directory-backed snapshot store (see module doc).

    Extra counters: ``fsyncs`` / ``fsync_wall_ms``, ``bytes_written``,
    ``loaded`` (cuts recovered on open) and ``dropped_unreadable``
    (corrupt/torn cut files discarded on open)."""

    def __init__(self, directory: str | os.PathLike, *, keep: int = 4,
                 base_every: int = 4, track_footprints: bool = False,
                 fsync: bool = True, mode: str | None = None):
        # ``mode=`` survives only for perf/'s two call sites (ROADMAP
        # item 2): "full" was every cut a base.
        base_every = 1 if mode == "full" else base_every
        super().__init__(keep=keep, base_every=base_every,
                         track_footprints=track_footprints)
        self._fsync = fsync
        self.fsyncs = 0
        self.fsync_wall_ms = 0.0
        self._layout = open_layout(directory, sync=self._sync)
        self.bytes_written = 0
        self.loaded = 0
        self.dropped_unreadable = 0
        self._load()

    # -- open / cold start ----------------------------------------------
    def _load(self) -> None:
        ledger = self._layout.ledger_path
        if ledger.exists():
            data = ledger.read_bytes()
            entries, clean = scan_frames(data)
            if clean < len(data):
                truncate_file(ledger, clean, sync=self._sync)
            self.cut_log = [record for _, record in entries]
        snapshots: list[Snapshot] = []
        for path in self._layout.cut_files():
            try:
                snapshots.append(decode_frame(path.read_bytes()))
            except FrameError:
                # A crash before the atomic rename finished (or bit
                # rot): the cut never completed, so it does not exist.
                self.dropped_unreadable += 1
                path.unlink()
        snapshots.sort(key=lambda snapshot: snapshot.snapshot_id)
        self._snapshots = snapshots
        self.loaded = len(snapshots)
        manifest = read_manifest(self._layout)
        self._next_id = max(
            [snapshot.snapshot_id + 1 for snapshot in snapshots]
            + [int(manifest.get("next_snapshot_id", 0))])

    # -- durability plumbing --------------------------------------------
    def _persist_snapshot(self, snapshot: Snapshot) -> None:
        frame = encode_frame(snapshot)
        path = self._layout.cut_path(snapshot.snapshot_id)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as handle:
            handle.write(frame)
            handle.flush()
            self._sync(handle)
        os.replace(tmp, path)
        self._sync(self._layout.snapshots_dir)
        self.bytes_written += len(frame)

    def _append_ledger(self) -> None:
        frame = encode_frame(self.cut_log[-1])
        created = not self._layout.ledger_path.exists()
        with open(self._layout.ledger_path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            self._sync(handle)
        if created:
            self._sync(self._layout.snapshots_dir)
        self.bytes_written += len(frame)

    def _sweep_files(self) -> None:
        """Unlink cut files that fell out of the retention window (the
        in-memory prune already ran; disk mirrors it)."""
        retained = {snapshot.snapshot_id for snapshot in self._snapshots}
        swept = [path for path in self._layout.cut_files()
                 if int(path.stem.split("-")[-1]) not in retained]
        for path in swept:
            path.unlink()
        if swept:
            self._sync(self._layout.snapshots_dir)

    # -- the in-memory interface, persisted -----------------------------
    def take(self, **kwargs) -> Snapshot:
        snapshot = super().take(**kwargs)
        self._persist_snapshot(snapshot)
        self._append_ledger()
        update_manifest(self._layout, sync=self._sync,
                        next_snapshot_id=self._next_id)
        self._sweep_files()
        return snapshot
