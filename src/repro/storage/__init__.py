"""Disk-backed durability: file-backed snapshot and changelog stores.

The in-memory :class:`~repro.runtimes.stateflow.snapshots.SnapshotStore`
and :class:`~repro.runtimes.stateflow.snapshots.ChangelogStore` survive
*simulated* crashes only; this package puts real files under the same
interfaces so a real process death loses nothing:

- :class:`FileChangelogStore` — append-only segment files of
  length-prefixed wire frames, fsync-on-append, torn-tail truncation on
  open, compaction as whole-segment drops;
- :class:`FileSnapshotStore` — base and position cuts and the
  ``cut_log`` ledger persisted per cut (atomic rename, fsync);
- :mod:`.manifest` — the schema module: directory layout, the
  versioned ``MANIFEST.json`` and forward migration.

Wire-up is one knob: ``StateflowConfig(durability_dir=...)`` (CLI
``--durable <dir>``) makes the runtime hand these to the coordinator
instead of the in-memory stores.  Persistence is a pure side effect —
reply traces of durable runs are byte-identical to in-memory runs — and
a cold start is construction over the existing directory.
"""

from .changelog import FileChangelogStore
from .manifest import (FORMAT_VERSION, DurabilityLayout, StorageError,
                       open_layout, read_manifest, scan_frames,
                       update_manifest)
from .snapstore import FileSnapshotStore

__all__ = [
    "FORMAT_VERSION",
    "DurabilityLayout",
    "FileChangelogStore",
    "FileSnapshotStore",
    "StorageError",
    "open_layout",
    "read_manifest",
    "scan_frames",
    "update_manifest",
]
