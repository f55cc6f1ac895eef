"""Disk-backed durability: the stores on a durability directory.

The stores of :mod:`repro.runtimes.stateflow.snapshots` are written
once, against a medium; this package is the medium that puts them on
real files, so a real process death loses nothing:

- :mod:`.medium` — the durability contract: the directory layout, the
  versioned ``MANIFEST.json`` and :class:`DirectoryMedium`, the only
  code that opens, syncs, renames, truncates or unlinks its files;
- :class:`FileChangelogStore` and :class:`FileSnapshotStore` — the two
  stores over a :class:`DirectoryMedium`.

Wire-up is one knob: ``StateflowConfig(durability_dir=...)`` (CLI
``--durable <dir>``) makes the runtime hand these to the coordinator
instead of the in-memory stores.  Persistence is a pure side effect —
reply traces of durable runs are byte-identical to in-memory runs — and
a cold start is construction over the existing directory.
"""

from .changelog import FileChangelogStore
from .medium import FORMAT_VERSION, DirectoryMedium, StorageError, scan_frames
from .snapstore import FileSnapshotStore

__all__ = [
    "FORMAT_VERSION",
    "DirectoryMedium",
    "FileChangelogStore",
    "FileSnapshotStore",
    "StorageError",
    "scan_frames",
]
