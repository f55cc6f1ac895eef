"""The snapshot store on a durability directory: the
:class:`~repro.runtimes.stateflow.snapshots.SnapshotStore`, cut files
and ledger and all, over a
:class:`~repro.storage.medium.DirectoryMedium`."""

from __future__ import annotations

import os

from ..runtimes.stateflow.snapshots import SnapshotStore
# Unused here since the medium encodes; perf/trace.py still wraps this
# name (ROADMAP item 2 repoints it).
from ..substrates.wire import encode_frame  # noqa: F401
from .medium import DirectoryMedium


class FileSnapshotStore(SnapshotStore):
    """A :class:`SnapshotStore` over the durability directory at
    *directory*; ``fsync=False`` forces no syncs."""

    def __init__(self, directory: str | os.PathLike, *, keep: int = 4,
                 base_every: int = 4, track_footprints: bool = False,
                 fsync: bool = True, mode: str | None = None):
        # ``mode=`` survives only for perf/'s two call sites (ROADMAP
        # item 2): "full" was every cut a base.
        super().__init__(DirectoryMedium(directory, fsync=fsync), keep=keep,
                         base_every=1 if mode == "full" else base_every,
                         track_footprints=track_footprints)
