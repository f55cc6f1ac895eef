"""The commit changelog on a durability directory: the
:class:`~repro.runtimes.stateflow.snapshots.ChangelogStore`, segment
files and all, over a :class:`~repro.storage.medium.DirectoryMedium`."""

from __future__ import annotations

import os

from ..runtimes.stateflow.snapshots import ChangelogStore
# Unused here since the medium encodes; perf/trace.py still wraps this
# name (ROADMAP item 2 repoints it).
from ..substrates.wire import encode_frame  # noqa: F401
from .medium import DirectoryMedium


class FileChangelogStore(ChangelogStore):
    """A :class:`ChangelogStore` over the durability directory at
    *directory*; ``fsync=False`` forces no syncs."""

    def __init__(self, directory: str | os.PathLike, *,
                 fsync: bool = True, segment_records: int = 256):
        super().__init__(DirectoryMedium(directory, fsync=fsync),
                         segment_records=segment_records)
