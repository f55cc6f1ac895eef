"""Schema of the durability directory: layout and manifest.

A durability directory is the on-disk home of one StateFlow
deployment's recovery state (``StateflowConfig(durability_dir=...)`` /
``--durable <dir>`` on the CLI)::

    <dir>/
      MANIFEST.json                  # format version + store metadata
      changelog/segment-<seq>.log    # append-only commit-record frames
      snapshots/cut-<id>.bin         # one frame per retained snapshot
      snapshots/ledger.log           # append-only CutRecord frames

Every binary file is a sequence of :mod:`repro.substrates.wire` frames
(``magic | length | buffers | pickle-5 body``), so a torn tail — the
bytes a crash landed mid-``write`` — is detected by the same framing
that detects torn socket streams, and truncated away on open.

The manifest is the versioned part of the schema, and ``open_layout``
reads exactly one version, :data:`FORMAT_VERSION`.  A directory written
in any other format is refused with a :class:`StorageError` naming the
version it found, before either store touches a file: a manifest from a
newer format (downgrading code must not silently misread a layout it
does not understand), a manifest from an older one, and a directory
with no manifest that holds root-level ``segment-*.log``, ``cut-*.bin``
or ``ledger.log`` files (the version-0 flat layout).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from ..substrates.wire import MAGIC, MAX_FRAME_BYTES, FrameError, decode_frame

#: The one layout version this build reads and writes.
FORMAT_VERSION = 3

_HEADER = len(MAGIC) + 4  # magic + big-endian u32 payload length


class StorageError(RuntimeError):
    """The durability directory cannot be opened (a format other than
    :data:`FORMAT_VERSION`)."""


@dataclass(slots=True)
class DurabilityLayout:
    """Resolved paths of one durability directory."""

    root: Path

    @property
    def manifest_path(self) -> Path:
        return self.root / "MANIFEST.json"

    @property
    def changelog_dir(self) -> Path:
        return self.root / "changelog"

    @property
    def snapshots_dir(self) -> Path:
        return self.root / "snapshots"

    @property
    def ledger_path(self) -> Path:
        return self.snapshots_dir / "ledger.log"

    def segment_path(self, first_seq: int) -> Path:
        return self.changelog_dir / f"segment-{first_seq:010d}.log"

    def cut_path(self, snapshot_id: int) -> Path:
        return self.snapshots_dir / f"cut-{snapshot_id:010d}.bin"

    def segment_files(self) -> list[Path]:
        return sorted(self.changelog_dir.glob("segment-*.log"))

    def cut_files(self) -> list[Path]:
        return sorted(self.snapshots_dir.glob("cut-*.bin"))


def fsync(target: Any) -> None:
    """Force an open file, or a directory by path (which makes a create,
    rename or unlink in it survive a power loss), to disk."""
    if not isinstance(target, Path):
        return os.fsync(target.fileno())
    descriptor = os.open(target, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


class Synced:
    """A file store's syncs, of files and directories alike, counted in
    ``fsyncs`` / ``fsync_wall_ms``; ``fsync=False`` forces none."""

    def _sync(self, target: Any) -> None:
        if not self._fsync:
            return
        started = time.perf_counter()
        fsync(target)
        self.fsync_wall_ms += (time.perf_counter() - started) * 1e3
        self.fsyncs += 1


def read_manifest(layout: DurabilityLayout) -> dict[str, Any]:
    if not layout.manifest_path.exists():
        return {}
    return json.loads(layout.manifest_path.read_text())


def update_manifest(layout: DurabilityLayout, *,
                    sync: Callable[[Any], None] = fsync,
                    **fields: Any) -> dict[str, Any]:
    """Read-merge-write the manifest atomically (synced tmp, rename,
    synced directory), so a crash mid-update leaves either the old or
    the new manifest, never a half-written one, and a returned update
    survives a power loss."""
    manifest = read_manifest(layout)
    manifest.setdefault("format_version", FORMAT_VERSION)
    manifest.update(fields)
    tmp = layout.manifest_path.with_suffix(".json.tmp")
    with open(tmp, "w") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True))
        handle.flush()
        sync(handle)
    os.replace(tmp, layout.manifest_path)
    sync(layout.root)
    return manifest


def open_layout(directory: str | os.PathLike, *,
                sync: Callable[[Any], None] = fsync) -> DurabilityLayout:
    """Open (creating as needed) a durability directory.

    Idempotent: the changelog and snapshot stores of one deployment
    both call this on the same directory.  Refuses, touching nothing,
    a directory in any format but :data:`FORMAT_VERSION`."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    layout = DurabilityLayout(root)
    version = read_manifest(layout).get("format_version")
    if version is None and (any(root.glob("segment-*.log"))
                            or any(root.glob("cut-*.bin"))
                            or (root / "ledger.log").exists()):
        version = 0  # the flat prototype layout never wrote a manifest
    if version is not None and version != FORMAT_VERSION:
        kind = "newer" if version > FORMAT_VERSION else "legacy"
        raise StorageError(
            f"durability directory {root} has format version {version}; "
            f"this build reads only version {FORMAT_VERSION} — refusing "
            f"to touch a {kind} layout")
    layout.changelog_dir.mkdir(exist_ok=True)
    layout.snapshots_dir.mkdir(exist_ok=True)
    if version is None:
        # Its directory sync makes the two subdirectories durable too.
        update_manifest(layout, sync=sync, format_version=FORMAT_VERSION)
    return layout


def scan_frames(data: bytes) -> tuple[list[tuple[int, Any]], int]:
    """Decode a file's frames front to back: ``([(end_offset, message),
    ...], clean_through)``.

    ``clean_through`` is the byte offset after the last intact frame;
    when it is shorter than ``len(data)`` the tail is torn (a crash
    landed mid-append) or corrupt, and the caller truncates the file
    there — exactly the recovery contract of an append-only log."""
    entries: list[tuple[int, Any]] = []
    offset = 0
    while len(data) - offset >= _HEADER:
        if data[offset:offset + len(MAGIC)] != MAGIC:
            break
        length = int.from_bytes(
            data[offset + len(MAGIC):offset + _HEADER], "big")
        if length > MAX_FRAME_BYTES:
            break
        end = offset + _HEADER + length
        if end > len(data):
            break  # torn tail: the frame's remainder never hit disk
        try:
            message = decode_frame(data[offset:end])
        except FrameError:
            break
        entries.append((end, message))
        offset = end
    return entries, offset


def truncate_file(path: Path, length: int, *,
                  sync: Callable[[Any], None] = fsync) -> None:
    """Cut a file to *length* bytes in place, durably: a torn tail, or
    the suffix a rewind orphaned, must not come back after a power
    loss."""
    if path.stat().st_size == length:
        return
    with open(path, "r+b") as handle:
        handle.truncate(length)
        sync(handle)
