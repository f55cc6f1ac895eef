"""The durability directory: its layout, its format and the one medium
that writes it.

A durability directory is the on-disk home of one StateFlow
deployment's recovery state (``StateflowConfig(durability_dir=...)`` /
``--durable <dir>`` on the CLI)::

    <dir>/
      MANIFEST.json                  # format version + changelog floor
      changelog/segment-<seq>.log    # append-only commit-record frames
      snapshots/cut-<id>.bin         # one frame per retained cut
      snapshots/ledger.log           # append-only CutRecord frames

The stores (:mod:`repro.runtimes.stateflow.snapshots`) decide what goes
into which file; :class:`DirectoryMedium` is the only code that opens,
syncs, renames, truncates or unlinks these files, so the contract a
crash or a power loss is held to is written here once:

- every binary file is a sequence of :mod:`repro.substrates.wire`
  frames (``magic | length | buffers | pickle-5 body``), so a torn tail
  — the bytes a crash landed mid-``write`` — is detected by the same
  framing that detects torn socket streams, and cut away on read;
- a write or a truncation is followed by an ``fsync`` of its file, and
  a create, rename or unlink by an ``fsync`` of its directory, all
  before the call returns (``fsync=False`` forces none); the syncs are
  counted in ``fsyncs`` / ``fsync_wall_ms``;
- a replaced file is written to a temporary name, synced and renamed
  over the old one, so a crash leaves the old file or the new, never
  half of one.

The manifest is the versioned part of the schema, and a medium opens
exactly one version, :data:`FORMAT_VERSION`.  A directory written in
any other format is refused with a :class:`StorageError` naming the
version it found, before a file is touched: a manifest from a newer
format (downgrading code must not silently misread a layout it does not
understand), a manifest from an older one, and a directory with no
manifest that holds root-level ``segment-*.log``, ``cut-*.bin`` or
``ledger.log`` files (the version-0 flat layout).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from ..substrates.wire import (MAGIC, MAX_FRAME_BYTES, FrameError,
                               decode_frame, encode_frame)

#: The one layout version this build reads and writes.
FORMAT_VERSION = 4

_HEADER = len(MAGIC) + 4  # magic + big-endian u32 payload length
_MANIFEST = "MANIFEST.json"


class StorageError(RuntimeError):
    """The durability directory cannot be opened (a format other than
    :data:`FORMAT_VERSION`)."""


def scan_frames(data: bytes) -> tuple[list[tuple[int, Any]], int]:
    """Decode a file's frames front to back: ``([(end_offset, message),
    ...], clean_through)``.

    ``clean_through`` is the byte offset after the last intact frame;
    when it is shorter than ``len(data)`` the tail is torn (a crash
    landed mid-append) or corrupt — exactly what an append-only log
    cuts away on recovery."""
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


class DirectoryMedium:
    """The :class:`~repro.runtimes.stateflow.snapshots.Medium` of a
    durability directory (see module docstring).  Names are paths
    relative to the root; a position is a byte offset.

    ``fsyncs`` / ``fsync_wall_ms`` count the syncs and
    ``bytes_written`` the frame bytes appended or replaced."""

    def __init__(self, directory: str | os.PathLike, *, fsync: bool = True):
        self.root = Path(directory)
        self._fsync = fsync
        self.fsyncs = 0
        self.fsync_wall_ms = 0.0
        self.bytes_written = 0
        #: ``(name, handle)`` of the file appends last went to.
        self._appending: tuple[str, Any] | None = None
        self.root.mkdir(parents=True, exist_ok=True)
        version = self.manifest().get("format_version")
        if version is None and (any(self.root.glob("segment-*.log"))
                                or any(self.root.glob("cut-*.bin"))
                                or (self.root / "ledger.log").exists()):
            version = 0  # the flat prototype layout never wrote a manifest
        if version is not None and version != FORMAT_VERSION:
            kind = "newer" if version > FORMAT_VERSION else "legacy"
            raise StorageError(
                f"durability directory {self.root} has format version "
                f"{version}; this build reads only version "
                f"{FORMAT_VERSION} — refusing to touch a {kind} layout")
        (self.root / "changelog").mkdir(exist_ok=True)
        (self.root / "snapshots").mkdir(exist_ok=True)
        if version is None:
            # Its directory sync makes the two subdirectories durable too.
            self.update_manifest(format_version=FORMAT_VERSION)

    def sync(self, target: Any) -> None:
        """Force an open file, or a directory by path (which makes a
        create, rename or unlink in it survive a power loss), to disk."""
        if not self._fsync:
            return
        started = time.perf_counter()
        if isinstance(target, Path):
            descriptor = os.open(target, os.O_RDONLY)
            try:
                os.fsync(descriptor)
            finally:
                os.close(descriptor)
        else:
            os.fsync(target.fileno())
        self.fsync_wall_ms += (time.perf_counter() - started) * 1e3
        self.fsyncs += 1

    # -- reading ---------------------------------------------------------
    def list(self, pattern: str) -> list[str]:
        return sorted(path.relative_to(self.root).as_posix()
                      for path in self.root.glob(pattern))

    def read(self, name: str) -> tuple[list[tuple[int, Any]], int]:
        path = self.root / name
        if not path.exists():
            return [], 0
        data = path.read_bytes()
        entries, clean = scan_frames(data)
        if clean < len(data):
            self.truncate(name, clean)
        return entries, len(data) - clean

    def manifest(self) -> dict[str, Any]:
        path = self.root / _MANIFEST
        return json.loads(path.read_text()) if path.exists() else {}

    # -- writing ---------------------------------------------------------
    def append(self, name: str, record: Any) -> int:
        frame = encode_frame(record)
        if self._appending is None or self._appending[0] != name:
            self.close()
            path = self.root / name
            created = not path.exists()
            self._appending = (name, open(path, "ab"))
            if created:
                self.sync(path.parent)
        handle = self._appending[1]
        handle.write(frame)
        handle.flush()
        self.sync(handle)
        self.bytes_written += len(frame)
        return handle.tell()

    def replace(self, name: str, record: Any) -> None:
        frame = encode_frame(record)
        self._write_atomically(self.root / name, frame)
        self.bytes_written += len(frame)

    def update_manifest(self, **fields: Any) -> None:
        manifest = self.manifest()
        manifest.setdefault("format_version", FORMAT_VERSION)
        manifest.update(fields)
        self._write_atomically(
            self.root / _MANIFEST,
            json.dumps(manifest, indent=2, sort_keys=True).encode())

    def _write_atomically(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            self.sync(handle)
        os.replace(tmp, path)
        self.sync(path.parent)

    def truncate(self, name: str, position: int) -> None:
        self._close(name)
        path = self.root / name
        if path.stat().st_size == position:
            return
        with open(path, "r+b") as handle:
            handle.truncate(position)
            self.sync(handle)

    def unlink(self, names: list[str]) -> None:
        parents: dict[Path, None] = {}
        for name in names:
            self._close(name)
            path = self.root / name
            path.unlink()
            parents[path.parent] = None
        for parent in parents:
            self.sync(parent)

    def _close(self, name: str) -> None:
        if self._appending is not None and self._appending[0] == name:
            self.close()

    def close(self) -> None:
        if self._appending is not None:
            self._appending[1].close()
            self._appending = None
