"""Consistent snapshots and recovery bookkeeping (paper Section 3).

"For fault-tolerance StateFlow implements the consistent snapshots
protocol [13, 15] ... alongside a replayable source as an ingress,
allowing StateFlow to rollback messages and restore the snapshot upon
failure."

StateFlow's deterministic batches give natural epoch boundaries: between
two batches no transaction is in flight, so a cut taken there is globally
consistent (the alignment that Chandy–Lamport markers establish in a
general dataflow).  A snapshot therefore captures, atomically at a batch
boundary:

- every worker's committed operator state,
- the replayable source's (Kafka) consumer offsets,
- the coordinator's queue of admitted-but-uncommitted requests (they
  were already consumed from the source, so offset rewind alone would
  lose them — they are the "channel state" of the classic protocol).
  Under pipelined epochs this includes the transactions of
  still-*executing* batches: their effects are uncommitted at the cut,
  so they fold back into pending and replay re-forms them — a snapshot
  never contains a half-committed batch,
- the request ids already answered (egress dedup) and ever admitted
  (ingress dedup), each an :class:`~.dedup.IdSet`: a watermark below
  which every id is present plus the few ids past it, so a cut copies
  O(requests in flight), not every id the run has served,
- protocol counters (batch sequence, transaction arrival sequence).

Recovery restores the latest complete snapshot and seeks the source back
to its offsets; replayed requests re-execute and the egress dedup set
suppresses duplicate replies — exactly-once end to end.

The operator-state payload of a base is a
:class:`~repro.runtimes.state.PartitionedSnapshot` of per-slot
fragments, each a pointer copy of one slot's map sharing the store's
entries.  The payload is read-only for whoever holds it (the state
module's entry contract).  ``restore`` is symmetric: the store fans
fragments back out to their slots.  Keying fragments by slot rather
than by worker makes snapshots independent of the cluster size, so
recovery composes with elastic rescaling; the frozen
:class:`~repro.runtimes.state.SlotAssignment` rides along in the
snapshot so replay routes exactly as the original execution did.

A cut is a changelog position
-----------------------------

The coordinator appends every committed batch's write set to the
:class:`ChangelogStore` — key → post-commit state — and that log is the
one record of committed writes.  A cut is one of

- a **base** (``kind="base"``): the whole committed state, taken for
  the first cut, after every recovery and then every ``base_every``
  cuts (``base_every=1``: every cut is a base); or
- a **position cut** (``kind="position"``): channel state only, plus
  the changelog position it covers (``changelog_seq``) and the id of
  its base (``base_id``).  Its view sidecar is its base's too
  (:meth:`SnapshotStore.sidecar`): a resume folds the log past the
  base, so a cut keeps nothing its base and the log can give back.

Recovery, snapshot queries, as-of queries and a cold start all resolve
a cut the same way (:meth:`SnapshotStore.resolve`): take its retained
base, fold the records in (base seq, cut seq] into one write set and
apply it once — records carry absolute post-states, so the fold is a
dict update and replay is idempotent.  A cut whose base is gone or
whose span has a gap does not resolve, and
:meth:`SnapshotStore.latest_recoverable` skips it for the next older
one.  The retention window keeps the newest ``keep`` cuts plus their
bases; the changelog is truncated below the oldest retained base, and
the runtime drops source records below the lowest offset a retained
cut can seek to (:meth:`SnapshotStore.floor_source_offsets`).

One store per log, one medium per place
---------------------------------------

Each store is written once, against a :class:`Medium`: named files of
records it appends, atomically replaces, truncates and unlinks.  An
in-memory run hands the stores a :class:`MemoryMedium`, which keeps the
Python objects and encodes nothing; a durable run hands them a
:class:`~repro.storage.medium.DirectoryMedium`, which writes wire frames
under the durability directory and owns every sync.  Segment rolling,
rewind truncation, compaction, retention and "open = load what the
medium holds" are therefore the same code on both, and a store opened
over an empty medium starts empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, Iterable, Protocol

from ..state import apply_flat_writes, payload_footprint
from .dedup import IdSet

#: The names the stores give their files on a medium (the durability
#: directory's layout, relative to its root).
SEGMENT = "changelog/segment-{:010d}.log"
SEGMENTS = "changelog/segment-*.log"
CUT = "snapshots/cut-{:010d}.bin"
CUTS = "snapshots/cut-*.bin"
LEDGER = "snapshots/ledger.log"


def _number(name: str) -> int:
    """The seq a segment file is named by."""
    return int(name.rsplit("-", 1)[1].split(".", 1)[0])


class SnapshotChainError(RuntimeError):
    """A cut does not resolve: its base is gone or its changelog span
    has a gap."""


@dataclass(slots=True)
class Snapshot:
    """One complete, consistent snapshot."""

    snapshot_id: int
    taken_at_ms: float
    #: Operator-state payload of a base: a plain {(entity, key): state}
    #: dict, or a PartitionedSnapshot of per-slot fragments (see module
    #: doc).  ``None`` for a position cut.
    state: Any
    #: Kafka positions of the ingress consumer group:
    #: {(topic, partition): offset}.
    source_offsets: dict[tuple[str, int], int]
    #: Request ids whose replies were emitted before this snapshot: the
    #: watermark and the ids past it (:class:`~.dedup.IdSet`), so the
    #: copy holds the replies in flight, not every reply ever sent.
    replied: IdSet
    #: Monotonic counters to restore protocol determinism.
    batch_seq: int
    arrival_seq: int
    #: Requests consumed from the source but not yet committed at the
    #: snapshot boundary (restored into the coordinator's queue).
    pending: list[Any] = field(default_factory=list)
    #: Committed transactional replies still buffered for the next
    #: epoch flush at the cut.  They are channel state exactly like
    #: ``pending``: their requests are already admitted (so replay drops
    #: them at the ingress) and their effects are in ``state``, so a
    #: crash that loses the buffer would lose the replies forever —
    #: the recovery-equivalence battery caught precisely that.
    epoch_buffer: list[Any] = field(default_factory=list)
    #: Request ids ever admitted from the source (ingress dedup: an
    #: at-least-once producer can append the same request twice; replayed
    #: requests after recovery must re-admit, so the set is snapshotted
    #: with everything else).  An :class:`~.dedup.IdSet` like
    #: ``replied``: its copy holds the ids past the watermark only.
    admitted: IdSet = field(default_factory=IdSet)
    #: Frozen slot assignment ``(workers, owners)`` at the cut — part of
    #: the consistent state because a recovery that lands after an
    #: elastic rescale must replay under the snapshot's routing table,
    #: not whatever table is current.  ``None`` when the committed store
    #: is not partitioned.
    assignment: Any = None
    #: ``"base"`` (whole state) or ``"position"`` (no state payload).
    #: ``"full"`` (the cuts ``perf/``'s probes take) reads as a base.
    kind: str = "base"
    #: The base this cut resolves from: its own id for a base.
    base_id: int = -1
    #: Position of the commit changelog at the cut (seq of the last
    #: record the cut's state includes; -1 = none).
    changelog_seq: int = -1
    #: Durable-view sidecar of a base: the versioned export of every
    #: registered view plan's operator state at the cut (see
    #: :meth:`~repro.views.manager.ViewManager.export_sidecar`), so
    #: recovery and cold starts resume views incrementally instead of
    #: rescanning state.  ``None`` when no views were registered, and
    #: for a position cut, whose sidecar is its base's
    #: (:meth:`SnapshotStore.sidecar`).
    views_state: Any = None


@dataclass(slots=True)
class CutRecord:
    """Bench-facing ledger entry: what one cut actually captured."""

    snapshot_id: int
    kind: str
    keys: int
    bytes: int
    taken_at_ms: float


@dataclass(slots=True)
class ChangelogRecord:
    """One committed batch's write footprint: key → post-commit state.
    Absolute states make replay idempotent: folding a record in twice
    equals folding it in once."""

    seq: int
    batch_id: int
    writes: dict[tuple[str, Any], dict[str, Any]]
    #: Simulated time the batch closed — the timestamp axis of as-of
    #: (time-travel) queries.  Batch ids and append times are both
    #: monotone in ``seq``.
    at_ms: float = 0.0


class Medium(Protocol):
    """Where a store's files live: named files of records.  A position
    is the medium's own mark just past a record, to truncate at."""

    #: The medium's I/O tax (0 for a medium that never syncs or encodes).
    fsyncs: int
    fsync_wall_ms: float
    bytes_written: int

    def list(self, pattern: str) -> list[str]:
        """The names matching a glob *pattern*, sorted."""

    def read(self, name: str) -> tuple[list[tuple[int, Any]], int]:
        """``([(position, record), ...], torn)``: the file's intact
        records, after cutting away the *torn* bytes past them."""

    def append(self, name: str, record: Any) -> int:
        """Add *record* to the end of the file (created as needed), to
        stay; returns its position."""

    def replace(self, name: str, record: Any) -> None:
        """Make the file hold *record* alone, all at once."""

    def truncate(self, name: str, position: int) -> None:
        """Drop the file's records past *position*, to stay dropped."""

    def unlink(self, names: list[str]) -> None:
        """Remove the files, to stay removed."""

    def manifest(self) -> dict[str, Any]:
        """The medium's metadata document."""

    def update_manifest(self, **fields: Any) -> None:
        """Merge *fields* into the metadata document, all at once."""

    def close(self) -> None:
        """Release whatever the medium holds open."""


class MemoryMedium:
    """The :class:`Medium` of an in-memory run: files are lists of the
    records themselves, nothing is encoded and nothing syncs."""

    fsyncs = 0
    fsync_wall_ms = 0.0
    bytes_written = 0

    def __init__(self) -> None:
        self._files: dict[str, list[Any]] = {}
        self._manifest: dict[str, Any] = {}

    def list(self, pattern: str) -> list[str]:
        return sorted(name for name in self._files
                      if fnmatchcase(name, pattern))

    def read(self, name: str) -> tuple[list[tuple[int, Any]], int]:
        return list(enumerate(self._files.get(name, ()), 1)), 0

    def append(self, name: str, record: Any) -> int:
        records = self._files.setdefault(name, [])
        records.append(record)
        return len(records)

    def replace(self, name: str, record: Any) -> None:
        self._files[name] = [record]

    def truncate(self, name: str, position: int) -> None:
        del self._files[name][position:]

    def unlink(self, names: list[str]) -> None:
        for name in names:
            del self._files[name]

    def manifest(self) -> dict[str, Any]:
        return dict(self._manifest)

    def update_manifest(self, **fields: Any) -> None:
        self._manifest.update(fields)

    def close(self) -> None:
        pass


class _OnMedium:
    """A store's I/O counters are its medium's."""

    medium: Medium
    fsyncs = property(lambda self: self.medium.fsyncs)
    fsync_wall_ms = property(lambda self: self.medium.fsync_wall_ms)
    bytes_written = property(lambda self: self.medium.bytes_written)

    def close(self) -> None:
        self.medium.close()


class ChangelogStore(_OnMedium):
    """Append-only log of per-batch write sets: the one record of
    committed writes.

    The coordinator appends one record per committed batch; resolving a
    cut folds the records between its base and its position (module
    docstring).  ``rewind_to`` drops the suffix a recovery rolled back
    (those records describe a timeline replay is about to re-create
    under new batch ids); ``truncate_through`` compacts the prefix no
    retained base can ever need again.

    On the medium, records go into segment files rolled every
    ``segment_records`` records and each named by its first record's
    seq.  Opening loads what the medium holds: the records past the
    manifest's ``changelog_floor``, up to the first torn segment (the
    ones after it, and after any gap, are from a lost timeline and go).
    Counters beyond the medium's: ``loaded`` (records found on open),
    ``torn_tail_bytes`` and ``segments_dropped`` (compaction).

    The log publishes: :meth:`append` hands each record to every
    subscriber as ``callback(seq, writes, at_ms)``, in seq order and
    only once the medium holds it (a directory has written and synced
    its frame), so no subscriber hears of a record a crash could take
    back.  ``rewind_to(S)`` publishes nothing; the next record published
    is ``S + 1``."""

    def __init__(self, medium: Medium | None = None, *,
                 segment_records: int = 256):
        self.medium = MemoryMedium() if medium is None else medium
        self._segment_records = max(int(segment_records), 1)
        self._records: list[ChangelogRecord] = []
        self._subscribers: list[Callable[[int, dict, float], None]] = []
        self.appended = 0
        self.truncated = 0
        #: Records :meth:`rewind_to` dropped (``appended - rewound`` live).
        self.rewound = 0
        self.loaded = 0
        self.torn_tail_bytes = 0
        self.segments_dropped = 0
        #: Per segment, oldest first: its first seq, its name (made of
        #: that seq) and the medium position just past each record in it.
        self._segments: list[tuple[int, str, list[int]]] = []
        self._load()

    def _load(self) -> None:
        self._floor = self.medium.manifest().get("changelog_floor", -1)
        head = -1
        names = self.medium.list(SEGMENTS)
        for index, name in enumerate(names):
            first = _number(name)
            if self._segments and first != head + 1:
                # A gap: what follows it is from a lost timeline.
                self.medium.unlink(names[index:][::-1])
                break
            entries, torn = self.medium.read(name)
            self._segments.append((first, name, [end for end, _ in entries]))
            for _, record in entries:
                head = record.seq
                if record.seq > self._floor:
                    self._records.append(record)
            self.loaded += len(entries)
            if torn:
                # Appends are strictly sequential: segments past a torn
                # one hold bytes that never logically existed.
                self.torn_tail_bytes += torn
                if index + 1 < len(names):
                    self.medium.unlink(names[index + 1:][::-1])
                break
        self._next_seq = max(head, self._floor) + 1

    @property
    def head_seq(self) -> int:
        """Seq of the newest record (-1 when the log is empty/rewound)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._records)

    def subscribe(self, callback: Callable[[int, dict, float], None]) -> None:
        """Hand every record published from now on to *callback*."""
        self._subscribers.append(callback)

    def append(self, batch_id: int,
               writes: dict[tuple[str, Any], dict[str, Any]], *,
               at_ms: float = 0.0) -> int:
        """Append one closed batch's write set, then publish it; returns
        its seq."""
        seq = self._next_seq
        record = ChangelogRecord(seq, batch_id, dict(writes), at_ms)
        if (not self._segments
                or len(self._segments[-1][2]) >= self._segment_records):
            self._segments.append((seq, SEGMENT.format(seq), []))
        _, name, ends = self._segments[-1]
        ends.append(self.medium.append(name, record))
        self._next_seq += 1
        self._records.append(record)
        self.appended += 1
        for callback in self._subscribers:
            callback(seq, record.writes, at_ms)
        return seq

    def records_between(self, after_seq: int,
                        up_to_seq: int) -> list[ChangelogRecord] | None:
        """The contiguous suffix ``(after_seq, up_to_seq]`` — ``None``
        when any record in the span is missing (truncated or never
        appended): no state can be resolved across the gap."""
        span = [record for record in self._records
                if after_seq < record.seq <= up_to_seq]
        if len(span) != max(up_to_seq - after_seq, 0):
            return None
        return span

    def rewind_to(self, seq: int) -> None:
        """Recovery rolled the run back to a cut at position *seq*:
        drop the now-orphaned suffix, from the medium too (a cold start
        must never resurrect the rolled-back timeline), and resume
        sequencing from there.  The dropped records count as
        ``rewound`` — they were written, but they no longer exist on
        the surviving timeline."""
        if seq >= self.head_seq:
            return
        kept = [record for record in self._records if record.seq <= seq]
        self.rewound += len(self._records) - len(kept)
        self._records, self._next_seq = kept, seq + 1
        # Newest first, so a crash midway leaves a contiguous log.  A
        # segment whose first record is orphaned goes whole (kept
        # empty, it would share its name with a later roll's).
        orphaned = [name for first, name, _ in self._segments
                    if first > seq]
        if orphaned:
            self.medium.unlink(orphaned[::-1])
            del self._segments[-len(orphaned):]
        if self._segments:
            first, name, ends = self._segments[-1]
            del ends[seq + 1 - first:]
            self.medium.truncate(name, ends[-1])

    def last_as_of(self, *, batch: int | None = None,
                   at_ms: float | None = None) -> ChangelogRecord | None:
        """The newest record at or before an as-of boundary —
        ``batch_id <= batch`` or append time ``<= at_ms`` — or ``None``
        when no retained record is."""
        for record in reversed(self._records):
            if ((batch is None or record.batch_id <= batch)
                    and (at_ms is None or record.at_ms <= at_ms)):
                return record
        return None

    def truncate_through(self, seq: int) -> None:
        """Compaction: drop records no retained cut can need (their seq
        is at or below the oldest retained base's position).  The floor
        goes into the manifest first; then every segment wholly at or
        below it goes, oldest first, except the one being appended
        into."""
        before = len(self._records)
        self._records = [record for record in self._records
                         if record.seq > seq]
        self.truncated += before - len(self._records)
        if seq > self._floor:
            self._floor = seq
            self.medium.update_manifest(changelog_floor=seq)
        dead = 0
        while (dead + 1 < len(self._segments)
               and self._segments[dead + 1][0] <= seq + 1):
            dead += 1
        if dead:
            self.medium.unlink([name for _, name, _ in self._segments[:dead]])
            del self._segments[:dead]
            self.segments_dropped += dead


def replay(payload: Any, records: list[ChangelogRecord]) -> Any:
    """Fold *records* (oldest first) into one write set — newer
    post-states win — and apply it to *payload* once."""
    writes: dict = {}
    for record in records:
        writes.update(record.writes)
    return apply_flat_writes(payload, writes)


class SnapshotStore(_OnMedium):
    """Home of completed snapshots.

    A base every ``base_every`` cuts and position cuts in between
    (module docstring); :meth:`next_kind` tells the coordinator what to
    capture, :meth:`resolve` turns a cut back into a state payload, and
    :meth:`latest_recoverable` picks the newest cut that resolves.

    On the medium, each cut is one file replaced into place, and the
    ``cut_log`` ledger one appended record per cut; the retention
    window unlinks the files of cuts that fell out of it once the new
    cut is on the medium.  Opening loads the retained cuts and the
    ledger (``loaded``; an unreadable cut file is dropped and counted
    in ``dropped_unreadable``), and ids continue past every id the cut
    files and the ledger name.  The first cut after opening is a
    base."""

    def __init__(self, medium: Medium | None = None, *, keep: int = 4,
                 base_every: int = 4, track_footprints: bool = False):
        self.medium = MemoryMedium() if medium is None else medium
        self._keep = keep
        self.base_every = max(base_every, 1)
        #: The base new position cuts resolve from (``None``: the next
        #: cut must be one) and the cuts taken since it, itself included.
        self._base_id: int | None = None
        self._cuts_since_base = 0
        #: Measure each cut's (keys, bytes) into the ledger.  Costs
        #: O(payload) repr work per base, so it is off unless asked for
        #: (the recovery bench turns it on for both sides of its sweep).
        self.track_footprints = track_footprints
        self._load()

    def _load(self) -> None:
        entries, _ = self.medium.read(LEDGER)
        #: Ledger of what each cut captured (bench metrics); survives
        #: pruning like any other durable metadata.
        self.cut_log: list[CutRecord] = [record for _, record in entries]
        cuts, unreadable = [], []
        for name in self.medium.list(CUTS):
            entries, _ = self.medium.read(name)
            if len(entries) == 1:
                cuts.append(entries[0][1])
            else:
                # A crash before the atomic replace finished (or bit
                # rot): the cut never completed, so it does not exist.
                unreadable.append(name)
        if unreadable:
            self.medium.unlink(unreadable)
        self.dropped_unreadable = len(unreadable)
        self._snapshots: list[Snapshot] = sorted(
            cuts, key=lambda cut: cut.snapshot_id)
        self.loaded = len(cuts)
        # Ids are never reused: a stale cut file from a slow unlink or a
        # backup could otherwise shadow a new cut.
        self._next_id = 1 + max(
            (cut.snapshot_id for cut in [*cuts, *self.cut_log]), default=-1)

    # -- cut planning ---------------------------------------------------
    def next_kind(self) -> str:
        """What the next cut must capture: a ``base`` for the first
        cut, after :meth:`rebase` and then every ``base_every`` cuts; a
        ``position`` otherwise."""
        if self._base_id is None or self._cuts_since_base >= self.base_every:
            return "base"
        return "position"

    def rebase(self) -> None:
        """Make the next cut a base.  Recovery calls this: after a
        fallback past a cut that did not resolve, the current base may
        postdate the restored cut and describe the rolled-back
        timeline."""
        self._base_id = None

    def take(self, *, taken_at_ms: float, state: Any,
             source_offsets: dict, replied: Iterable[int],
             batch_seq: int, arrival_seq: int,
             pending: list[Any] | None = None,
             admitted: Iterable[int] | None = None,
             assignment: Any = None, kind: str = "base",
             changelog_seq: int = -1,
             epoch_buffer: list[Any] | None = None,
             views_state: Any = None) -> Snapshot:
        """Record one cut.  A ``position`` cut carries no *state*; any
        other kind is a base."""
        snapshot_id = self._next_id
        if kind == "position":
            state = None
            self._cuts_since_base += 1
        else:
            self._base_id = snapshot_id
            self._cuts_since_base = 1
        snapshot = Snapshot(
            snapshot_id=snapshot_id, taken_at_ms=taken_at_ms,
            state=state, source_offsets=dict(source_offsets),
            replied=IdSet(replied), batch_seq=batch_seq,
            arrival_seq=arrival_seq, pending=list(pending or []),
            admitted=IdSet(admitted or ()), assignment=assignment,
            kind=kind, base_id=self._base_id, changelog_seq=changelog_seq,
            epoch_buffer=list(epoch_buffer or []),
            views_state=views_state)
        self._next_id += 1
        self._snapshots.append(snapshot)
        self.medium.replace(CUT.format(snapshot_id), snapshot)
        keys, size = (payload_footprint(state)
                      if self.track_footprints else (0, 0))
        self.cut_log.append(CutRecord(
            snapshot_id=snapshot_id, kind=kind, keys=keys, bytes=size,
            taken_at_ms=taken_at_ms))
        self.medium.append(LEDGER, self.cut_log[-1])
        self._prune()
        return snapshot

    def _prune(self) -> None:
        """Keep the newest ``keep`` cuts plus the bases they resolve
        from."""
        if len(self._snapshots) <= self._keep:
            return
        newest = self._snapshots[-self._keep:]
        needed = ({cut.snapshot_id for cut in newest}
                  | {cut.base_id for cut in newest})
        dropped = [CUT.format(cut.snapshot_id) for cut in self._snapshots
                   if cut.snapshot_id not in needed]
        if dropped:
            self._snapshots = [cut for cut in self._snapshots
                               if cut.snapshot_id in needed]
            self.medium.unlink(dropped)

    # -- resolution -----------------------------------------------------
    def latest(self) -> Snapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    def retained(self) -> list[Snapshot]:
        """Every snapshot still in the retention window, oldest first —
        the candidate set as-of queries walk when picking an anchor."""
        return list(self._snapshots)

    def _base_of(self, cut: Snapshot) -> Snapshot | None:
        return next((candidate for candidate in self._snapshots
                     if candidate.snapshot_id == cut.base_id), None)

    def sidecar(self, cut: Snapshot) -> Any:
        """The view sidecar *cut* resumes from: a base's own, a position
        cut's base's — whose memos sit at the base's seq, so a resume
        folds the log from there.  ``None`` when that base has none."""
        if cut.kind != "position":
            return cut.views_state
        base = self._base_of(cut)
        return base.views_state if base is not None else None

    def resolve(self, cut: Snapshot, changelog: ChangelogStore | None = None,
                *, up_to_seq: int | None = None) -> Any:
        """*cut*'s committed state: its base's payload with the records
        in (base seq, cut seq] folded over it.  *up_to_seq* (an as-of
        query) folds on past the cut to that position.  Raises
        :class:`SnapshotChainError` when the base is gone or the span
        has a gap."""
        base = self._base_of(cut)
        if base is None:
            raise SnapshotChainError(
                f"snapshot {cut.snapshot_id}'s base {cut.base_id} is gone")
        up_to_seq = cut.changelog_seq if up_to_seq is None else up_to_seq
        if up_to_seq == base.changelog_seq:
            return base.state
        records = (changelog.records_between(base.changelog_seq, up_to_seq)
                   if changelog is not None else None)
        if records is None:
            raise SnapshotChainError(
                f"snapshot {cut.snapshot_id}'s changelog span "
                f"({base.changelog_seq}, {up_to_seq}] has a gap")
        return replay(base.state, records)

    def latest_recoverable(
            self, changelog: ChangelogStore | None = None,
    ) -> tuple[Snapshot, Any]:
        """The newest cut that resolves, with its state payload; cuts
        that do not resolve are skipped for older ones."""
        for snapshot in reversed(self._snapshots):
            try:
                return snapshot, self.resolve(snapshot, changelog)
            except SnapshotChainError:
                continue
        raise SnapshotChainError("no recoverable snapshot retained")

    # -- compaction support ---------------------------------------------
    def floor_changelog_seq(self) -> int:
        """The oldest retained base's changelog position: records at or
        below it are dead weight."""
        return min((cut.changelog_seq for cut in self._snapshots
                    if cut.kind != "position"), default=-1)

    def floor_source_offsets(self) -> dict[tuple[str, int], int]:
        """Per source partition, the lowest offset a retained cut can
        seek back to: records below it can never be replayed."""
        floor: dict[tuple[str, int], int] = {}
        for cut in self._snapshots:
            for slot, offset in cut.source_offsets.items():
                floor[slot] = min(offset, floor.get(slot, offset))
        return floor

    def __len__(self) -> int:
        return len(self._snapshots)
