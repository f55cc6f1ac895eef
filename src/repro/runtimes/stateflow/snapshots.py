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
- the set of request ids already answered (egress dedup),
- protocol counters (batch sequence, transaction arrival sequence).

Recovery restores the latest complete snapshot and seeks the source back
to its offsets; replayed requests re-execute and the egress dedup set
suppresses duplicate replies — exactly-once end to end.

The operator-state payload is a
:class:`~repro.runtimes.state.PartitionedSnapshot` of per-slot
fragments, each a pointer copy of one slot's map sharing the store's
entries (or, in an incremental cut, one delta per dirtied slot).  The
payload is read-only for whoever holds it (the state module's entry
contract).  ``restore`` is symmetric: the store fans fragments back out
to their slots.  Keying fragments by slot rather than by worker makes
snapshots independent of the cluster size, so recovery composes with
elastic rescaling; the
frozen :class:`~repro.runtimes.state.SlotAssignment` rides along in the
snapshot so replay routes exactly as the original execution did.

Incremental snapshots & the commit changelog
--------------------------------------------

With ``mode="incremental"`` the store no longer expects every cut to
carry the whole committed state.  Cuts alternate between

- **base** cuts (``kind="base"``): a full payload, taken for the first
  cut and then every ``base_every`` cuts — the bounded-depth compaction
  that keeps recovery from replaying unbounded delta chains; and
- **delta** cuts (``kind="delta"``): only the slots dirtied since the
  previous cut (the backend's ``capture_delta``), chained to their
  predecessor through ``parent_id``.

Recovery resolves a cut by walking its chain back to the base and
replaying the deltas forward (:func:`~repro.runtimes.state
.resolve_payload`).  A second durable structure backs this up: the
:class:`ChangelogStore`, an append-only log of every committed batch's
write footprint (key → post-commit state).  When a delta fragment was
torn in flight (the ``torn_snapshot`` chaos event), the chain cannot
resolve — the recovery path then *repairs* the cut by resolving the
nearest intact ancestor and replaying the changelog suffix between the
two cuts' log positions, and only if that suffix is incomplete too does
it fall back to the last complete chain (an older cut, replayed from
the source as usual).  Changelog replay is idempotent: records carry
absolute post-states, so duplicated delivery cannot diverge.

Pruning is chain-aware: a base (or intermediate delta) that still
anchors a retained cut's resolution chain is never pruned, even when it
falls outside the ``keep`` window — pruning it would turn every
dependent delta cut into garbage.  :meth:`SnapshotStore.prune` refuses
explicitly; the automatic window trim simply stops at the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..state import (apply_flat_writes, duplicate_delta, payload_footprint,
                     resolve_payload)


class SnapshotChainError(RuntimeError):
    """A cut's delta chain cannot be resolved (torn or pruned link)."""


class SnapshotPruneError(RuntimeError):
    """Refused: the snapshot still anchors a live delta chain."""


@dataclass(slots=True)
class Snapshot:
    """One complete, consistent snapshot."""

    snapshot_id: int
    taken_at_ms: float
    #: Operator-state payload: a plain {(entity, key): state} dict, or
    #: a PartitionedSnapshot of per-slot fragments (see module doc).
    state: Any
    #: Kafka positions of the ingress consumer group:
    #: {(topic, partition): offset}.
    source_offsets: dict[tuple[str, int], int]
    #: Request ids whose replies were emitted before this snapshot.
    replied: set[int]
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
    #: with everything else).
    admitted: set[int] = field(default_factory=set)
    #: Frozen slot assignment ``(workers, owners)`` at the cut — part of
    #: the consistent state because a recovery that lands after an
    #: elastic rescale must replay under the snapshot's routing table,
    #: not whatever table is current.  ``None`` when the committed store
    #: is not partitioned.
    assignment: Any = None
    #: ``"full"`` (classic whole-state cut), ``"base"`` (full cut that
    #: anchors an incremental chain) or ``"delta"`` (dirtied slots only,
    #: chained to ``parent_id``).
    kind: str = "full"
    #: The cut this delta chains from (its immediate predecessor);
    #: ``None`` for full/base cuts.
    parent_id: int | None = None
    #: Position of the commit changelog at the cut (seq of the last
    #: record the cut's state includes; -1 = none).
    changelog_seq: int = -1
    #: Fault injection: the cut's delta fragment was dropped in flight —
    #: the payload is unusable and resolution must repair or fall back.
    torn: bool = False
    #: Durable-view sidecar: the versioned export of every registered
    #: view plan's operator state at the cut (see
    #: :meth:`~repro.views.manager.ViewManager.export_sidecar`), so
    #: recovery and cold starts resume views incrementally instead of
    #: rescanning state.  ``None`` when no views were registered.
    #: Cut files written before format v2 lack this slot entirely —
    #: readers go through ``getattr(snapshot, "views_state", None)``.
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
    Absolute states make replay idempotent under duplicate delivery."""

    seq: int
    batch_id: int
    writes: dict[tuple[str, Any], dict[str, Any]]
    #: Simulated time the batch closed — the timestamp axis of as-of
    #: (time-travel) queries.  Batch ids and append times are both
    #: monotone in ``seq``.
    at_ms: float = 0.0


class ChangelogStore:
    """Durable (simulated) append-only log of per-batch commit deltas.

    The coordinator appends one record per committed batch (incremental
    mode); recovery replays a suffix of it to repair cuts whose delta
    fragments were torn in flight.  ``rewind_to`` drops the suffix a
    recovery rolled back (those records describe a timeline replay is
    about to re-create under new batch ids); ``truncate_through``
    compacts the prefix no retained cut can ever need again."""

    def __init__(self):
        self._records: list[ChangelogRecord] = []
        self._by_batch: set[int] = set()
        self._next_seq = 0
        self.appended = 0
        self.duplicate_appends = 0
        self.truncated = 0
        self.bytes_appended = 0
        #: Records (and their bytes) dropped by :meth:`rewind_to` — the
        #: rolled-back timeline.  Net surviving volume is
        #: ``appended - rewound`` / ``bytes_appended - bytes_rewound``;
        #: the recovery bench reports the net so a run with fail-overs
        #: does not overstate what the log actually retains.
        self.rewound = 0
        self.bytes_rewound = 0

    @property
    def head_seq(self) -> int:
        """Seq of the newest record (-1 when the log is empty/rewound)."""
        return self._next_seq - 1

    def __len__(self) -> int:
        return len(self._records)

    @staticmethod
    def _record_bytes(record: ChangelogRecord) -> int:
        return sum(len(repr(key)) + len(repr(state))
                   for key, state in record.writes.items())

    def append(self, batch_id: int,
               writes: dict[tuple[str, Any], dict[str, Any]], *,
               at_ms: float = 0.0) -> int:
        """Append one batch's commit delta; duplicate appends of the
        same batch (a redelivered close) are dropped, not re-sequenced."""
        if batch_id in self._by_batch:
            self.duplicate_appends += 1
            return self.head_seq
        record = ChangelogRecord(seq=self._next_seq, batch_id=batch_id,
                                 writes=dict(writes), at_ms=at_ms)
        self._next_seq += 1
        self._records.append(record)
        self._by_batch.add(batch_id)
        self.appended += 1
        self.bytes_appended += self._record_bytes(record)
        return record.seq

    def records_between(self, after_seq: int,
                        up_to_seq: int) -> list[ChangelogRecord] | None:
        """The contiguous suffix ``(after_seq, up_to_seq]`` — ``None``
        when any record in the span is missing (truncated or never
        appended), in which case repair must fall back."""
        span = [record for record in self._records
                if after_seq < record.seq <= up_to_seq]
        if len(span) != max(up_to_seq - after_seq, 0):
            return None
        return span

    def rewind_to(self, seq: int) -> None:
        """Recovery rolled the run back to a cut at position *seq*:
        drop the now-orphaned suffix and resume sequencing from there.
        The dropped records move from the ``appended`` side of the
        ledger to ``rewound``/``bytes_rewound`` — they were written, but
        they no longer exist on the surviving timeline."""
        if seq >= self.head_seq:
            return
        kept, dropped = [], []
        for record in self._records:
            (kept if record.seq <= seq else dropped).append(record)
        self._records = kept
        self._by_batch = {record.batch_id for record in kept}
        self._next_seq = seq + 1
        self.rewound += len(dropped)
        self.bytes_rewound += sum(self._record_bytes(record)
                                  for record in dropped)

    def suffix_as_of(self, after_seq: int, *, batch: int | None = None,
                     at_ms: float | None = None
                     ) -> list[ChangelogRecord] | None:
        """The contiguous run of records after *after_seq* up to an
        as-of boundary — ``batch_id <= batch`` or append time
        ``<= at_ms`` (batch ids and times are both monotone in seq, so
        the boundary is a prefix).  ``None`` when the span has a gap
        (rewound or truncated records): the caller must anchor on an
        older cut or give up."""
        span: list[ChangelogRecord] = []
        for record in self._records:
            if record.seq <= after_seq:
                continue
            if batch is not None and record.batch_id > batch:
                break
            if at_ms is not None and record.at_ms > at_ms:
                break
            span.append(record)
        if span and span[-1].seq - after_seq != len(span):
            return None
        return span

    def truncate_through(self, seq: int) -> None:
        """Compaction: drop records no retained cut can need (their seq
        is at or below every retained cut's floor position)."""
        before = len(self._records)
        self._records = [record for record in self._records
                         if record.seq > seq]
        self.truncated += before - len(self._records)


class SnapshotStore:
    """Durable (simulated) home of completed snapshots.

    ``mode="full"`` is the classic behaviour: every cut carries the
    whole state.  ``mode="incremental"`` alternates base and delta cuts
    (see the module docstring); :meth:`next_kind` tells the coordinator
    what to capture, :meth:`resolve` replays a chain, and
    :meth:`latest_recoverable` picks the newest cut that can actually be
    restored (repairing torn chains through the changelog when one is
    supplied)."""

    def __init__(self, *, keep: int = 4, mode: str = "full",
                 base_every: int = 4,
                 track_footprints: bool | None = None):
        if mode not in ("full", "incremental"):
            raise ValueError(f"unknown snapshot mode {mode!r}")
        self._snapshots: list[Snapshot] = []
        self._keep = keep
        self._next_id = 0
        self.mode = mode
        self.base_every = max(base_every, 1)
        self._cuts_since_base = 0
        #: Measure each cut's (keys, bytes) into the ledger.  Costs
        #: O(payload) repr work per cut, so full-mode runs skip it by
        #: default (their ledger rows would all read "everything"
        #: anyway); the recovery bench turns it on explicitly for both
        #: sides of its sweep.
        self.track_footprints = (mode == "incremental"
                                 if track_footprints is None
                                 else track_footprints)
        #: Fault injection: the next delta cut's payload is torn
        #: ("drop") or duplicated in flight ("duplicate").
        self._torn_armed: str | None = None
        #: Ledger of what each cut captured (bench metrics); survives
        #: pruning like any other durable metadata.
        self.cut_log: list[CutRecord] = []
        self.snapshots_torn = 0
        self.changelog_repairs = 0
        self.chain_fallbacks = 0

    # -- cut planning ---------------------------------------------------
    def next_kind(self) -> str:
        """What the next cut must capture: ``full`` outside incremental
        mode; a ``base`` for the first cut and then every
        ``base_every`` cuts (bounded chain depth); ``delta`` otherwise."""
        if self.mode != "incremental":
            return "full"
        if not self._snapshots or self._cuts_since_base >= self.base_every:
            return "base"
        return "delta"

    def reset_chain(self) -> None:
        """Force the next cut to re-anchor as a base.  Recovery calls
        this: the restored backends' delta tracking is invalidated
        anyway, and chaining a post-restore cut to a possibly-torn
        pre-crash parent would leave every later delta cut unresolvable
        until the natural next base — each further crash would keep
        rewinding to the old pre-torn cut."""
        self._cuts_since_base = self.base_every

    def arm_torn(self, variant: str = "drop") -> None:
        """Chaos hook: tear (or duplicate) the next delta cut's payload
        in flight.  Base/full cuts are never torn — the fault models a
        lost *delta fragment*, the new failure surface this mode adds."""
        if variant not in ("drop", "duplicate"):
            raise ValueError(f"unknown torn variant {variant!r}")
        self._torn_armed = variant

    def take(self, *, taken_at_ms: float, state: Any,
             source_offsets: dict, replied: set[int],
             batch_seq: int, arrival_seq: int,
             pending: list[Any] | None = None,
             admitted: set[int] | None = None,
             assignment: Any = None, kind: str = "full",
             changelog_seq: int = -1,
             epoch_buffer: list[Any] | None = None,
             views_state: Any = None) -> Snapshot:
        parent_id = (self._snapshots[-1].snapshot_id
                     if kind == "delta" and self._snapshots else None)
        torn = False
        if kind == "delta" and self._torn_armed is not None:
            variant, self._torn_armed = self._torn_armed, None
            self.snapshots_torn += 1
            if variant == "drop":
                state, torn = None, True
            else:
                state = duplicate_delta(state)
        snapshot = Snapshot(
            snapshot_id=self._next_id, taken_at_ms=taken_at_ms,
            state=state, source_offsets=dict(source_offsets),
            replied=set(replied), batch_seq=batch_seq,
            arrival_seq=arrival_seq, pending=list(pending or []),
            admitted=set(admitted or ()), assignment=assignment,
            kind=kind, parent_id=parent_id, changelog_seq=changelog_seq,
            torn=torn, epoch_buffer=list(epoch_buffer or []),
            views_state=views_state)
        self._next_id += 1
        self._snapshots.append(snapshot)
        self._cuts_since_base = (self._cuts_since_base + 1
                                 if kind == "delta" else 1)
        keys, size = (payload_footprint(state)
                      if self.track_footprints else (0, 0))
        self.cut_log.append(CutRecord(
            snapshot_id=snapshot.snapshot_id, kind=kind, keys=keys,
            bytes=size, taken_at_ms=taken_at_ms))
        self._auto_prune()
        return snapshot

    # -- pruning --------------------------------------------------------
    def _dependents(self, snapshot_id: int) -> list[int]:
        """Retained cuts whose resolution chain passes through
        *snapshot_id* (the anchors that forbid pruning it)."""
        by_id = {s.snapshot_id: s for s in self._snapshots}
        dependents = []
        for snapshot in self._snapshots:
            cursor = snapshot
            while cursor.kind == "delta" and cursor.parent_id is not None:
                if cursor.parent_id == snapshot_id:
                    dependents.append(snapshot.snapshot_id)
                    break
                cursor = by_id.get(cursor.parent_id)
                if cursor is None:
                    break
        return dependents

    def _auto_prune(self) -> None:
        """Trim the retention window: keep the newest ``keep`` cuts plus
        every ancestor their resolution chains pass through (the latent
        full-mode pruning policy would have freed a base out from under
        its deltas).  An old chain no retained cut references is
        reclaimed whole; the window overshoot while a chain is live is
        bounded by ``base_every``."""
        if len(self._snapshots) <= self._keep:
            return
        by_id = {s.snapshot_id: s for s in self._snapshots}
        needed = set()
        for snapshot in self._snapshots[-self._keep:]:
            cursor = snapshot
            needed.add(cursor.snapshot_id)
            while cursor.kind == "delta" and cursor.parent_id in by_id:
                cursor = by_id[cursor.parent_id]
                needed.add(cursor.snapshot_id)
        self._snapshots = [s for s in self._snapshots
                           if s.snapshot_id in needed]

    def prune(self, snapshot_id: int) -> None:
        """Explicitly drop one snapshot; refused while any retained cut
        resolves through it."""
        dependents = self._dependents(snapshot_id)
        if dependents:
            raise SnapshotPruneError(
                f"snapshot {snapshot_id} still anchors the delta chain "
                f"of {dependents}; pruning it would break recovery")
        self._snapshots = [s for s in self._snapshots
                           if s.snapshot_id != snapshot_id]

    # -- resolution & recovery ------------------------------------------
    def latest(self) -> Snapshot | None:
        return self._snapshots[-1] if self._snapshots else None

    def retained(self) -> list[Snapshot]:
        """Every snapshot still in the retention window, oldest first —
        the candidate set as-of queries walk when picking an anchor."""
        return list(self._snapshots)

    def resolve(self, snapshot: Snapshot) -> Any:
        """Replay *snapshot*'s delta chain over its base: the full state
        payload a ``restore`` accepts.  Raises
        :class:`SnapshotChainError` on a torn or broken chain."""
        by_id = {s.snapshot_id: s for s in self._snapshots}
        chain: list[Snapshot] = []
        cursor = snapshot
        while cursor.kind == "delta":
            if cursor.torn:
                raise SnapshotChainError(
                    f"snapshot {cursor.snapshot_id}'s delta fragment was "
                    f"torn in flight")
            chain.append(cursor)
            if cursor.parent_id is None or cursor.parent_id not in by_id:
                raise SnapshotChainError(
                    f"snapshot {cursor.snapshot_id}'s parent "
                    f"{cursor.parent_id} is gone")
            cursor = by_id[cursor.parent_id]
        return resolve_payload(cursor.state,
                               [link.state for link in reversed(chain)])

    def resolve_slot(self, slot: int) -> Any | None:
        """The latest cut's content of one slot (slot-migration base),
        or ``None`` when no resolvable chain covers it."""
        latest = self.latest()
        if latest is None:
            return None
        by_id = {s.snapshot_id: s for s in self._snapshots}
        chain: list[Any] = []
        cursor = latest
        while cursor.kind == "delta":
            if cursor.torn or cursor.state is None:
                return None
            parts = getattr(cursor.state, "parts", None)
            if parts is None or slot >= len(parts):
                return None
            chain.append(parts[slot])
            if cursor.parent_id is None or cursor.parent_id not in by_id:
                return None
            cursor = by_id[cursor.parent_id]
        parts = getattr(cursor.state, "parts", None)
        if parts is None or slot >= len(parts):
            return None
        return resolve_payload(parts[slot], list(reversed(chain)))

    def resolve_recoverable(self, snapshot: Snapshot,
                            changelog: ChangelogStore | None = None) -> Any:
        """Resolve one cut the way recovery would: replay its delta
        chain, and on a torn/broken chain repair it through the
        changelog (nearest intact ancestor + replayed commit records).
        Raises :class:`SnapshotChainError` when neither works."""
        try:
            return self.resolve(snapshot)
        except SnapshotChainError:
            if changelog is not None:
                repaired = self._repair(snapshot, changelog)
                if repaired is not None:
                    self.changelog_repairs += 1
                    return repaired
            raise

    def latest_recoverable(
            self, changelog: ChangelogStore | None = None,
    ) -> tuple[Snapshot, Any]:
        """The newest cut recovery can actually restore, with its
        resolved state payload.  A torn chain is first repaired through
        the changelog (nearest intact ancestor + replayed commit
        records); failing that, recovery falls back to the next older
        cut — the "last complete chain" the watchdog guarantee names."""
        for snapshot in reversed(self._snapshots):
            try:
                return snapshot, self.resolve_recoverable(snapshot,
                                                          changelog)
            except SnapshotChainError:
                self.chain_fallbacks += 1
        raise SnapshotChainError("no recoverable snapshot retained")

    def _repair(self, snapshot: Snapshot,
                changelog: ChangelogStore) -> Any | None:
        """Rebuild a torn cut's state: resolve the nearest intact
        ancestor, then replay the changelog records between the two
        cuts' log positions.  ``None`` when no ancestor resolves or the
        record suffix is incomplete."""
        by_id = {s.snapshot_id: s for s in self._snapshots}
        cursor = snapshot
        while cursor.kind == "delta" and cursor.parent_id in by_id:
            cursor = by_id[cursor.parent_id]
            try:
                payload = self.resolve(cursor)
            except SnapshotChainError:
                continue
            records = changelog.records_between(cursor.changelog_seq,
                                                snapshot.changelog_seq)
            if records is None:
                return None
            for record in records:
                payload = apply_flat_writes(payload, record.writes)
            return payload
        return None

    # -- compaction support ---------------------------------------------
    def floor_changelog_seq(self) -> int:
        """The lowest changelog position any retained cut could anchor a
        repair from — records at or below it are dead weight."""
        if not self._snapshots:
            return -1
        return min(s.changelog_seq for s in self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)
