"""The StateFlow coordinator: sequencing, Aria batches, snapshots,
recovery (paper Section 3 — "StateFlow requires a single core
coordinator, and the rest are used for its workers").

Responsibilities:

- admit client requests from the replayable (Kafka) source and sequence
  them into deterministic transaction batches;
- drive Aria's execution phase (dispatch), commit barrier, conflict
  detection and write installation — as a bounded *epoch pipeline*:
  while batch N runs its commit phase, up to ``pipeline_depth - 1``
  younger batches are already sealed and executing against pinned
  committed-snapshot views (see "Pipelined epochs" below);
- re-execute aborted transactions (conflict, or stale cross-batch
  reads) in Aria's sequential fallback, in TID order;
- gate transactional outputs on epoch boundaries (exactly-once output
  visibility, paper Section 5) and deduplicate replies;
- take batch-boundary consistent snapshots and run recovery: restore the
  latest snapshot, rewind the source, replay;
- drive elastic rescales (the RESCALE barrier): between two batches it
  migrates the minimal set of hash slots to their new owners through the
  snapshot machinery, commits the new routing table, snapshots the new
  topology, and resumes batching (see :meth:`Coordinator.request_rescale`).

Pipelined epochs
----------------

Aria's phases admit a classic pipelining optimisation (Lu et al., VLDB
2020): a batch's execution phase only reads the committed snapshot at
its batch start, so batch N+1 can be sealed and dispatched as soon as
batch N enters its commit phase, overlapping N+1's worker-side execution
with N's conflict detection, write installation, single-key phase and
fallback.  The invariants that keep this serializable and deterministic:

- **Ordered commit core.**  Conflict detection, write application, the
  single-key phase and the sequential fallback run for at most one batch
  at a time, in batch-id order (:attr:`Coordinator._commit_batch`).
- **Pinned snapshot views.**  A batch sealed while older batches are
  still in flight records ``base`` — the last *closed* batch id — in its
  transaction contexts; workers read through the committed store's
  version-pinned view of that boundary (O(1) to pin and to release),
  so older batches' writes landing mid-execution stay invisible.
- **Cross-batch conflict detection.**  At its commit barrier a batch
  checks its read sets against the write footprints of every batch that
  committed after its snapshot (``stale_keys`` in :func:`aria.decide`);
  stale readers abort and re-execute in the sequential fallback.
- **Whole-pipeline drains.**  Recovery and coordinator crashes abandon
  *all* in-flight batches and release every pinned view; the rescale
  barrier waits for the pipeline to empty; snapshot cuts happen at batch
  close with still-executing batches folded back into the pending
  channel state — a snapshot never contains a half-committed batch.

``pipeline_depth = 1`` is strictly-serial one-batch-at-a-time
scheduling: no pinned views, no cross-batch footprints, no overlap.

Commit-phase writes are bucketed per owning worker (``hooks.worker_of``)
so each worker installs only its own partition's writes; snapshots are
assembled from per-partition fragments by the partitioned committed
store (``committed.snapshot()`` collects one fragment per partition) and
recovery fans the fragments back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable

from ...core.refs import EntityRef
from ...ir.events import Event, EventKind, TxnContext
from ...substrates.costs import cost_profile
from ...substrates.simulation import CpuPool, Simulation
from ..state import PartitionedStore, payload_keys
from .aria import AriaStats, BatchMember, decide
from .snapshots import ChangelogStore, SnapshotStore


@dataclass(slots=True)
class TxnRecord:
    """One client request as a (retryable) transaction."""

    arrival_seq: int
    target: EntityRef
    method: str
    args: tuple
    request_id: int
    ingress_time: float
    is_transactional_method: bool
    attempt: int = 0
    ctx: TxnContext | None = None
    result: Any = None
    error: str | None = None
    done: bool = False
    #: Set at seal: a single-key transaction that writes nothing, so its
    #: key stays out of the batch's write footprint.
    read_only: bool = False

    def fresh_event(self) -> Event:
        return Event(kind=EventKind.INVOKE, target=self.target,
                     method=self.method, args=self.args,
                     request_id=self.request_id, txn=self.ctx,
                     ingress_time=self.ingress_time)

    def fresh_copy(self) -> "TxnRecord":
        """A clean re-executable copy (ctx/results are per-attempt)."""
        return TxnRecord(arrival_seq=self.arrival_seq, target=self.target,
                         method=self.method, args=self.args,
                         request_id=self.request_id,
                         ingress_time=self.ingress_time,
                         is_transactional_method=self.is_transactional_method,
                         attempt=self.attempt)


#: Simulated time a recovery holds batching after restoring a cut, on
#: top of ``restore_cost_ms_per_key`` per restored key.
RECOVERY_PAUSE_MS = 25.0

#: Fallback transactions get TIDs above this base so reports are
#: distinguishable from execution-phase reports of the same batch.
FALLBACK_TID_BASE = 1_000_000


@dataclass(slots=True, eq=False)
class _Batch:
    batch_id: int
    #: Multi-key transactions (snapshot execution + conflict detection).
    txns: dict[int, TxnRecord]
    outstanding: set[int]
    started_at: float
    last_progress: float = 0.0
    #: Single-key transactions: executed serially per owning worker after
    #: the multi-key commit — our "extension of Aria" (they can never
    #: conflict across partitions, so they skip reservations entirely).
    single: list[TxnRecord] = field(default_factory=list)
    #: Pipelined epochs: the committed-store version (last closed batch
    #: id) this batch's execution phase reads through; ``None`` = live
    #: state (the pipeline was empty at seal time).
    base: int | None = None
    #: Execution phase complete (every dispatch reported back); the
    #: batch is waiting for — or holds — the ordered commit region.
    execution_done: bool = False
    execution_done_at: float = 0.0
    #: Keys written by this batch's commit (multi-key committed writes,
    #: single-key targets, fallback writes), in the order they were
    #: added: the write footprint younger overlapping batches check
    #: their read sets against, and the key order of its changelog
    #: record (a dict, not a set, so the bytes follow no string hash).
    footprint: dict = field(default_factory=dict)
    #: Aria's sequential fallback: the conflict-aborted transactions
    #: still to re-execute, in TID order, and the one running now.
    fallback: list[TxnRecord] = field(default_factory=list)
    fallback_current: TxnRecord | None = None

    def all_records(self) -> list[TxnRecord]:
        return list(self.txns.values()) + list(self.single)


@dataclass(slots=True)
class RescaleRecord:
    """One completed rescale — the audit trail the bench harness turns
    into migration-pause metrics."""

    started_at_ms: float
    committed_at_ms: float
    from_workers: int
    to_workers: int
    slots_moved: int
    keys_moved: int

    @property
    def pause_ms(self) -> float:
        """How long batching was barred for this rescale."""
        return self.committed_at_ms - self.started_at_ms


@dataclass(slots=True)
class CoordinatorHooks:
    """Runtime-provided effects (network sends, Kafka control)."""

    dispatch: Callable[[Event], None]
    apply_writes: Callable[[int, dict, Callable[[], None]], None]
    emit_reply: Callable[[Event], None]
    worker_of: Callable[[str, Any], int]
    source_positions: Callable[[], dict]
    source_seek: Callable[[dict], None]
    restore_workers: Callable[[], None]
    #: How (entity, method) takes the single-key path: ``"write"`` when
    #: it touches only its own key (unsplit, not a constructor),
    #: ``"read"`` when it also writes nothing (a read-only method), and
    #: ``None`` when it may not.
    single_key_access: Callable[[str, str], str | None]
    #: Run a list of single-key events serially at one worker; the
    #: callback receives the reply events.
    execute_single_key: Callable[
        [int, list[Event], Callable[[list[Event]], None]], None]
    #: Elasticity: size the active worker set (create/revive workers
    #: below *count*, retire the rest).
    set_worker_count: Callable[[int], None]
    #: Ship one slot from its old owner to its new one over the network
    #: substrate (capture -> transfer -> install), acking via callback.
    migrate_slot: Callable[[int, int, int, Callable[[], None]], None]
    #: When the oldest commit bucket a worker has not acked yet was sent,
    #: or ``None``.  Only a worker whose ``apply_writes`` completes before
    #: its ack (a process worker) reports one; a simulated worker's ack
    #: is part of the commit.
    unacked_since: Callable[[], float | None]
    #: Source retention, run after every cut with
    #: ``{(topic, partition): offset}``, the lowest offset a retained
    #: cut can seek back to: records below it can go.
    trim_source: Callable[[dict], None]


@dataclass(slots=True)
class CoordinatorConfig:
    batch_interval_ms: float = 10.0
    max_batch_size: int = 512
    epoch_interval_ms: float = 40.0
    snapshot_interval_ms: float = 500.0
    failure_detect_ms: float = 400.0
    reordering: bool = True
    release_txn_outputs_at_epoch: bool = True
    #: Bounded epoch pipeline: how many batches may be in flight at once
    #: (one in the ordered commit region, the rest executing against
    #: pinned snapshot views).  1 = strictly serial batches.
    pipeline_depth: int = 2
    #: A base cut every N cuts, position cuts in between (bounds the
    #: changelog span recovery must fold); 1 = every cut a base.
    snapshot_base_every: int = 4
    #: Measure every cut's (keys, bytes) into the snapshot store's
    #: ledger — O(payload) per base, so only the recovery bench does.
    snapshot_footprints: bool = False
    #: Simulated CPU cost of installing restored state, per key (models
    #: recovery time growing with state size; 0 = a recovery pauses for
    #: ``RECOVERY_PAUSE_MS`` only).
    restore_cost_ms_per_key: float = 0.0


class Phase(Enum):
    """The coordinator's protocol state (see :class:`Coordinator`)."""

    IDLE = "idle"
    SERVING = "serving"
    RESCALING = "rescaling"
    RECOVERING = "recovering"
    CRASHED = "crashed"


class Coordinator:
    """Single-core coordinator of the StateFlow dataflow.

    Its protocol state is one :attr:`phase`:

    ==============================  ===========================  ==========
    from                            on                           to
    ==============================  ===========================  ==========
    idle                            ``start()``                  serving
    serving                         drained, a rescale queued    rescaling
    rescaling                       every moved slot acked       serving
    serving, rescaling, recovering  ``recover()``                recovering
    recovering                      the recovery pause ends      serving
    all but crashed                 ``crash()``                  crashed
    crashed                         ``failover()``               recovering
    any                             ``stop()``                   idle
    ==============================  ===========================  ==========

    Only *serving* seals batches and begins rescales; a committed
    rescale begins the next queued target at once.  A crash during
    recovery is a crash: that recovery's resume is dropped and
    ``failover()`` runs a fresh one.  ``stop()`` during recovery leaves
    the coordinator idle: the resume finds the phase changed.  A delayed
    resume, migration launch or migration ack lands only under the
    :attr:`_attempt` it was issued in; a tick chain only under the
    ``failovers`` count that started it.
    """

    def __init__(self, sim: Simulation, committed: PartitionedStore,
                 hooks: CoordinatorHooks,
                 config: CoordinatorConfig | None = None,
                 *, snapshots: SnapshotStore, changelog: ChangelogStore,
                 views: Any, autoscaler: Any = None):
        self.sim = sim
        self.committed = committed
        self.hooks = hooks
        self.config = config or CoordinatorConfig()
        #: Modelled CPU charges and the idle-seal delay; zero on a real clock.
        self.costs = cost_profile(sim)
        #: Closed-loop capacity controller (an
        #: :class:`~repro.control.AutoscaleController`), or ``None`` for
        #: operator-driven clusters.  When attached, the commit path
        #: feeds per-slot/per-key loci into ``stats`` and a control tick
        #: turns the windowed load into autonomous ``request_rescale``
        #: calls.
        self.autoscaler = autoscaler
        #: Materialized views (a ViewManager), fed by the changelog: the
        #: coordinator only exports their sidecar at each base and
        #: restores it on recovery, so no view reflects an abandoned
        #: batch.
        self.views = views
        #: ``views.registrations`` when the last sidecar was exported.
        self._sidecar_registrations = 0
        self.cpu = CpuPool(sim, 1, name="coordinator")
        #: Where cuts go; its ``next_kind`` decides what a cut
        #: captures.  Like the replayable source it survives crashes
        #: (and, file-backed, real process deaths).
        self.snapshots = snapshots
        #: Durable commit changelog: one record per committed batch
        #: that wrote something, the one record of committed writes
        #: position cuts resolve through.  Recovery rewinds it to the
        #: restored cut's position.
        self.changelog = changelog
        self.stats = AriaStats()
        self.pending: list[TxnRecord] = []
        #: The epoch pipeline: every sealed-but-not-closed batch, by id.
        #: The oldest is (or will be promoted to) the ordered commit
        #: region; younger ones are executing against pinned views.
        self.inflight: dict[int, _Batch] = {}
        self.replied: set[int] = set()
        #: Ingress dedup: request ids ever admitted from the source.  An
        #: at-least-once producer (or an injected Kafka duplication
        #: fault) can append one request at two offsets; admitting it
        #: twice would commit its effects twice.
        self.admitted: set[int] = set()
        self.duplicate_requests = 0
        self.duplicate_replies = 0
        self.recoveries = 0
        #: Protocol state (the class docstring's transition table).
        self.phase = Phase.IDLE
        self.failovers = 0
        #: ``(started_at_ms, resumed_at_ms)`` per completed (not
        #: superseded) recovery — an audit trail of the coordinator's
        #: own pauses.  Client-visible outage metrics live in the chaos
        #: bench harness, which measures disruption -> next reply.
        self.recovery_log: list[tuple[float, float]] = []
        self._epoch_buffer: list[Event] = []
        self._arrival_seq = 0
        self._batch_seq = 0
        self._snapshot_requested = False
        #: Bumped by every recover(), rescale begin and crash(): fences
        #: the delayed resume of a superseded recovery and the launch
        #: and acks of a superseded migration attempt.
        self._attempt = 0
        #: Pipeline bookkeeping: the batch holding the ordered commit
        #: region; the last closed batch id (the current committed-store
        #: version); versions pinned on the store; closed batches' write
        #: footprints still needed by overlapping in-flight batches.
        self._commit_batch: _Batch | None = None
        self._last_closed = -1
        self._pinned: set[int] = set()
        self._footprints: dict[int, frozenset] = {}
        self._seal_scheduled = False
        self._fallback_tid = FALLBACK_TID_BASE
        self.rescales = 0
        self.rescale_aborts = 0
        self.slots_migrated = 0
        self.keys_migrated = 0
        self.rescale_log: list[RescaleRecord] = []
        #: Requested worker counts, FIFO; they bar batch formation (the
        #: RESCALE barrier) and run one at a time once the pipeline
        #: drains.  The head is the running target: it leaves the queue
        #: when its rescale commits, so a recovery that aborts the
        #: migration finds it still at the head.
        self._rescale_requests: list[int] = []
        self._rescale_progress_at = 0.0

    # -- pipeline views -----------------------------------------------------
    @property
    def active(self) -> _Batch | None:
        """The oldest in-flight batch (the one whose stall the watchdog
        tracks); with ``pipeline_depth`` 1 the only one."""
        if not self.inflight:
            return None
        return self.inflight[min(self.inflight)]

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Take the initial snapshot and start the periodic ticks."""
        self.phase = Phase.SERVING
        self._take_snapshot()
        self._start_ticks()

    def _start_ticks(self) -> None:
        self._schedule_tick(self.config.batch_interval_ms, self._tick_batch)
        self._schedule_tick(self.config.epoch_interval_ms, self._flush_epoch)
        self._schedule_tick(self.config.snapshot_interval_ms,
                            self._tick_snapshot)
        self._schedule_tick(self.config.failure_detect_ms / 2,
                            self._tick_watchdog)
        if self.autoscaler is not None:
            # Registered here, not in __init__, so the control loop is
            # re-armed by failover() exactly like every other tick — an
            # autoscaler survives the coordinator it advises.
            self._schedule_tick(self.autoscaler.policy.sample_interval_ms,
                                self._tick_autoscale)

    def stop(self) -> None:
        self.phase = Phase.IDLE

    # -- fail-stop & fail-over ------------------------------------------
    def crash(self) -> None:
        """Fail-stop: every piece of volatile state is lost and all
        traffic is ignored until :meth:`failover`.  Durable state — the
        snapshot store and the replayable source — survives."""
        if self.phase is Phase.CRASHED:
            return
        self.phase = Phase.CRASHED  # in-flight tick closures die off
        self._attempt += 1  # a pre-crash resume or ack must not land
        self._abandon_pipeline()
        self.pending.clear()
        self._epoch_buffer.clear()
        # Rescale intents are volatile sequencing state: an in-flight
        # migration is abandoned (installs already delivered are benign —
        # the barrier kept the slots quiescent, so the fragments equal
        # the live contents — and later ones are incarnation-fenced).
        self._rescale_requests.clear()

    def failover(self) -> None:
        """A standby coordinator takes over: restore the latest durable
        snapshot (state, offsets, dedup sets, channel state) and resume
        ticking.  Replies already emitted stay deduplicated because the
        ``replied`` set is part of the snapshot."""
        if self.phase is not Phase.CRASHED:
            return
        self.failovers += 1
        self.recover()
        self._start_ticks()

    def _abandon_pipeline(self) -> None:
        """Drop every in-flight batch and all pipeline metadata: pinned
        snapshot views, write footprints, the commit region.  In-flight
        work is re-created by replay (the abandoned batches' requests
        are either in the restored pending channel state or re-consumed
        from the rewound source)."""
        self.inflight.clear()
        self._commit_batch = None
        self._footprints.clear()
        for version in self._pinned:
            self.committed.release_view(version)
        self._pinned.clear()

    def _schedule_tick(self, interval: float,
                       action: Callable[[], None]) -> None:
        incarnation = self.failovers

        def fire() -> None:
            if (self.phase in (Phase.IDLE, Phase.CRASHED)
                    or incarnation != self.failovers):
                return  # stopped, or a previous incarnation's chain
            action()
            self.sim.schedule(interval, fire)

        self.sim.schedule(interval, fire)

    # -- request admission -------------------------------------------------
    def on_request(self, event: Event,
                   *, is_transactional_method: bool) -> None:
        """A client request arrived from the replayable source."""
        if self.phase is Phase.CRASHED:
            return  # a dead coordinator consumes nothing
        request_id = event.request_id if event.request_id is not None else -1
        if request_id in self.admitted:
            # At-least-once produce duplicated the request in the log;
            # admitting it again would double-commit its effects.
            self.duplicate_requests += 1
            return
        self.admitted.add(request_id)
        record = TxnRecord(
            arrival_seq=self._arrival_seq,
            target=event.target, method=event.method or "",
            args=event.args, request_id=event.request_id or -1,
            ingress_time=(event.ingress_time
                          if event.ingress_time is not None else self.sim.now),
            is_transactional_method=is_transactional_method)
        self._arrival_seq += 1
        self.pending.append(record)
        if self._can_seal() and not self._seal_scheduled:
            # Do not wait a full tick when the pipeline has a free slot:
            # seal on the next sub-interval boundary to bound formation
            # latency (the fraction lets near-simultaneous arrivals
            # still coalesce into one batch).
            self._seal_scheduled = True
            delay = (self.config.batch_interval_ms
                     * self.costs.idle_seal_fraction)

            def fire_seal() -> None:
                self._seal_scheduled = False
                if self._can_seal():
                    self._start_batch()

            self.sim.schedule(delay, fire_seal)

    # -- batches --------------------------------------------------------
    def _can_seal(self) -> bool:
        """A new batch may be sealed: load is waiting, the pipeline has
        a free slot, and every in-flight batch has finished its
        execution phase (i.e. the newest batch has entered — or is
        queued for — the commit region).  Rescale intents drain the
        pipeline first."""
        return (self.phase is Phase.SERVING and not self._rescale_requests
                and bool(self.pending)
                and len(self.inflight) < max(self.config.pipeline_depth, 1)
                and all(batch.execution_done
                        for batch in self.inflight.values()))

    def _tick_batch(self) -> None:
        if self.phase is not Phase.SERVING:
            return
        if self._rescale_requests and not self.inflight:
            self._begin_rescale(self._rescale_requests[0])
        elif self._can_seal():
            self._start_batch()

    def _start_batch(self) -> None:
        self.pending.sort(key=lambda t: t.arrival_seq)
        taken = self.pending[:self.config.max_batch_size]
        del self.pending[:len(taken)]
        # Batches sealed over a busy pipeline execute against the last
        # *closed* committed version (pinned when the previous batch was
        # promoted into the commit region); a batch sealed into an empty
        # pipeline reads live state — nothing can mutate it until the
        # batch's own commit.
        base = self._last_closed if self.inflight else None
        batch = _Batch(batch_id=self._batch_seq, txns={}, outstanding=set(),
                       started_at=self.sim.now, last_progress=self.sim.now,
                       base=base)
        self._batch_seq += 1
        for tid, txn in enumerate(taken):
            txn.ctx = TxnContext(tid=tid, batch_id=batch.batch_id,
                                 attempt=txn.attempt, base=base)
            txn.done = False
            txn.result = None
            txn.error = None
            access = self.hooks.single_key_access(txn.target.entity,
                                                  txn.method)
            if access is not None:
                txn.read_only = access == "read"
                batch.single.append(txn)
                self.stats.single_key += 1
                if (self.autoscaler is not None
                        and self.autoscaler.is_hot_key(
                            txn.target.entity, txn.target.key)):
                    self.stats.single_key_hot += 1
            else:
                batch.txns[tid] = txn
                batch.outstanding.add(tid)
        self.inflight[batch.batch_id] = batch
        self.stats.observe_seal(len(self.inflight))

        def dispatch_all() -> None:
            if self.inflight.get(batch.batch_id) is not batch:
                return  # recovery raced us
            if not batch.outstanding:
                # No multi-key work: the execution phase is trivially
                # complete; head straight for the commit region.
                self._execution_finished(batch)
                return
            for txn in batch.txns.values():
                self.hooks.dispatch(txn.fresh_event())

        self.cpu.submit(self.costs.dispatch_ms_per_txn * len(taken),
                        dispatch_all)

    def on_txn_report(self, event: Event) -> None:
        """Root REPLY of a transaction's execution or fallback phase."""
        if self.phase is Phase.CRASHED:
            return
        ctx = event.txn
        if ctx is None:
            return
        if ctx.tid >= FALLBACK_TID_BASE:
            batch = self._commit_batch
            if batch is None or ctx.batch_id != batch.batch_id:
                return  # stale fallback report from before a recovery
            batch.last_progress = self.sim.now
            self._on_fallback_report(batch, event, ctx)
            return
        batch = self.inflight.get(ctx.batch_id)
        if batch is None:
            return  # stale report from before a recovery
        batch.last_progress = self.sim.now
        txn = batch.txns.get(ctx.tid)
        if txn is None or txn.done:
            return
        if txn.ctx is not ctx:
            # Cross-process execution: the report's context is a wire
            # copy carrying the read/write sets the worker accumulated —
            # graft it over the coordinator's original so conflict
            # detection and the commit phase see the footprints.  A
            # no-op on the simulator substrate (same object).
            txn.ctx = ctx
        txn.done = True
        txn.result = event.payload
        txn.error = event.error
        batch.outstanding.discard(ctx.tid)
        if not batch.outstanding:
            self._execution_finished(batch)

    # -- pipeline sequencing ------------------------------------------------
    def _execution_finished(self, batch: _Batch) -> None:
        """The batch's execution phase is complete: queue it for the
        ordered commit region (commit/apply/single-key/fallback stay
        strictly ordered by batch id) and let the next batch seal."""
        batch.execution_done = True
        batch.execution_done_at = self.sim.now
        self._maybe_promote()
        if self._can_seal():
            self._start_batch()

    def _maybe_promote(self) -> None:
        """Move the oldest in-flight batch into the commit region once
        its execution phase is done.  Promotion is the quiescent point
        between two batches' commits: the store holds exactly the last
        closed version, so pin it for batches sealed over this commit."""
        if self._commit_batch is not None or not self.inflight:
            return
        batch = self.inflight[min(self.inflight)]
        if not batch.execution_done:
            return
        if (self.config.pipeline_depth > 1
                and self._last_closed not in self._pinned):
            self.committed.pin_view(self._last_closed)
            self._pinned.add(self._last_closed)
        self.stats.stall_ms += self.sim.now - batch.execution_done_at
        self._commit_batch = batch
        self._commit_phase(batch)

    def _stale_keys_for(self, batch: _Batch) -> set:
        """Union of write footprints of every batch that committed
        between *batch*'s snapshot (``base``) and its commit barrier."""
        if batch.base is None:
            return set()
        stale: set = set()
        for closed_id in range(batch.base + 1, batch.batch_id):
            stale |= self._footprints.get(closed_id, frozenset())
        return stale

    # -- commit phase ------------------------------------------------------
    def _commit_phase(self, batch: _Batch) -> None:
        def run_detection() -> None:
            if self._commit_batch is not batch:
                return
            members = [
                BatchMember.from_context(txn.ctx, failed=txn.error is not None)
                for txn in batch.txns.values()
            ]
            report = decide(members, reordering=self.config.reordering,
                            stale_keys=self._stale_keys_for(batch))
            self.stats.observe(report)
            self._install_writes(
                batch, [batch.txns[tid].ctx.write_set
                        for tid in sorted(report.commits)
                        if batch.txns[tid].error is None],
                lambda: self._finalize_batch(batch, report))

        # A fixed cost of five members' checks on top of the members'
        # own: every modelled cost scales with the profile, so the real
        # clock, which zeroes them, waits out no timer here.
        per_txn = self.costs.conflict_check_ms_per_txn
        self.cpu.submit(per_txn * len(batch.txns) + per_txn * 5,
                        run_detection)

    def _install_writes(self, batch: _Batch, write_sets: Iterable[dict],
                        then: Callable[[], None]) -> None:
        """Install *write_sets* in order: bucket the writes per owning
        worker, add their keys to the batch footprint, and run *then*
        once every owner acked (at once if there is nothing to write)."""
        buckets: dict[int, dict] = {}
        for write_set in write_sets:
            for (entity, key), value in write_set.items():
                worker = self.hooks.worker_of(entity, key)
                buckets.setdefault(worker, {})[(entity, key)] = value
                batch.footprint[(entity, key)] = None
        if not buckets:
            then()
            return
        ack = self._countdown(batch, len(buckets), then)
        for worker, writes in buckets.items():
            self.hooks.apply_writes(worker, writes, ack)

    def _countdown(self, batch: _Batch, count: int,
                   then: Callable[[], None]) -> Callable[[], None]:
        """An ack callback that runs *then* at its *count*-th call, if
        *batch* still holds the commit region by then."""

        def ack() -> None:
            nonlocal count
            count -= 1
            if count == 0 and self._commit_batch is batch:
                then()

        return ack

    def _finalize_batch(self, batch: _Batch, report) -> None:
        aborted = set(report.aborts)
        for tid, txn in batch.txns.items():
            if tid in aborted:
                txn.attempt += 1
                batch.fallback.append(txn)
            else:
                self._observe_commit(txn.target.entity, txn.target.key)
                self._enqueue_reply(txn, error=txn.error)
        # Aria's Calvin-style fallback: re-execute the conflict-aborted
        # transactions serially, in TID order, against live state inside
        # the same batch — after the single-key phase has run, and with
        # no retry spiral under hot keys.
        batch.fallback.sort(key=lambda t: t.ctx.tid if t.ctx else 0)
        self._single_key_phase(batch)

    # -- single-key phase ---------------------------------------------------
    def _single_key_phase(self, batch: _Batch) -> None:
        """Execute the batch's single-key transactions serially per
        owning worker (parallel across workers), against live state."""
        if self._commit_batch is not batch or not batch.single:
            self._fallback_next(batch)
            return
        groups: dict[int, list[TxnRecord]] = {}
        for txn in sorted(batch.single,
                          key=lambda t: t.ctx.tid if t.ctx else 0):
            worker = self.hooks.worker_of(txn.target.entity, txn.target.key)
            groups.setdefault(worker, []).append(txn)
            # A single-key transaction may write its own key, unless its
            # method is read-only: part of the batch's footprint for
            # cross-batch stale detection and the changelog.
            if not txn.read_only:
                batch.footprint[(txn.target.entity, txn.target.key)] = None
        by_request = {txn.request_id: txn for txn in batch.single}
        ack = self._countdown(batch, len(groups),
                              lambda: self._fallback_next(batch))

        def on_worker_done(replies: list[Event]) -> None:
            if self._commit_batch is not batch:
                return
            batch.last_progress = self.sim.now
            for reply in replies:
                txn = by_request.get(reply.request_id or -1)
                if txn is None or txn.done:
                    continue
                txn.done = True
                txn.result = reply.payload
                txn.error = reply.error
                self._observe_commit(txn.target.entity, txn.target.key)
                self._enqueue_reply(txn, error=txn.error)
            ack()

        for worker, txns in groups.items():
            events = [txn.fresh_event() for txn in txns]
            self.hooks.execute_single_key(worker, events, on_worker_done)

    def _close_batch(self) -> None:
        batch = self._commit_batch
        self._commit_batch = None
        if batch is not None:
            self.inflight.pop(batch.batch_id, None)
            self._last_closed = batch.batch_id
            self.stats.observe_close(self.sim.now - batch.started_at)
            self._observe_batch_writes(batch)
            if self.config.pipeline_depth > 1:
                self._footprints[batch.batch_id] = frozenset(batch.footprint)
            self._prune_pipeline_metadata()
        if self._snapshot_requested:
            self._take_snapshot()
        if self.phase is not Phase.SERVING:
            return
        if self._rescale_requests and not self.inflight:
            # The drained-pipeline batch boundary is the RESCALE barrier:
            # no transaction is in flight, so slots are quiescent and
            # safe to migrate.
            self._begin_rescale(self._rescale_requests[0])
            return
        self._maybe_promote()
        if self._can_seal():
            self._start_batch()

    def _observe_batch_writes(self, batch: _Batch) -> None:
        """Append the batch's write set to the changelog, which
        publishes it to its subscribers (view maintenance).  The
        post-commit states are read back once at batch close, after
        every write (multi-key, fallback, single-key) is installed, so
        the values are exactly what the batch left behind.  The log
        gets the committed entries themselves, not copies: its readers
        never write them (the state module's entry contract).  Keys a
        footprint names but that never materialized (an errored
        single-key transaction on an absent key) are skipped — the
        runtime has no deletes, so absence means "was never
        written"."""
        writes: dict = {}
        for entity, key in batch.footprint:
            state = self.committed.entry(entity, key)
            if state is not None:
                writes[(entity, key)] = state
        if writes:
            self.changelog.append(batch.batch_id, writes,
                                  at_ms=self.sim.now)

    def _prune_pipeline_metadata(self) -> None:
        """Release pinned views and footprints no in-flight batch can
        reference any more.  A footprint for closed batch ``b`` matters
        only to batches whose snapshot predates it (``base < b``); a
        pinned version only to batches reading through it."""
        live_bases = {batch.base for batch in self.inflight.values()
                      if batch.base is not None}
        min_base = min(live_bases, default=None)
        for closed_id in list(self._footprints):
            if min_base is None or closed_id <= min_base:
                del self._footprints[closed_id]
        for version in list(self._pinned):
            if version not in live_bases:
                self.committed.release_view(version)
                self._pinned.discard(version)

    # -- sequential fallback -------------------------------------------------
    def _fallback_next(self, batch: _Batch) -> None:
        if self._commit_batch is not batch:
            return
        if not batch.fallback:
            self._close_batch()
            return
        txn = batch.fallback.pop(0)
        batch.fallback_current = txn
        self._fallback_tid += 1
        self.stats.fallback_runs += 1
        # Fallback re-runs read live state (base=None): every earlier
        # write of this and all older batches is already installed.
        txn.ctx = TxnContext(tid=self._fallback_tid,
                             batch_id=batch.batch_id, attempt=txn.attempt)
        batch.last_progress = self.sim.now
        self.hooks.dispatch(txn.fresh_event())

    def _on_fallback_report(self, batch: _Batch, event: Event,
                            ctx: TxnContext) -> None:
        txn = batch.fallback_current
        if txn is None or txn.ctx is None:
            return
        # Match by identity *fields*, not object identity: on the
        # process substrate the report's context is a wire copy of the
        # one dispatched (fallback tids are unique per coordinator
        # lifetime, so the triple is as precise as the identity check).
        if (txn.ctx.tid, txn.ctx.batch_id, txn.ctx.attempt) != (
                ctx.tid, ctx.batch_id, ctx.attempt):
            return
        txn.ctx = ctx
        txn.result = event.payload
        txn.error = event.error
        txn.done = True

        def committed() -> None:
            self._observe_commit(txn.target.entity, txn.target.key)
            self._enqueue_reply(txn, error=txn.error)
            self._fallback_next(batch)

        self._install_writes(
            batch, [ctx.write_set] if txn.error is None else [], committed)

    # -- closed-loop autoscaling -------------------------------------------
    def _observe_commit(self, entity: str, key: Any) -> None:
        """Feed one committed transaction's locus to the autoscaler's
        windowed stats.  No-op (and allocation-free) without one."""
        if self.autoscaler is None:
            return
        self.stats.observe_locus(self.committed.slot_of(entity, key),
                                 (entity, key))

    def _queue_depth(self) -> int:
        """Coordinator backlog: pending txns plus txns inside in-flight
        batches (multi-key and single-key alike)."""
        return len(self.pending) + sum(
            len(batch.txns) + len(batch.single)
            for batch in self.inflight.values())

    def _tick_autoscale(self) -> None:
        """One control tick: window the cumulative stats, let the policy
        judge, and turn any decision into a ``request_rescale``.

        Skipped while recovering (a paused pipeline is not idleness);
        the next window simply stretches across the pause — the sampler
        differences cumulative counters, so rates stay correct.  While a
        rescale is queued or migrating the controller still samples (its
        hysteresis streaks keep accumulating) but is barred from
        deciding, so intents never pile up behind the barrier."""
        if self.phase is Phase.RECOVERING:
            return
        assignment = self.committed.assignment
        decision = self.autoscaler.observe(
            now_ms=self.sim.now, stats=self.stats,
            queue_depth=self._queue_depth(), workers=assignment.workers,
            busy=bool(self._rescale_requests),
            slot_owner=dict(enumerate(assignment.owners)))
        if decision is not None:
            self.request_rescale(decision.to_workers)

    # -- elastic rescaling -------------------------------------------------
    def request_rescale(self, workers: int) -> None:
        """Queue a cluster resize; it runs once the pipeline drains at a
        batch boundary.

        Targets are clamped to ``[1, slots]`` (rescale intents arrive
        from declarative plans that cannot know the slot count).  A
        crashed coordinator consumes nothing — like any other volatile
        intent, a rescale step lost to a crash is not replayed."""
        if self.phase is Phase.CRASHED:
            return
        self._rescale_requests.append(
            max(1, min(workers, self.committed.assignment.slots)))

    def _begin_rescale(self, target: int) -> None:
        """Execute one rescale under the drained-pipeline barrier:

        1. size the worker set up front (new owners must exist to
           receive migrations; old owners retire only after commit);
        2. migrate every moved slot old-owner -> new-owner through the
           snapshot machinery, over the (faultable) network substrate;
        3. when all installs acked, commit the new assignment (one
           routing-epoch flip), retire surplus workers, snapshot the new
           topology durably, and resume batching.

        Migration messages can be lost to injected faults or a worker
        crash; the rescale watchdog then aborts the attempt and runs
        ordinary recovery, after which the target, still at the head of
        the queue, runs again (see :meth:`_tick_watchdog`).  Aborting
        mid-migration is safe because the barrier keeps slots quiescent:
        every install is a no-op rewrite of identical contents, fenced
        by worker incarnations once recovery restarts the workers."""
        old = self.committed.assignment.workers
        if target == old:
            self._rescale_requests.pop(0)
            return
        self.phase = Phase.RESCALING
        self._attempt += 1
        attempt = self._attempt
        self._rescale_progress_at = self.sim.now
        started = self.sim.now
        delta = self.committed.plan_rescale(target)
        keys_moved = sum(self.committed.slot_size(slot) for slot in delta)
        self.hooks.set_worker_count(max(old, target))
        # Acks are tracked per slot, not by count: the commit must mean
        # "every moved slot is installed", even if a transport ever
        # redelivered an ack.  (The direct channels model sequenced
        # transports — the injector suppresses network duplicates — and
        # an ack is only ever sent after its install executed, so the
        # commit cannot outrun an install.)
        outstanding = set(delta)

        def finish() -> None:
            self.committed.commit_rescale(target, delta)
            self.hooks.set_worker_count(target)
            self.rescales += 1
            self.slots_migrated += len(delta)
            self.keys_migrated += keys_moved
            self.rescale_log.append(RescaleRecord(
                started_at_ms=started, committed_at_ms=self.sim.now,
                from_workers=old, to_workers=target,
                slots_moved=len(delta), keys_moved=keys_moved))
            self._rescale_requests.pop(0)
            self.phase = Phase.SERVING
            # Durable cut of the new topology: a recovery from here on
            # replays under the post-rescale routing table.
            self._take_snapshot()
            if self._rescale_requests:
                self._begin_rescale(self._rescale_requests[0])
            elif self._can_seal():
                self._start_batch()

        def current() -> bool:  # neither superseded nor committed
            return attempt == self._attempt and self.phase is Phase.RESCALING

        def one_ack(slot: int) -> None:
            if not current():
                return
            self._rescale_progress_at = self.sim.now
            outstanding.discard(slot)
            if not outstanding:
                finish()

        def launch() -> None:
            if not current():
                return
            if not delta:
                finish()
                return
            for slot, (src, dst) in delta.items():
                self.hooks.migrate_slot(slot, src, dst,
                                        lambda s=slot: one_ack(s))

        # Priced like conflict detection: five checks' fixed cost plus
        # one per moved slot.
        per_slot = self.costs.conflict_check_ms_per_txn
        self.cpu.submit(per_slot * 5 + per_slot * max(len(delta), 1), launch)

    # -- replies ----------------------------------------------------------
    def _enqueue_reply(self, txn: TxnRecord, error: str | None) -> None:
        reply = Event(kind=EventKind.REPLY,
                      target=EntityRef("__client__", txn.request_id),
                      payload=txn.result, error=error,
                      request_id=txn.request_id,
                      ingress_time=txn.ingress_time)
        if (txn.is_transactional_method
                and self.config.release_txn_outputs_at_epoch):
            self._epoch_buffer.append(reply)
        else:
            self._emit(reply)

    def _emit(self, reply: Event) -> None:
        if reply.request_id in self.replied:
            self.duplicate_replies += 1
            return
        self.replied.add(reply.request_id)
        self.hooks.emit_reply(reply)

    def _flush_epoch(self) -> None:
        buffered, self._epoch_buffer = self._epoch_buffer, []
        for reply in buffered:
            self._emit(reply)

    # -- snapshots & recovery ----------------------------------------------
    def _tick_snapshot(self) -> None:
        self._snapshot_requested = True
        if not self.inflight and self.phase is not Phase.RECOVERING:
            self._take_snapshot()

    def _take_snapshot(self) -> None:
        """Cut a consistent snapshot at a batch boundary.

        Called only when no batch holds the commit region, so the
        committed store is exactly the last closed version — a snapshot
        never contains a half-committed batch.  Still-executing
        pipelined batches have no committed effects yet; their requests
        (like the pending queue, already consumed from the source) are
        folded back into the snapshot's channel state, so replay
        re-forms and re-executes them."""
        self._snapshot_requested = False
        uncommitted = list(self.pending)
        for batch_id in sorted(self.inflight):
            uncommitted.extend(self.inflight[batch_id].all_records())
        pending_copy = [txn.fresh_copy() for txn in
                        sorted(uncommitted, key=lambda t: t.arrival_seq)]
        # A position cut's sidecar is its base's: once a view was
        # registered or dropped since, that base no longer covers it.
        if self.views.registrations != self._sidecar_registrations:
            self.snapshots.rebase()
        kind = self.snapshots.next_kind()
        base = kind != "position"
        if base:
            self._sidecar_registrations = self.views.registrations
        self.snapshots.take(
            taken_at_ms=self.sim.now,
            state=self.committed.snapshot() if base else None,
            source_offsets=self.hooks.source_positions(),
            replied=self.replied,
            batch_seq=self._batch_seq,
            arrival_seq=self._arrival_seq,
            pending=pending_copy,
            admitted=self.admitted,
            assignment=self.committed.freeze_assignment(),
            kind=kind,
            changelog_seq=self.changelog.head_seq,
            epoch_buffer=self._epoch_buffer,
            views_state=self.views.export_sidecar() if base else None)
        # Compaction rides the cut cadence: changelog records at or
        # below the oldest retained base can never be folded again, and
        # source records below every retained cut's offsets never
        # replayed.
        self.changelog.truncate_through(self.snapshots.floor_changelog_seq())
        self.hooks.trim_source(self.snapshots.floor_source_offsets())

    def _tick_watchdog(self) -> None:
        if self.phase is Phase.RESCALING:
            # A migration can stall exactly like a batch (dead worker,
            # dropped transfer).  Abort the attempt and run ordinary
            # recovery — it restarts the workers, fences stale installs
            # via their incarnations, and leaves the target queued.
            if (self.sim.now - self._rescale_progress_at
                    >= self.config.failure_detect_ms):
                self.rescale_aborts += 1
                self.recover()
            return
        if self.phase is not Phase.SERVING:
            return
        # A bucket its worker never acked holds up no batch, yet that
        # worker may have lost it: the same stall, seen elsewhere.
        unacked = self.hooks.unacked_since()
        if (unacked is not None
                and self.sim.now - unacked >= self.config.failure_detect_ms):
            self.recover()
            return
        oldest = self.active
        if oldest is None:
            return
        stalled_since = max(oldest.started_at, oldest.last_progress)
        if self.sim.now - stalled_since >= self.config.failure_detect_ms:
            self.recover()

    def recover(self) -> None:
        """Restore the latest recoverable snapshot and replay the
        source.  The whole epoch pipeline is abandoned — every in-flight
        batch, pinned view and footprint — not just the committing
        batch.

        "Restore" means restoring the cut's base with the changelog
        records up to the cut's position folded over it; a cut that
        does not resolve is skipped for an older one (the rewound
        source replays the difference)."""
        snapshot, state_payload = \
            self.snapshots.latest_recoverable(self.changelog)
        assert snapshot is not None  # start() always takes one
        started_at = self.sim.now
        # An in-flight rescale is aborted; its target stays at the head
        # of the queue, so the migration re-runs from scratch against
        # the restored state.
        self.phase = Phase.RECOVERING
        self.recoveries += 1
        self._attempt += 1
        attempt = self._attempt
        self._abandon_pipeline()
        self.pending.clear()
        self._epoch_buffer.clear()
        # Replay must route exactly as the original execution did, so
        # the routing table is restored before any worker restarts.
        if snapshot.assignment is not None:
            self.committed.restore_assignment(snapshot.assignment)
            self.hooks.set_worker_count(snapshot.assignment[0])
        self.hooks.restore_workers()
        self.committed.restore(state_payload)
        # Records past the restored cut describe the rolled-back
        # timeline; replay re-creates their effects under new batch ids.
        self.changelog.rewind_to(snapshot.changelog_seq)
        # The next cut must be a base: the current one may postdate the
        # restored cut.
        self.snapshots.rebase()
        self.replied = set(snapshot.replied)
        self.admitted = set(snapshot.admitted)
        self.pending = [txn.fresh_copy() for txn in snapshot.pending]
        # Committed-but-unflushed replies are channel state: their
        # requests are admitted (replay drops them at the ingress) and
        # their effects are in the restored store, so losing the buffer
        # would lose the replies forever.  Re-buffer them; the epoch
        # flush re-emits and the egress dedup absorbs any the client
        # already saw before the crash.
        self._epoch_buffer = list(snapshot.epoch_buffer)
        # Batch ids stay monotonic across recoveries (never restored):
        # a stale in-flight report can therefore never collide with a
        # post-recovery batch.  The committed-store version label tracks
        # them: everything below the next batch id counts as closed.
        self._last_closed = self._batch_seq - 1
        # Views rewind with the store: nothing from the abandoned
        # pipeline may survive; replay re-appends its effects at the seqs
        # past the cut.  The cut's sidecar (its base's) carries every
        # plan's operator memos at the base's seq, so matching plans
        # resume by folding the log up to the cut's position, where the
        # changelog was rewound to; plans it does not cover rebuild from
        # a scan.
        self.views.on_restore(self.snapshots.sidecar(snapshot))
        self.hooks.source_seek(snapshot.source_offsets)

        def resume() -> None:
            if attempt != self._attempt or self.phase is not Phase.RECOVERING:
                return  # superseded by a later recovery, a crash or stop()
            self.phase = Phase.SERVING
            self.recovery_log.append((started_at, self.sim.now))

        pause = RECOVERY_PAUSE_MS
        if self.config.restore_cost_ms_per_key:
            # Model restore work growing with the restored state: the
            # resolved payload carries the same keys whatever the cut's
            # kind, so the cost — like everything else on the recovery
            # path — does not depend on the base cadence and traces stay
            # byte-identical.
            pause += (self.config.restore_cost_ms_per_key
                      * payload_keys(state_payload))
        self.sim.schedule(pause, resume)
