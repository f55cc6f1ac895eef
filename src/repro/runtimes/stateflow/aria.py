"""Aria-style deterministic concurrency control (paper Section 3).

"We achieve consistency by implementing an extension of Aria [35], a
deterministic transaction protocol."  Following Aria (Lu et al., VLDB
2020):

- transactions execute in *batches* against the batch-start snapshot,
  buffering writes and recording read/write sets;
- at the commit barrier, per-key *reservations* are resolved in favour of
  the smallest transaction id (TID);
- a transaction aborts on a WAW conflict (lost write reservation) or a
  RAW conflict (it read a key a smaller-TID transaction wrote);
- with Aria's *deterministic reordering* optimisation, a RAW conflict is
  tolerated unless the transaction also has a WAR conflict (its write is
  read by a smaller-TID transaction) — pure WAR patterns commit by
  logically reordering the batch;
- aborted transactions re-enter the next batch with their original
  priority, so they eventually win their reservations (no starvation).

This module is pure protocol logic — no simulation, no I/O — so it is
directly unit- and property-testable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Hashable

from ...ir.events import TxnContext

Key = tuple[str, Hashable]  # (entity, key)


class TxnOutcome(Enum):
    COMMIT = "commit"
    ABORT_WAW = "abort-waw"
    ABORT_RAW = "abort-raw"
    #: Cross-batch conflict under pipelined epochs: the transaction read
    #: a key that a batch committed *after* this batch's snapshot wrote.
    #: Its reads are stale, and no reordering can save it — the writer
    #: batch already externalized — so it re-executes.
    ABORT_STALE = "abort-stale"


@dataclass(slots=True)
class ConflictReport:
    """Commit-phase decision for one batch."""

    commits: list[int] = field(default_factory=list)
    aborts: dict[int, TxnOutcome] = field(default_factory=dict)

    @property
    def abort_count(self) -> int:
        return len(self.aborts)


@dataclass(slots=True)
class BatchMember:
    """One transaction's contribution to conflict detection."""

    tid: int
    read_set: frozenset[Key]
    write_set: frozenset[Key]
    #: Failed transactions (user exception) reserve nothing and always
    #: "commit" (with no writes); they never force others to abort.
    failed: bool = False

    @classmethod
    def from_context(cls, ctx: TxnContext, *, failed: bool = False,
                     ) -> "BatchMember":
        return cls(tid=ctx.tid,
                   read_set=frozenset(ctx.read_set),
                   write_set=frozenset() if failed
                   else frozenset(ctx.write_set),
                   failed=failed)


def build_reservations(members: list[BatchMember],
                       ) -> tuple[dict[Key, int], dict[Key, int]]:
    """Smallest-TID read and write reservation tables for a batch."""
    read_res: dict[Key, int] = {}
    write_res: dict[Key, int] = {}
    for member in members:
        if member.failed:
            continue
        for key in member.read_set:
            current = read_res.get(key)
            if current is None or member.tid < current:
                read_res[key] = member.tid
        for key in member.write_set:
            current = write_res.get(key)
            if current is None or member.tid < current:
                write_res[key] = member.tid
    return read_res, write_res


def decide(members: list[BatchMember], *, reordering: bool = True,
           stale_keys: frozenset[Key] | set[Key] = frozenset(),
           ) -> ConflictReport:
    """Aria's commit decision for a batch.

    Without reordering: abort iff WAW or RAW.
    With reordering:    abort iff WAW or (RAW and WAR).

    ``stale_keys`` is the pipelined-epoch extension: the union of write
    footprints of every batch that committed between this batch's
    snapshot and its own commit barrier.  A member that read any of them
    executed against a stale snapshot and aborts (``ABORT_STALE``) — even
    a *failed* member, because its failure may itself be an artifact of
    the stale read.  Cross-batch WAW needs no check: writes install in
    batch order, so a blind overwrite is already serialized correctly.
    """
    read_res, write_res = build_reservations(members)
    report = ConflictReport()
    for member in members:
        if stale_keys and not stale_keys.isdisjoint(member.read_set):
            report.aborts[member.tid] = TxnOutcome.ABORT_STALE
            continue
        if member.failed:
            report.commits.append(member.tid)
            continue
        waw = any(write_res.get(key, member.tid) < member.tid
                  for key in member.write_set)
        raw = any(write_res.get(key, member.tid) < member.tid
                  for key in member.read_set)
        war = any(read_res.get(key, member.tid) < member.tid
                  for key in member.write_set)
        if waw:
            report.aborts[member.tid] = TxnOutcome.ABORT_WAW
        elif raw and (war or not reordering):
            report.aborts[member.tid] = TxnOutcome.ABORT_RAW
        else:
            report.commits.append(member.tid)
    return report


def serializable_order(members: list[BatchMember],
                       report: ConflictReport) -> list[int]:
    """An equivalent serial order for the batch's committed transactions.

    With reordering, committed RAW transactions logically execute *before*
    the writers they read under; a topological order by TID with RAW
    transactions first realises this.  Used by tests to check
    serializability, not by the runtime itself.
    """
    committed = [m for m in members if m.tid in set(report.commits)
                 and not m.failed]
    # Every committed reader of a key saw the batch-start value, so it
    # serializes *before* the (unique, WAW-free) committed writer of that
    # key: topologically order by the reader -> writer edges.  Aria's
    # commit rules guarantee this graph is acyclic.
    writer_of: dict[Key, int] = {}
    for member in committed:
        for key in member.write_set:
            writer_of[key] = member.tid
    successors: dict[int, set[int]] = {m.tid: set() for m in committed}
    indegree: dict[int, int] = {m.tid: 0 for m in committed}
    for member in committed:
        for key in member.read_set:
            writer = writer_of.get(key)
            if writer is not None and writer != member.tid:
                if writer not in successors[member.tid]:
                    successors[member.tid].add(writer)
                    indegree[writer] += 1
    # Smallest-TID-first topological order via a heap: O((n + e) log n)
    # instead of the O(n^2 log n) pop(0)-and-resort loop this replaces.
    ready = [tid for tid, degree in indegree.items() if degree == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        tid = heapq.heappop(ready)
        order.append(tid)
        for successor in successors[tid]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    if len(order) != len(committed):  # pragma: no cover - theorem guard
        raise ValueError("reader->writer graph of a committed batch "
                         "must be acyclic")
    return order


@dataclass(slots=True)
class AriaStats:
    """Cumulative protocol statistics (exposed by the runtime/benches)."""

    batches: int = 0
    transactions: int = 0
    commits: int = 0
    aborts_waw: int = 0
    aborts_raw: int = 0
    #: Cross-batch stale-read aborts (pipelined epochs only).
    aborts_stale: int = 0
    fallback_runs: int = 0
    #: Transactions that took the single-key path (no reservations).
    single_key: int = 0
    #: Single-key transactions whose key the autoscaler currently
    #: classifies as *hot* — the zipfian head served by the fast path.
    single_key_hot: int = 0
    #: Pipelined-epoch telemetry: how many batches were in flight at
    #: each seal ({depth: seals observed at that depth}) ...
    depth_hist: dict[int, int] = field(default_factory=dict)
    #: ... and how long execution-complete batches sat waiting for the
    #: ordered commit region (the pipeline's structural stall).
    stall_ms: float = 0.0
    #: Batch-latency telemetry for the autoscaler: cumulative
    #: open->close latency over ``closed_batches`` closed batches.
    closed_batches: int = 0
    batch_latency_ms: float = 0.0
    #: Commit-locus telemetry: committed transactions per state slot and
    #: per key (cumulative; the autoscaler windows these by deltas).
    #: Populated only while an autoscaler is attached — the commit path
    #: stays allocation-free otherwise.
    slot_commits: dict[int, int] = field(default_factory=dict)
    key_commits: dict[Key, int] = field(default_factory=dict)

    def observe(self, report: ConflictReport) -> None:
        self.batches += 1
        self.transactions += len(report.commits) + report.abort_count
        self.commits += len(report.commits)
        for outcome in report.aborts.values():
            if outcome is TxnOutcome.ABORT_WAW:
                self.aborts_waw += 1
            elif outcome is TxnOutcome.ABORT_STALE:
                self.aborts_stale += 1
            else:
                self.aborts_raw += 1

    def observe_seal(self, inflight_depth: int) -> None:
        """Record the pipeline depth (batches in flight) at a seal."""
        self.depth_hist[inflight_depth] = (
            self.depth_hist.get(inflight_depth, 0) + 1)

    def observe_close(self, latency_ms: float) -> None:
        """Record one batch's open->close latency."""
        self.closed_batches += 1
        self.batch_latency_ms += latency_ms

    def observe_locus(self, slot: int, key: Key) -> None:
        """Record the state locus of one committed transaction."""
        self.slot_commits[slot] = self.slot_commits.get(slot, 0) + 1
        self.key_commits[key] = self.key_commits.get(key, 0) + 1

    @property
    def abort_rate(self) -> float:
        if self.transactions == 0:
            return 0.0
        return (self.aborts_waw + self.aborts_raw
                + self.aborts_stale) / self.transactions
