"""Crash-point battery: the durability contract holds wherever the
process dies.

A :class:`CrashingMedium` is a :class:`~repro.storage.DirectoryMedium`
whose process dies at a chosen point: it counts its mutating calls
(append, replace, manifest update, truncate, unlink, sync — nested ones
too, so a crash can land between a write and its sync or between a
temp file and its rename) and raises at the first call past its limit,
which then never happens.  One fixed store-level trace — appends across
three segment rolls, base and position cuts under a two-cut retention
window, one compaction and one recovery rewind — is run once to the end
and then once per crash point, each time in a fresh directory.  After
every crash both stores are reopened over the directory and must show:

- the records the log holds form a contiguous run of seqs, each equal
  to the last record appended at that seq, and every record published
  to a subscriber is among them unless a completed call dropped it (or
  the call in flight was allowed to);
- the cut ``latest_recoverable`` picks resolves to the state recorded
  when that cut was taken, and no cut a take returned is lost;
- the cut files are those retained before the call in flight — or,
  once that call's own cut is on disk, those retained after it;
- a new cut gets an id past every id returned before, and is a base.

A crash is a process death, not a power loss: what was written stays
(``test_sync_order.py`` models what a power loss keeps).
"""

from __future__ import annotations

from repro.runtimes.stateflow.snapshots import ChangelogStore, SnapshotStore
from repro.storage import (DirectoryMedium, FileChangelogStore,
                           FileSnapshotStore)

SEGMENT_RECORDS = 4
KEEP = 2
BASE_EVERY = 2

#: Appends across three segment rolls, cuts, one compaction and one
#: rewind to the newest cut (a recovery), then appends over the
#: rewound seqs and two more cuts.
TRACE = [*["append"] * 3, "cut", *["append"] * 3, "cut",
         *["append"] * 2, "cut", *["append"] * 3, "cut", "truncate",
         *["append"] * 3, "rewind", *["append"] * 3, "cut",
         "append", "cut"]

META = dict(source_offsets={}, replied=set(), batch_seq=0, arrival_seq=0)


class Crash(Exception):
    """The process died here."""


class CrashingMedium(DirectoryMedium):
    """A directory medium that raises :class:`Crash` at the first
    mutating call past ``budget[0]`` calls (shared by both stores, so
    the count is the process's)."""

    def __init__(self, directory, budget: list[int]):
        self._budget = budget
        super().__init__(directory, fsync=False)

    def _call(self) -> None:
        self._budget[0] -= 1
        if self._budget[0] < 0:
            raise Crash()

    def append(self, name, record):
        self._call()
        return super().append(name, record)

    def replace(self, name, record):
        self._call()
        super().replace(name, record)

    def update_manifest(self, **fields):
        self._call()
        super().update_manifest(**fields)

    def truncate(self, name, position):
        self._call()
        super().truncate(name, position)

    def unlink(self, names):
        self._call()
        super().unlink(names)

    def sync(self, target):
        self._call()
        super().sync(target)


class Run:
    """What the trace did up to a crash (or its end), as the stores'
    callers saw it."""

    def __init__(self):
        self.step = 0                     # index of the step in flight
        self.may_drop = lambda seq: False  # what the step in flight may
        self.appended: dict[int, dict] = {}   # seq -> last writes sent
        self.live: set[int] = set()       # published, not yet dropped
        self.state: dict = {}             # committed state at the head
        self.states: dict[int, dict] = {-1: {}}  # seq -> state after it
        self.recorded: dict[int, dict] = {}   # cut id -> state at the cut
        self.returned: list[int] = []     # ids of cuts whose take returned
        self.windows: list[set[int]] = [set()]  # retained ids per step
        self.crashed = False
        self.calls = 0

    def drive(self, directory, budget: int = 10 ** 9) -> "Run":
        counter = [budget]
        media = []  # a dead process's files close with it

        def medium():
            media.append(CrashingMedium(directory, counter))
            return media[-1]

        try:
            changelog = ChangelogStore(medium(),
                                       segment_records=SEGMENT_RECORDS)
            snapshots = SnapshotStore(medium(), keep=KEEP,
                                      base_every=BASE_EVERY)
            changelog.subscribe(lambda seq, writes, at_ms:
                                self.live.add(seq))
            for self.step, action in enumerate(TRACE):
                self.may_drop = lambda seq: False
                self._do(action, changelog, snapshots)
                self.windows.append({cut.snapshot_id
                                     for cut in snapshots.retained()})
        except Crash:
            self.crashed = True
        finally:
            for each in media:
                each.close()
        self.calls = budget - counter[0]
        return self

    def _do(self, action, changelog, snapshots):
        if action == "append":
            seq = changelog.head_seq + 1
            writes = {("Account", f"k{self.step % 5}"): {"v": self.step}}
            self.appended[seq] = writes
            changelog.append(self.step, writes, at_ms=float(self.step))
            self.state = {**self.state, **writes}
            self.states[seq] = self.state
        elif action == "cut":
            kind = snapshots.next_kind()
            taken = snapshots.take(
                taken_at_ms=float(self.step), kind=kind,
                state=dict(self.state) if kind == "base" else None,
                changelog_seq=changelog.head_seq, **META)
            self.recorded[taken.snapshot_id] = self.state
            self.returned.append(taken.snapshot_id)
        elif action == "truncate":
            floor = snapshots.floor_changelog_seq()
            self.may_drop = lambda seq: seq <= floor
            changelog.truncate_through(floor)
        else:  # rewind: recover to the newest cut, as the coordinator does
            position = snapshots.latest().changelog_seq
            self.may_drop = lambda seq: seq > position
            changelog.rewind_to(position)
            snapshots.rebase()
            self.state = self.states[position]
        self.live = {seq for seq in self.live if not self.may_drop(seq)}


def test_the_trace_covers_the_contract(tmp_path):
    """The fixed trace rolls three segments, compacts, rewinds across a
    segment boundary and prunes cuts — else the battery proves less."""
    run = Run().drive(tmp_path)
    assert not run.crashed
    names = sorted(path.name for path in
                   (tmp_path / "changelog").glob("segment-*.log"))
    assert names == [f"segment-{seq:010d}.log" for seq in (8, 12)]
    assert run.returned == [0, 1, 2, 3, 4, 5]
    assert run.windows[-1] == {4, 5}
    assert run.calls > 60


def test_every_crash_point_reopens_consistent(tmp_path):
    full = Run().drive(tmp_path / "full")
    for budget in range(full.calls):
        directory = tmp_path / f"crash-{budget}"
        run = Run().drive(directory, budget)
        assert run.crashed, budget
        _check_reopened(directory, run, full,
                        f"crash after {budget} calls, in step {run.step} "
                        f"({TRACE[run.step]})")


def _check_reopened(directory, run: Run, full: Run, where: str) -> None:
    changelog = FileChangelogStore(directory, fsync=False,
                                   segment_records=SEGMENT_RECORDS)
    snapshots = FileSnapshotStore(directory, fsync=False, keep=KEEP,
                                  base_every=BASE_EVERY)

    # The log: a contiguous run of the last records appended per seq,
    # holding every published record nothing was allowed to drop.
    head = changelog.head_seq
    records = changelog.records_between(head - len(changelog), head)
    assert records is not None, where
    for record in records:
        assert record.writes == run.appended[record.seq], where
    kept = {record.seq for record in records}
    lost = {seq for seq in run.live - kept if not run.may_drop(seq)}
    assert not lost, (where, lost)

    # The cuts: the window before the call in flight, or the one after
    # it (its own cut on disk); the newest that resolves is what was
    # taken, and no cut a take returned is lost.
    retained = {cut.snapshot_id for cut in snapshots.retained()}
    before, after = run.windows[run.step], full.windows[run.step + 1]
    assert retained >= before or retained >= after, \
        (where, retained, before, after)
    assert retained <= before | after, (where, retained)
    if retained:
        cut, payload = snapshots.latest_recoverable(changelog)
        assert payload == full.recorded[cut.snapshot_id], (where, cut)
        assert cut.snapshot_id >= max(run.returned, default=-1), where

    # A rerun: ids past every returned one, and a base first.
    assert snapshots.next_kind() == "base", where
    taken = snapshots.take(taken_at_ms=0.0, kind="base", state={},
                           changelog_seq=head, **META)
    assert taken.snapshot_id > max(run.returned, default=-1), where
    changelog.close()
    snapshots.close()
