"""Stateful view-maintenance operators: delta in, delta out.

Each operator consumes a *delta* — a mapping ``{key: row | TOMBSTONE}``
of absolute post-commit states for the keys one batch touched — and
emits its own delta downstream, so one maintenance step costs O(changed
keys), never O(state).  The operators keep exactly the memos retraction
needs:

- :class:`FilterMap` is stateless: a row failing the predicate (or a
  deleted row) flows downstream as a :data:`~repro.runtimes.state.
  TOMBSTONE` retraction, so downstream operators can forget it.
- :class:`GroupAggregate` remembers, per key, the (group, value)
  contribution it last applied, and per group a running
  (count, total, compensation) bucket — an update retracts the old
  contribution and applies the new one, two O(1) bucket adjustments.
  ``sum``/``avg`` totals use compensated (Kahan–Neumaier) accumulation
  so long-lived float groups cannot drift from the full-scan oracle;
  ``min``/``max`` keep a per-group :class:`OrderedGroupIndex` so
  retracting the current extremum is an O(log n) bisect, not a rescan.
- :class:`TopK` keeps every live key in an :class:`OrderedGroupIndex`
  (highest score first, ties by ascending key string), so a membership
  change is an O(log n) bisect and a read walks the top k.
- :class:`DeltaJoin` memoizes both sides of a two-entity foreign-key
  join; each side's delta probes the other side's memo and emits
  joined-row deltas keyed by the primary side's key.
- :class:`WindowedAggregate` assigns each key's contribution to the
  tumbling ``at_ms`` window of the commit that produced it; a later
  commit moves the key to its new window (retracting the old one).

**The row contract** (the entry contract of :mod:`repro.runtimes.state`,
continued): no copy in — the commit hook (``entry``) and hydration
(``entries``) hand over the committed entries themselves — and from
there a row is immutable and *shared*.  :class:`FilterMap` passes the row
itself, :class:`TopK` and :class:`DeltaJoin` memoize it as it is, every
plan of a batch and the changelog record hold the same dict, and
``export_state`` hands the same rows to a base's sidecar.  A copy is
made only where a row leaves the layer (:meth:`TopK.result`, behind
reads and pushed updates; projection and joined rows are new dicts
anyway).  ``where``/``group_by``/field callables therefore must not
write to the row they are given.

**A key that contributes what it already did costs a lookup.**  A
staged contribution equal to the memoized one (same group, equal value
of the same type) is dropped before any bucket arithmetic or index
surgery: its group is not touched and nothing is emitted for it.  A
:class:`TopK` row whose score did not move replaces the memoized row
and leaves the index alone.

Every ``apply`` is **two-phase**: all field extraction (``group_of``,
``value_of``, score and foreign-key lookups) and a probe of the
operation the kind is about to perform on the value (addition for
``sum``/``avg``; ordering against itself, against a value already
indexed and against the first value the delta stages for the same
group for ``min``/``max``/top-k) are staged before the first memo
mutation, so a delta that raises — a missing field, a ``None`` or a
``str`` among numbers — raises :class:`ViewError` and leaves the
operator exactly as it was.  A partially applied delta would be
silently wrong forever after.

Because deltas carry *absolute* states (the changelog convention, see
:mod:`repro.runtimes.stateflow.snapshots`), re-applying the same delta
is idempotent and applying the last-writer-wins compaction of a delta
sequence lands on the same state as applying the sequence — the
properties the hypothesis battery in ``tests/views`` pins down.

**A scan is built, not replayed.**  Each stateful terminal operator
also has a from-empty ``build(rows)``, which
:meth:`~repro.views.compiler.CompiledView.hydrate` uses on a reset
operator (registration, a restore without a sidecar, ``recompute``):
the memos are filled in scan order and each :class:`OrderedGroupIndex`
is sorted once, where folding the scan in as one delta would probe and
insort row by row.  The build leaves the memos the fold would, byte for
byte (the property battery compares their pickles); a row the fold
would reject makes it raise, and ``hydrate`` then runs the fold, which
raises the fold's :class:`ViewError`.  ``apply`` is untouched by it.

Each stateful operator also implements ``export_state``/
``restore_state``: a picklable image of exactly the memos above, riding
the snapshot path as the durable-view sidecar (see
:meth:`~repro.views.manager.ViewManager.export_sidecar`).  Containers
are copied on both sides (neither the live operator nor a later restore
can edit a cut), rows and index entries are shared, and ordered indexes
travel in order, so a restore never sorts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from itertools import groupby, islice
from operator import eq, itemgetter
from typing import Any, Callable, Iterable, Iterator

from ..core.errors import StatefulEntityError
from ..runtimes.state import TOMBSTONE, fast_deepcopy

#: One maintenance step's input/output: key -> absolute row state, or
#: TOMBSTONE for "this key no longer contributes".
Delta = dict[Any, Any]


class ViewError(StatefulEntityError):
    """Invalid view specification or registration, a row a plan cannot
    fold, or a read of a view whose plan failed."""


class FilterMap:
    """Stateless filter + projection stage.

    Rows failing ``where`` (and upstream deletions) are forwarded as
    TOMBSTONE retractions: the downstream operator retracts whatever
    contribution it may hold for the key, which is a no-op for keys it
    never admitted.  A row that passes is passed on as it is (the row
    contract: shared, never written); only a projection builds a new
    dict.
    """

    def __init__(self, where: Callable[[dict], bool] | None = None,
                 project: tuple[str, ...] | None = None):
        self.where = where
        self.project = project

    def reset(self) -> None:
        pass  # no state

    def apply(self, delta: Delta) -> Delta:
        where, project = self.where, self.project
        if where is None and project is None:
            return delta  # nothing to drop, nothing to reshape
        out: Delta = {}
        for key, row in delta.items():
            if row is TOMBSTONE or (where is not None and not where(row)):
                out[key] = TOMBSTONE
            elif project is not None:
                out[key] = self._project(key, row)
            else:
                out[key] = row
        return out

    def rows(self, scan: Iterable[tuple[Any, Any]]
             ) -> Iterator[tuple[Any, dict]]:
        """The ``(key, row)`` pairs :meth:`apply` passes on when *scan*
        is folded in from empty, in scan order.  Its retractions are
        left out: from empty they retract nothing, a scan naming each
        key once."""
        where, project = self.where, self.project
        for key, row in scan:
            if row is TOMBSTONE or (where is not None and not where(row)):
                continue
            yield key, (row if project is None
                        else self._project(key, row))

    def _project(self, key: Any, row: dict) -> dict:
        missing = [f for f in self.project if f not in row]
        if missing:
            raise ViewError(
                f"view row for key {key!r} lacks field(s) {missing}")
        return {f: row[f] for f in self.project}


class _RevStr:
    """Inverted string ordering, so a ``(score, _RevStr(key))`` sort key
    ranks equal scores by *ascending* key string under ``nlargest`` /
    descending sorts (the deterministic tie-break shared with
    :meth:`~repro.query.engine.QueryEngine.top_k`)."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __lt__(self, other: "_RevStr") -> bool:
        return self.value > other.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _RevStr) and self.value == other.value

    def __hash__(self) -> int:  # pragma: no cover - parity with __eq__
        return hash(self.value)


def rank_key(score: Any, key: Any) -> tuple:
    """The shared top-k ordering: sort (or ``nlargest``) by this and the
    highest score wins, with equal scores broken by *ascending* key
    string.  This is the definition — the full-scan
    :meth:`~repro.query.engine.QueryEngine.top_k` path and the test
    oracles sort by it; :class:`OrderedGroupIndex` keeps the same order
    without building a key object per entry."""
    return (score, _RevStr(str(key)))


def _check_ordered(key: Any, value: Any, indexed: tuple | None,
                   first: Any) -> None:
    """Probe what an ordered index will do with *value*: compare it with
    itself (``None`` raises, NaN is not ``<=`` itself), with the value
    of an entry the index already holds and with *first*, the first
    value staged for the same group by the same delta (a ``str`` among
    numbers raises, also in a group the delta creates)."""
    try:
        ordered = value <= value and (
            value < first or value >= first) and (
            indexed is None
            or value < indexed[0] or value >= indexed[0])
    except TypeError as exc:
        raise ViewError(f"view row for key {key!r}: value {value!r} "
                        f"cannot be ordered ({exc})") from exc
    if not ordered:
        raise ViewError(f"view row for key {key!r}: value {value!r} "
                        f"has no place in the order")


_VALUE = itemgetter(0)
_INTS = frozenset((int,))


def _interchangeable(value: Any, stand: Any) -> bool:
    """Whether *value* may stand for its slot in place of the equal
    *stand* with no visible difference: the same object, or equal ints,
    or equal non-zero floats (neither is memoized by pickle)."""
    return value is stand or type(value) is type(stand) and (
        type(value) is int or type(value) is float and value != 0)


def _copy_index(groups: dict[Any, tuple]) -> dict[Any, tuple]:
    return {group: (list(values), [list(entries) for entries in tied])
            for group, (values, tied) in groups.items()}


class OrderedGroupIndex:
    """Per-group ordered index of ``(value, str(key), key)`` entries —
    the shared structure behind :class:`TopK` (one global group) and
    ``min``/``max`` aggregates (one sub-index per group).

    A group holds its distinct values ascending and, beside each value,
    the entries carrying it, ascending — which, the values being equal,
    is ascending by key string.  Walking values from the highest and
    each value's entries upwards is :func:`rank_key`'s order, and every
    comparison on the way is between two values or between two strings
    — in C, with no wrapper object per entry, however many keys tie on
    one value.  An entry carries the key's own value, so what is handed
    out is what was put in (``1`` and ``1.0`` share a place in the
    order, not a type).  ``smallest``/``largest`` answer min/max in
    O(1), ``top`` collects the k highest in O(k), a membership change
    is two O(log n) bisects.  A value whose last entry is removed
    disappears, and so does a group whose last value does (no
    empty-list residue).

    Maintenance is O(log n) per change (plus the list insert's
    memmove); a from-empty load (:meth:`build`) is one O(n log n) sort
    per group, where n ``add`` calls would each move up to n entries."""

    __slots__ = ("_groups",)

    def __init__(self) -> None:
        #: group -> (distinct values ascending, the parallel list of
        #: each value's ascending entry list).
        self._groups: dict[Any, tuple[list, list[list[tuple]]]] = {}

    def add(self, group: Any, value: Any, key: Any) -> None:
        entry = self._groups.get(group)
        if entry is None:
            entry = self._groups[group] = ([], [])
        values, tied = entry
        at = bisect_left(values, value)
        if at < len(values) and values[at] == value:
            insort(tied[at], (value, str(key), key))
        else:
            values.insert(at, value)
            tied.insert(at, [(value, str(key), key)])

    def build(self, groups: dict[Any, list[tuple]],
              scan_order: Iterable) -> None:
        """From-empty load: sort each group's ``(value, str(key), key)``
        entries once and split them into values and ties in one pass.

        Lands on exactly what :meth:`add`-ing the entries one by one in
        *scan_order* (their keys, in the order they were added) leaves,
        groups in first-added order.  Sorting decides every position;
        the order of adds decides only which of several equal values
        stands for their slot — the first added — and that shows only
        when they differ in type or identity (``1``/``1.0``,
        ``0.0``/``-0.0``, two equal strings), where *scan_order* is
        read to find it."""
        position: dict[Any, int] = {}
        for group, entries in groups.items():
            entries.sort()
            values = list(map(_VALUE, entries))
            if not any(map(eq, values, islice(values, 1, None))):
                self._groups[group] = (values, [[entry] for entry in entries])
                continue  # no two values equal
            tied = [list(run) for _, run in groupby(entries, _VALUE)]
            if not _INTS.issuperset(map(type, values)):
                values = self._first_added(tied, position, scan_order)
            else:
                values = [run[0][0] for run in tied]
            self._groups[group] = (values, tied)

    @staticmethod
    def _first_added(tied: list[list[tuple]], position: dict[Any, int],
                     scan_order: Iterable) -> list:
        """Each slot's value as its first-added entry carries it.
        *position* (key -> scan index) is filled on first need and
        kept for the next group."""
        values = []
        for run in tied:
            stand = run[0][0]
            if len(run) > 1 and not all(_interchangeable(entry[0], stand)
                                        for entry in run):
                if not position:
                    position.update(
                        (key, i) for i, key in enumerate(scan_order))
                stand = min(run, key=lambda entry: position[entry[2]])[0]
            values.append(stand)
        return values

    def remove(self, group: Any, value: Any, key: Any) -> None:
        values, tied = self._groups[group]
        at = bisect_left(values, value)
        entries = tied[at]
        # The pair sorts immediately before the entry it is a prefix of.
        del entries[bisect_left(entries, (value, str(key)))]
        if not entries:
            del values[at], tied[at]
            if not values:
                del self._groups[group]

    def smallest(self, group: Any) -> tuple | None:
        """The entry ranked last: lowest value, highest key string."""
        entry = self._groups.get(group)
        return entry[1][0][-1] if entry is not None else None

    def largest(self, group: Any) -> tuple | None:
        """The entry ranked first: highest value, lowest key string."""
        entry = self._groups.get(group)
        return entry[1][-1][0] if entry is not None else None

    def top(self, group: Any, k: int) -> list[tuple]:
        """The k highest entries, highest value first, ties by
        ascending key string."""
        out: list[tuple] = []
        entry = self._groups.get(group)
        if entry is not None:
            for entries in reversed(entry[1]):
                out += entries[:k - len(out)]
                if len(out) >= k:
                    break
        return out

    def __len__(self) -> int:
        """Total live entries across every group (0 = fully drained)."""
        return sum(len(entries) for _, tied in self._groups.values()
                   for entries in tied)

    def export_entries(self) -> dict[Any, tuple[list, list[list[tuple]]]]:
        """Picklable image of the index, in order, so a sidecar restore
        never sorts.  The lists are copied — every index mutation is
        list surgery — and the entries are shared."""
        return _copy_index(self._groups)

    def load_entries(self, exported: dict[Any, tuple]) -> None:
        """Inverse of :meth:`export_entries` (the same copy: a cut may
        be restored more than once)."""
        self._groups = _copy_index(exported)

    def clear(self) -> None:
        self._groups.clear()


def _kahan_add(bucket: list, value: Any) -> None:
    """Neumaier-compensated accumulation into ``bucket[1]`` (total) /
    ``bucket[2]`` (compensation).  Retraction is addition of the
    negated value, so the compensation absorbs the cancellation error
    that makes naive ``total -= value`` drift on long-lived float
    groups.  Integer-only groups stay exactly integral: every
    correction term is then identically zero."""
    total = bucket[1]
    fresh = total + value
    if abs(total) >= abs(value):
        bucket[2] += (total - fresh) + value
    else:
        bucket[2] += (value - fresh) + total
    bucket[1] = fresh


def _check_summable(key: Any, total: Any, value: Any) -> None:
    """Probe what ``sum``/``avg`` will do with *value*: add it to the
    group's running *total*, and take it back, on a scratch bucket."""
    scratch = [0, total, 0]
    try:
        _kahan_add(scratch, value)
        _kahan_add(scratch, -value)
    except TypeError as exc:
        raise ViewError(f"view row for key {key!r}: value {value!r} "
                        f"cannot be summed ({exc})") from exc


class GroupAggregate:
    """count/sum/avg/min/max per group, with O(1)–O(log n) retraction.

    ``group_of`` maps a row to its group key (``None`` = one global
    group, i.e. a plain filtered aggregate); ``value_of`` extracts the
    aggregated value (ignored for ``count``).  The emitted delta maps
    each touched group to its new aggregate value, or TOMBSTONE when
    the group lost its last member.
    """

    KINDS = ("count", "sum", "avg", "min", "max")

    def __init__(self, kind: str,
                 group_of: Callable[[dict], Any] | None = None,
                 value_of: Callable[[dict], Any] | None = None):
        if kind not in self.KINDS:
            raise ViewError(f"unknown aggregate kind {kind!r}; "
                            f"choose from {self.KINDS}")
        if kind != "count" and value_of is None:
            raise ViewError(f"aggregate kind {kind!r} needs a value field")
        self.kind = kind
        self.group_of = group_of
        self.value_of = value_of
        #: key -> (group, value): the contribution currently applied.
        self._contrib: dict[Any, tuple[Any, Any]] = {}
        #: group -> [count, total, compensation]; only ``sum``/``avg``
        #: accumulate the total (``min``/``max`` read the index).
        self._groups: dict[Any, list] = {}
        self._summing = kind in ("sum", "avg")
        #: min/max: per-group ordered index of live contributions, so
        #: retracting the current extremum reveals the runner-up
        #: without rescanning state.
        self._ordered: OrderedGroupIndex | None = (
            OrderedGroupIndex() if kind in ("min", "max") else None)
        self._extremum = (None if self._ordered is None
                          else self._ordered.smallest if kind == "min"
                          else self._ordered.largest)

    def reset(self) -> None:
        self._contrib.clear()
        self._groups.clear()
        if self._ordered is not None:
            self._ordered.clear()

    def _aggregate(self, group: Any) -> Any:
        if self._extremum is not None:
            return self._extremum(group)[0]
        count, total, comp = self._groups[group]
        if self.kind == "count":
            return count
        if self.kind == "sum":
            return total + comp
        return (total + comp) / count

    def _stage(self, delta: Delta) -> list[tuple[Any, tuple | None]]:
        """Phase one: extract every row's (group, value) and probe the
        value without touching a single memo.  ``group_of``/``value_of``
        may raise (a missing field is a :class:`ViewError`) and so may
        the probe; staging first means a raising delta leaves the
        operator exactly as it was.  A key that contributes what it
        already did — same group, equal value of the same type — is
        not staged at all."""
        staged: list[tuple[Any, tuple | None]] = []
        group_of, value_of = self.group_of, self.value_of
        contrib, ordered = self._contrib, self._ordered
        #: ordered kinds: group -> the first value staged for it.
        firsts: dict = {}
        for key, row in delta.items():
            if row is TOMBSTONE:
                if key in contrib:
                    staged.append((key, None))
                continue
            group = group_of(row) if group_of is not None else None
            value = value_of(row) if value_of is not None else 0
            contribution = (group, value)
            old = contrib.get(key)
            if old == contribution and type(old[1]) is type(value):
                continue
            if ordered is not None:
                _check_ordered(key, value, ordered.smallest(group),
                               firsts.setdefault(group, value))
            elif self._summing:
                bucket = self._groups.get(group)
                _check_summable(key, bucket[1] if bucket is not None else 0,
                                value)
            staged.append((key, contribution))
        return staged

    def apply(self, delta: Delta) -> Delta:
        staged = self._stage(delta)  # may raise; no memo touched yet
        groups, ordered, summing = self._groups, self._ordered, self._summing
        touched: dict = {}  # ordered: the output delta's key order
        for key, contribution in staged:
            old = self._contrib.pop(key, None)
            if old is not None:
                group, value = old
                bucket = groups[group]
                bucket[0] -= 1
                if summing:
                    _kahan_add(bucket, -value)
                elif ordered is not None:
                    ordered.remove(group, value, key)
                if bucket[0] == 0:
                    del groups[group]
                touched[group] = None
            if contribution is None:
                continue
            group, value = contribution
            self._contrib[key] = contribution
            bucket = groups.get(group)
            if bucket is None:
                bucket = groups[group] = [0, 0, 0]
            bucket[0] += 1
            if summing:
                _kahan_add(bucket, value)
            elif ordered is not None:
                ordered.add(group, value, key)
            touched[group] = None
        out: Delta = {}
        for group in touched:
            out[group] = (self._aggregate(group)
                          if group in groups else TOMBSTONE)
        return out

    def build(self, rows: Iterable[tuple[Any, dict]]) -> None:
        """From-empty load of a reset operator: the memos
        ``apply(dict(rows))`` leaves, byte for byte, without the fold's
        insort, and without its per-row probe where the value's type
        makes it a no-op (ints; floats too for sums).  Totals
        accumulate in scan order with the fold's Kahan sequence (a
        plain ``+`` while value and total are both ints, which is what
        it computes for them); an ordered index is sorted once
        (:meth:`OrderedGroupIndex.build`).  Each key comes once.  A row
        the fold would reject raises here too, not always with the
        fold's message: the caller re-runs the fold
        (:meth:`~repro.views.compiler.CompiledView.hydrate`)."""
        contrib, groups, ordered = self._contrib, self._groups, self._ordered
        group_of, value_of = self.group_of, self.value_of
        summing = self._summing
        #: ordered kinds: group -> (first value, its entries).
        entries: dict[Any, tuple[Any, list]] = {}
        count = 0
        for key, row in rows:
            group = group_of(row) if group_of is not None else None
            value = value_of(row) if value_of is not None else 0
            contrib[key] = (group, value)
            count += 1
            bucket = groups.get(group)
            if bucket is None:
                bucket = groups[group] = [0, 0, 0]
                if ordered is not None:
                    entries[group] = (value, [])
            bucket[0] += 1
            if summing:
                if type(value) is int and type(bucket[1]) is int:
                    bucket[1] += value  # all Kahan computes for ints
                else:
                    if type(value) is not float and type(value) is not int:
                        _check_summable(key, 0, value)  # the fold's probe
                    _kahan_add(bucket, value)
            elif ordered is not None:
                first, group_entries = entries[group]
                if type(value) is not int or type(first) is not int:
                    # (ints always order among themselves)
                    _check_ordered(key, value, None, first)
                group_entries.append((value, str(key), key))
        if count != len(contrib):
            raise ViewError("a scan names a key more than once")
        if ordered is not None:
            ordered.build({group: group_entries for group, (_, group_entries)
                           in entries.items()}, contrib)

    def result(self) -> dict[Any, Any]:
        return {group: self._aggregate(group) for group in self._groups}

    # -- durable-view sidecar -------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """Picklable image of the retraction memos.  Buckets are copied
        verbatim (including the Kahan compensation), so a restore is
        bit-identical to the live operator — no fold-order residue —
        and the ordered index travels in order."""
        state = {"contrib": dict(self._contrib),
                 "groups": {group: list(bucket)
                            for group, bucket in self._groups.items()}}
        if self._ordered is not None:
            state["ordered"] = self._ordered.export_entries()
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        self._contrib = dict(state["contrib"])
        self._groups = {group: list(bucket)
                        for group, bucket in state["groups"].items()}
        if self._ordered is not None:
            self._ordered.load_entries(state["ordered"])


class WindowedAggregate(GroupAggregate):
    """Tumbling-window aggregate over commit time (``at_ms``).

    Each key's contribution is assigned to the window containing the
    commit that produced it; a later commit *moves* the key to its new
    window (the inherited memo retracts the old window's contribution).
    The result maps window start (ms) to the aggregate over the keys
    whose latest commit landed in that window.

    Window assignment is part of the operator's state, not derivable
    from any store scan — which is why windowed plans recover through
    the durable-view sidecar and the changelog's rewind machinery
    (records carry ``at_ms``) rather than full-scan rehydration; a
    scan fallback collapses history into the hydration-time window.
    """

    def __init__(self, kind: str, window_ms: float,
                 value_of: Callable[[dict], Any] | None = None):
        if kind not in self.KINDS:
            raise ViewError(f"unknown aggregate kind {kind!r}; "
                            f"choose from {self.KINDS}")
        if window_ms <= 0:
            raise ViewError(f"windowed views need window_ms > 0, "
                            f"got {window_ms}")
        self.window_ms = float(window_ms)
        self._now_window = 0.0
        super().__init__(kind, group_of=self._window_of, value_of=value_of)

    def window_start(self, at_ms: float | None) -> float:
        """The tumbling window containing *at_ms* (``None`` — a run
        without a clock — collapses to window 0.0)."""
        if at_ms is None:
            return 0.0
        return math.floor(at_ms / self.window_ms) * self.window_ms

    def _window_of(self, row: dict) -> float:
        return self._now_window

    def apply(self, delta: Delta, at_ms: float | None = None) -> Delta:
        self._now_window = self.window_start(at_ms)
        return super().apply(delta)

    def build(self, rows: Iterable[tuple[Any, dict]],
              at_ms: float | None = None) -> None:
        self._now_window = self.window_start(at_ms)
        super().build(rows)


class DeltaJoin:
    """Two-entity foreign-key delta-join, primary-keyed output.

    The *primary* (left) entity's rows carry a foreign key (field
    ``on``) naming a row of the *joined* (right) entity; the emitted
    delta is keyed by the primary key and carries the merged row —
    primary fields verbatim, joined fields under ``{prefix}__{field}``.
    Inner-join semantics: a primary row whose partner is absent is
    invisible downstream (a TOMBSTONE retraction), and appears the
    moment the partner arrives.

    Each side's delta probes the other side's memo: a primary change is
    O(1) (one FK lookup); a joined-side change fans out to exactly the
    primary rows referencing it (the ``_by_fk`` index), each re-emitted
    with the fresh partner — O(referencing keys), never O(state).
    """

    def __init__(self, on: str, prefix: str):
        self.on = on
        self.prefix = prefix
        #: primary key -> primary row (the side the output is keyed by).
        #: Both memos hold the committed rows themselves (shared, never
        #: written); ``_joined`` builds the merged row as a new dict.
        self._left: dict[Any, dict] = {}
        #: joined-entity key -> its row.
        self._right: dict[Any, dict] = {}
        #: joined-entity key -> {primary keys referencing it: None}, in
        #: link order (a dict, so fan-out order follows no string hash).
        self._by_fk: dict[Any, dict] = {}

    def reset(self) -> None:
        self._left.clear()
        self._right.clear()
        self._by_fk.clear()

    def _fk_of(self, key: Any, row: dict) -> Any:
        if self.on not in row:
            raise ViewError(
                f"join row for key {key!r} lacks foreign-key field "
                f"{self.on!r}")
        return row[self.on]

    def _joined(self, left_row: dict, right_row: dict) -> dict:
        merged = dict(left_row)
        for field_name, value in right_row.items():
            merged[f"{self.prefix}__{field_name}"] = value
        return merged

    def _unlink(self, fk: Any, key: Any) -> None:
        peers = self._by_fk.get(fk)
        if peers is not None:
            peers.pop(key, None)
            if not peers:
                del self._by_fk[fk]

    def apply(self, left_delta: Delta, right_delta: Delta) -> Delta:
        # Two-phase: every FK extraction (which may raise on a malformed
        # row) happens before the first memo mutation.
        staged = [(key, None if row is TOMBSTONE
                   else (self._fk_of(key, row), row))
                  for key, row in left_delta.items()]
        out: Delta = {}
        for key, new in staged:
            old = self._left.pop(key, None)
            if old is not None:
                self._unlink(old[self.on], key)
            if new is None:
                out[key] = TOMBSTONE
                continue
            fk, row = new
            self._left[key] = row
            self._by_fk.setdefault(fk, {})[key] = None
            partner = self._right.get(fk)
            out[key] = (self._joined(row, partner)
                        if partner is not None else TOMBSTONE)
        for fk, partner in right_delta.items():
            if partner is TOMBSTONE:
                fresh = None
                self._right.pop(fk, None)
            else:
                fresh = self._right[fk] = partner
            for key in self._by_fk.get(fk, ()):
                out[key] = (self._joined(self._left[key], fresh)
                            if fresh is not None else TOMBSTONE)
        return out

    def result(self) -> Delta:
        """Every currently joined row (primary-keyed) — the hydration
        oracle's view of the memos."""
        out: Delta = {}
        for key, row in self._left.items():
            partner = self._right.get(row[self.on])
            if partner is not None:
                out[key] = self._joined(row, partner)
        return out

    # -- durable-view sidecar -------------------------------------------
    def export_state(self) -> dict[str, Any]:
        return {"left": dict(self._left), "right": dict(self._right)}

    def restore_state(self, state: dict[str, Any]) -> None:
        self._left = dict(state["left"])
        self._right = dict(state["right"])
        self._by_fk = {}
        for key, row in self._left.items():
            self._by_fk.setdefault(row[self.on], {})[key] = None


#: Exact types a shallow copy of a row may share with the original.
_IMMUTABLE = frozenset((str, int, float, bool, bytes, type(None)))


def _is_flat(row: dict) -> bool:
    """True when ``dict(row)`` isolates *row* fully: every value is an
    immutable scalar, so there is no nested state to copy."""
    for item in row.values():
        if type(item) not in _IMMUTABLE:
            return False
    return True


class TopK:
    """Bounded top-k rows by a score field.

    Keeps every live key in an :class:`OrderedGroupIndex` (one global
    group) and reads the top k off its high end: highest score first,
    ties broken by ascending key string — the same deterministic order
    :meth:`~repro.query.engine.QueryEngine.top_k` produces.  A
    membership change is an O(log n) bisect, a key falling out of the
    top k is backfilled from the index without rescanning state, and a
    row whose score did not move replaces the memoized row and leaves
    the index alone.  Emits the full replacement top-k list (bounded
    size) whenever the visible rows may have changed — a delta naming a
    visible key republishes even at an unchanged score, and the last
    row draining emits the empty list, so subscribers learn the view
    emptied.
    """

    def __init__(self, k: int, score_of: Callable[[dict], Any]):
        if k < 1:
            raise ViewError(f"top-k needs k >= 1, got {k}")
        self.k = k
        self.score_of = score_of
        #: All live keys, ordered (group None: the ranking is global).
        self._index = OrderedGroupIndex()
        #: key -> (score, row, flat) for retraction and row
        #: materialization; the row is the committed row itself (shared,
        #: never written), *flat* whether a shallow copy hands it out
        #: safely — settled once per fold, not once per read.
        self._rows: dict[Any, tuple[Any, dict, bool]] = {}

    def reset(self) -> None:
        self._index.clear()
        self._rows.clear()

    def _top_keys(self) -> list:
        return [entry[2] for entry in self._index.top(None, self.k)]

    def apply(self, delta: Delta) -> list | None:
        # Two-phase: stage every score extraction and ordering probe
        # (either may raise) before the first memo mutation.
        rows, index = self._rows, self._index
        indexed = index.largest(None)
        #: The first score staged by this delta (the global group's).
        firsts: dict = {}
        same_score: list[tuple[Any, tuple]] = []
        moved: list[tuple[Any, tuple | None, tuple | None]] = []
        for key, row in delta.items():
            old = rows.get(key)
            if row is TOMBSTONE:
                if old is not None:
                    moved.append((key, old, None))
                continue
            score = self.score_of(row)
            new = (score, row, _is_flat(row))
            if old is not None and old[0] == score \
                    and type(old[0]) is type(score):
                same_score.append((key, new))
            else:
                _check_ordered(key, score, indexed,
                               firsts.setdefault(None, score))
                moved.append((key, old, new))
        rows.update(same_score)
        before = self._top_keys()
        for key, old, new in moved:
            if old is not None:
                index.remove(None, old[0], key)
            if new is None:
                del rows[key]
            else:
                rows[key] = new
                index.add(None, new[0], key)
        after = self._top_keys() if moved else before
        if after == before and all(key not in delta for key in after):
            return None
        return self._materialize(after)

    def build(self, rows: Iterable[tuple[Any, dict]]) -> None:
        """From-empty load of a reset operator: the memos
        ``apply(dict(rows))`` leaves, with the index sorted once
        (:meth:`OrderedGroupIndex.build`) instead of one insort per
        row.  Each key comes once; a row the fold would reject raises
        (see :meth:`GroupAggregate.build`)."""
        memo, score_of = self._rows, self.score_of
        entries: list[tuple] = []
        first = None
        for key, row in rows:
            score = score_of(row)
            if not entries:
                first = score
            if type(score) is not int or type(first) is not int:
                _check_ordered(key, score, None, first)
            memo[key] = (score, row, _is_flat(row))
            entries.append((score, str(key), key))
        if len(entries) != len(memo):
            raise ViewError("a scan names a key more than once")
        if entries:
            self._index.build({None: entries}, memo)

    def _materialize(self, keys: list) -> list[dict]:
        """Rows leave the layer here, so this is where they are copied
        (a copy-out in :mod:`repro.runtimes.state`'s sense: nothing a
        reader does to a row it was handed, at any depth, reaches the
        memo)."""
        rows = []
        for key in keys:
            _, row, flat = self._rows[key]
            materialized = dict(row) if flat else fast_deepcopy(row)
            materialized["__key__"] = key
            rows.append(materialized)
        return rows

    def result(self) -> list[dict]:
        return self._materialize(self._top_keys())

    # -- durable-view sidecar -------------------------------------------
    def export_state(self) -> dict[str, Any]:
        return {"rows": dict(self._rows),
                "index": self._index.export_entries()}

    def restore_state(self, state: dict[str, Any]) -> None:
        self._rows = dict(state["rows"])
        self._index.load_entries(state["index"])
