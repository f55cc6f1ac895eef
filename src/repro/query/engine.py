"""Querying stateful entities (paper Section 5).

"The ability to query the global state of a dataflow processor ... can
transform a dataflow processor into a full-fledged, distributed database
system. [...] querying (e.g., with SQL) a set of entities still poses a
number of challenges, especially with respect to the tradeoff between the
freshness and consistency of query results."

This module implements that trade-off explicitly, in the spirit of
S-QUERY [46] and RAMP read-atomic transactions [7]:

- ``consistency="live"`` reads the current committed operator state —
  freshest, and on StateFlow still transactionally consistent because
  commits are atomic at batch boundaries; on runtimes without
  transactions the live view may expose in-progress call chains.
- ``consistency="snapshot"`` reads the latest completed system snapshot —
  a globally consistent (but stale) cut, the read-atomic option.
  Resolution goes through the same ``latest_recoverable`` path recovery
  uses, so a torn delta chain is repaired through the commit changelog
  (or an older cut is served) instead of failing the query.
- ``consistency="as_of"`` is the time-travel level the durable
  changelog makes nearly free: ``at_batch=N`` (or ``at_ms=T``) resolves
  the nearest retained base+delta chain at or before the target and
  replays the changelog suffix up to it — "balance of entity X as of
  batch N".  Requires incremental snapshots with the changelog enabled;
  a target older than the retained history (compacted cuts/records) is
  refused rather than answered wrong.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from ..core.errors import StatefulEntityError
from ..runtimes.state import apply_flat_writes, materialize_snapshot
from ..runtimes.stateflow.snapshots import SnapshotChainError
from ..views import ViewSnapshot, ViewSpec, ViewUpdate, rank_key


class QueryError(StatefulEntityError):
    """Invalid query or unsupported consistency level."""


@dataclass(slots=True)
class QueryResult:
    """Rows returned by a query, with provenance metadata."""

    entity: str
    rows: list[dict[str, Any]]
    consistency: str
    #: Simulated time of the state the query observed (snapshot time for
    #: snapshot reads, "now" for live reads); None outside simulations.
    as_of_ms: float | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def keys(self) -> list[Any]:
        return [row["__key__"] for row in self.rows]

    def scalars(self, field: str) -> list[Any]:
        return [row[field] for row in self.rows]


Predicate = Callable[[dict[str, Any]], bool]


class QueryEngine:
    """Read-only queries over a runtime's entity state.

    Works against any runtime exposing its state: the Local runtime's
    HashMap, the StateFun-style runtime's operator state, and StateFlow's
    committed store + snapshot store.
    """

    def __init__(self, runtime):
        self._runtime = runtime

    # -- state sources ------------------------------------------------------
    def _live_store(self):
        runtime = self._runtime
        store = getattr(runtime, "committed", None)        # StateFlow
        if store is None:
            store = getattr(runtime, "state", None)        # Local/StateFun
        if store is None:
            raise QueryError(
                f"runtime {type(runtime).__name__} exposes no queryable "
                f"state")
        return store

    def _live_items(self) -> Iterable[tuple[tuple[str, Any], dict[str, Any]]]:
        # keys()/get() is the surface every store shares (a plain
        # backend or the partitioned store) and returns copies, keeping
        # predicates from mutating committed state.
        store = self._live_store()
        return [(key, store.get(*key)) for key in store.keys()]

    @staticmethod
    def _changelog_of(coordinator):
        """The changelog recovery would repair through, or ``None``
        when the deployment keeps none."""
        config = coordinator.config
        if (config.snapshot_mode == "incremental"
                and config.changelog_enabled):
            return coordinator.changelog
        return None

    def _coordinator(self, purpose: str):
        coordinator = getattr(self._runtime, "coordinator", None)
        if coordinator is None:
            raise QueryError(
                f"{purpose} queries need a snapshotting runtime "
                f"(StateFlow); use consistency='live' instead")
        return coordinator

    def _snapshot_items(self, entity: str) -> tuple[Iterable, float]:
        coordinator = self._coordinator("snapshot-consistency")
        if coordinator.snapshots.latest() is None:
            raise QueryError("no snapshot completed yet")
        # Incremental cuts carry only the dirtied slots: resolve the
        # delta chain back into a full payload, through the same
        # latest_recoverable path recovery uses — a torn chain is
        # repaired via the commit changelog, and failing that the
        # query is served from the newest older cut that resolves,
        # exactly the state a crash right now would restore.
        try:
            snapshot, payload = coordinator.snapshots.latest_recoverable(
                self._changelog_of(coordinator))
        except SnapshotChainError as error:
            raise QueryError(
                f"no retained snapshot is resolvable ({error}); "
                f"use consistency='live' instead")
        # Materialize (copy) only the queried entity's rows, not the
        # whole committed store.
        state = materialize_snapshot(payload, entity)
        return list(state.items()), snapshot.taken_at_ms

    def _as_of_items(self, entity: str, *, at_batch: int | None,
                     at_ms: float | None) -> tuple[Iterable, float]:
        """Time-travel source: the nearest retained cut at or before
        the target, plus the changelog suffix up to it (records carry
        absolute post-states, so replay is a fold of dict updates)."""
        coordinator = self._coordinator("as-of")
        if (at_batch is None) == (at_ms is None):
            raise QueryError(
                "as-of queries take exactly one of at_batch= or at_ms=")
        changelog = self._changelog_of(coordinator)
        if changelog is None:
            raise QueryError(
                "as-of queries replay the commit changelog; run with "
                "snapshot_mode='incremental' and the changelog enabled")
        snapshots = coordinator.snapshots
        for snapshot in reversed(snapshots.retained()):
            # The cut qualifies when everything it contains is at or
            # before the target: batches it committed all have ids
            # below its batch_seq counter, and a cut taken at time T
            # contains only commits at or before T.
            if at_batch is not None and snapshot.batch_seq - 1 > at_batch:
                continue
            if at_ms is not None and snapshot.taken_at_ms > at_ms:
                continue
            try:
                payload = snapshots.resolve_recoverable(snapshot,
                                                        changelog)
            except SnapshotChainError:
                continue  # torn beyond repair: anchor on an older cut
            records = changelog.suffix_as_of(
                snapshot.changelog_seq, batch=at_batch, at_ms=at_ms)
            if records is None:
                continue  # gap in the suffix: anchor on an older cut
            for record in records:
                payload = apply_flat_writes(payload, record.writes)
            state = materialize_snapshot(payload, entity)
            stamp = records[-1].at_ms if records else snapshot.taken_at_ms
            return list(state.items()), stamp
        target = (f"batch {at_batch}" if at_batch is not None
                  else f"t={at_ms}ms")
        raise QueryError(
            f"no retained snapshot precedes {target}: the point lies "
            f"before the retained history (older cuts and changelog "
            f"records were compacted away)")

    def _source_items(self, entity: str, *, consistency: str,
                      at_batch: int | None, at_ms: float | None,
                      key: Any = None) -> tuple[Iterable, float | None]:
        """Resolve the consistency level to ``(items, as_of_ms)``.

        A non-``None`` *key* is the point-read fast path: a live read
        goes straight to ``store.get(entity, key)`` without enumerating
        ``store.keys()`` — O(1), never O(state).  Snapshot and as-of
        reads must still resolve the historical cut (that cost is the
        consistency level's, not the scan's), then narrow to the key.
        """
        if consistency != "as_of" and (at_batch is not None
                                       or at_ms is not None):
            raise QueryError(
                "at_batch=/at_ms= require consistency='as_of'")
        if consistency == "live":
            as_of = getattr(getattr(self._runtime, "sim", None), "now", None)
            if key is not None:
                state = self._live_store().get(entity, key)
                return ([] if state is None
                        else [((entity, key), state)]), as_of
            return self._live_items(), as_of
        if consistency == "snapshot":
            items, as_of = self._snapshot_items(entity)
        elif consistency == "as_of":
            items, as_of = self._as_of_items(entity, at_batch=at_batch,
                                             at_ms=at_ms)
        else:
            raise QueryError(
                f"unknown consistency level {consistency!r}; "
                f"pick 'live', 'snapshot' or 'as_of'")
        if key is not None:
            items = [(composite, state) for composite, state in items
                     if composite == (entity, key)]
        return items, as_of

    def _build_rows(self, entity: str, items: Iterable, *,
                    where: Predicate | None,
                    project: list[str] | None = None) -> list[dict]:
        rows = []
        for (entity_name, key), state in items:
            if entity_name != entity or state is None:
                continue
            if where is not None and not where(state):
                continue
            if project is None:
                row = dict(state)
            else:
                missing = [f for f in project if f not in state]
                if missing:
                    raise QueryError(
                        f"unknown field(s) {missing} on entity {entity!r}")
                row = {field: state[field] for field in project}
            row["__key__"] = key
            rows.append(row)
        return rows

    # -- core ------------------------------------------------------------
    def select(self, entity: str, *,
               key: Any = None,
               where: Predicate | None = None,
               project: list[str] | None = None,
               order_by: str | None = None,
               descending: bool = False,
               limit: int | None = None,
               consistency: str = "live",
               at_batch: int | None = None,
               at_ms: float | None = None) -> QueryResult:
        """SQL-ish scan over every instance of *entity*.

        ``key=`` narrows to one partition key — a live point read
        resolves through ``store.get`` without materializing the whole
        entity.  ``where`` receives the full state dict; ``project``
        restricts the returned fields (the partition key is always
        included as ``__key__``).  ``consistency="as_of"`` time-travels
        to ``at_batch=N`` or ``at_ms=T`` (exactly one required).
        """
        items, as_of = self._source_items(entity, consistency=consistency,
                                          at_batch=at_batch, at_ms=at_ms,
                                          key=key)
        rows = self._build_rows(entity, items, where=where, project=project)

        if order_by is not None:
            for row in rows:
                if order_by not in row:
                    raise QueryError(
                        f"cannot order by {order_by!r}: entity "
                        f"{entity!r} instance {row['__key__']!r} has no "
                        f"such field")
            rows.sort(key=lambda row: row[order_by], reverse=descending)
        else:
            rows.sort(key=lambda row: str(row["__key__"]))
        if limit is not None:
            rows = rows[:limit]
        return QueryResult(entity=entity, rows=rows,
                           consistency=consistency, as_of_ms=as_of)

    # -- aggregates -----------------------------------------------------
    @staticmethod
    def _field_values(result: QueryResult, field: str,
                      entity: str) -> list[Any]:
        """Extract one field from every row; an instance that lacks it
        is a query error naming the field and entity, not a bare
        ``KeyError`` escaping from aggregate arithmetic."""
        values = []
        for row in result.rows:
            if field not in row:
                raise QueryError(
                    f"unknown field {field!r} on entity {entity!r} "
                    f"(instance {row['__key__']!r} has no such field)")
            values.append(row[field])
        return values

    def count(self, entity: str, *, where: Predicate | None = None,
              consistency: str = "live", at_batch: int | None = None,
              at_ms: float | None = None) -> int:
        return len(self.select(entity, where=where,
                               consistency=consistency,
                               at_batch=at_batch, at_ms=at_ms))

    def sum(self, entity: str, field: str, *,
            where: Predicate | None = None,
            consistency: str = "live", at_batch: int | None = None,
            at_ms: float | None = None) -> Any:
        result = self.select(entity, where=where, consistency=consistency,
                             at_batch=at_batch, at_ms=at_ms)
        return sum(self._field_values(result, field, entity))

    def avg(self, entity: str, field: str, *,
            where: Predicate | None = None,
            consistency: str = "live", at_batch: int | None = None,
            at_ms: float | None = None) -> float:
        result = self.select(entity, where=where, consistency=consistency,
                             at_batch=at_batch, at_ms=at_ms)
        if not result.rows:
            raise QueryError("avg over empty result")
        values = self._field_values(result, field, entity)
        return sum(values) / len(values)

    def min(self, entity: str, field: str, *,
            where: Predicate | None = None,
            consistency: str = "live", at_batch: int | None = None,
            at_ms: float | None = None) -> Any:
        result = self.select(entity, where=where, consistency=consistency,
                             at_batch=at_batch, at_ms=at_ms)
        if not result.rows:
            raise QueryError("min over empty result")
        return min(self._field_values(result, field, entity))

    def max(self, entity: str, field: str, *,
            where: Predicate | None = None,
            consistency: str = "live", at_batch: int | None = None,
            at_ms: float | None = None) -> Any:
        result = self.select(entity, where=where, consistency=consistency,
                             at_batch=at_batch, at_ms=at_ms)
        if not result.rows:
            raise QueryError("max over empty result")
        return max(self._field_values(result, field, entity))

    def top_k(self, entity: str, field: str, k: int, *,
              where: Predicate | None = None,
              consistency: str = "live", at_batch: int | None = None,
              at_ms: float | None = None) -> QueryResult:
        """The k highest-*field* rows, highest first.

        A heap selection (``heapq.nlargest``), O(n log k) instead of the
        O(n log n) full sort ``select(order_by=..., limit=k)`` pays.
        Ties are broken by ascending key string — the same deterministic
        order the incremental top-k view maintains, so the two paths
        are directly comparable.
        """
        if k < 1:
            raise QueryError(f"top_k needs k >= 1, got {k}")
        items, as_of = self._source_items(entity, consistency=consistency,
                                          at_batch=at_batch, at_ms=at_ms)
        rows = self._build_rows(entity, items, where=where)
        for row in rows:
            if field not in row:
                raise QueryError(
                    f"unknown field {field!r} on entity {entity!r} "
                    f"(instance {row['__key__']!r} has no such field)")
        top = heapq.nlargest(
            k, rows, key=lambda row: rank_key(row[field], row["__key__"]))
        return QueryResult(entity=entity, rows=top,
                           consistency=consistency, as_of_ms=as_of)

    # -- materialized views ---------------------------------------------
    def _view_manager(self, purpose: str):
        views = getattr(self._runtime, "views", None)
        if views is None:
            raise QueryError(
                f"{purpose} needs a runtime with materialized-view "
                f"support (StateFlow)")
        return views

    def register_view(self, spec: ViewSpec) -> ViewSnapshot:
        """Register a standing query; returns its first (hydrated)
        snapshot.  Registration pays one O(state) scan; every later
        refresh is incremental — O(changed keys) per committed batch."""
        return self._view_manager("register_view").register(spec)

    def unregister_view(self, name: str) -> None:
        self._view_manager("unregister_view").unregister(name)

    def view(self, name: str) -> ViewSnapshot:
        """Read a registered view: the maintained value plus freshness
        metadata (last applied batch id, lag behind the commit head)."""
        return self._view_manager("view").read(name)

    def subscribe_view(self, name: str,
                       callback: Callable[[ViewUpdate], None]) -> None:
        """Push-subscribe to a view's maintenance deltas.  Deliveries
        ride the runtime's transport (the network substrate on
        StateFlow), off the commit path."""
        self._view_manager("subscribe_view").subscribe(name, callback)
