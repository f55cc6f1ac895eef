"""View registration, log-fed maintenance, rewind, subscriptions.

The :class:`ViewManager` is the runtime-side owner of every registered
materialized view, and a subscriber of the commit changelog (see
:class:`~repro.runtimes.stateflow.snapshots.ChangelogStore`): the log
hands :meth:`on_commit` each record's seq, write footprint (absolute
post-states) and time, in seq order and only once the record is
persisted.  The manager folds the O(changed keys) delta into each
registered plan, and push subscribers are fanned the resulting view
deltas over whatever transport the runtime provides (the network
substrate on StateFlow — commit never waits on a subscriber).  A
subscriber hears about a record only when its view's output moved: a
record that leaves every key's contribution as it was (see
:mod:`.operators`) emits nothing, and the value and each
:class:`ViewUpdate` are built only for names somebody subscribed to.

No row is copied into the view layer: the log's records carry the
committed entries themselves (``PartitionedStore.entry``) and hydration
reads them in place (``entries(entity)``), and from then on they are
shared — by every plan, the changelog record and every base's sidecar;
:mod:`.operators` states the row contract.

Off the commit path also means a view cannot take a commit down: a plan
whose fold raises — a committed value its kind cannot use is a
:class:`~.operators.ViewError` before any memo is touched, anything
else is caught here — is reset and marked failed with the seq and the
cause, while the commit, the reply and every other plan proceed.
Reading or subscribing to a failed view raises :class:`ViewError`
naming the cause; :meth:`on_restore` and re-registration re-hydrate it
(a hydration that raises marks it failed again), and a failed plan is
left out of the sidecar.

Freshness is a log position: each plan keeps the seq of the last record
folded in, and a read reports it (``applied_seq``) with how far the
log's head is past it (``lag``).  Unlike batch ids, which restart with
every run over one directory, seqs continue across runs, so a position
saved in a sidecar means the same record in the next process.  A
record at or below a plan's position (a redelivery) is dropped per
plan.

One way to the head
-------------------
A plan reaches the log head one way only (:meth:`_catch_up`): from the
memos a sidecar (:meth:`export_sidecar`) saved at seq ``S`` plus a fold
of the log's records in ``(S, head]`` (``sidecar_restores``), or, when
no sidecar entry covers the plan or the span has a gap, from a scan of
the store at the head (``rehydrations`` once a sidecar was offered);
both land on the same memos for scan-derivable plans.  Registration
takes it against the sidecar last handed to :meth:`on_restore`;
recovery rewinds the store and the log to a cut and calls
:meth:`on_restore` with the sidecar of the cut's base (only bases carry
one: ``SnapshotStore.sidecar``), so each plan resumes at the base's seq
and folds ``(base seq, cut seq]``, and no view reflects an abandoned
batch; a cold start builds the store at a reopened log's head, calls
:meth:`on_restore` with the latest cut's base's sidecar on a manager
over that log, then registers its views.  Registering or dropping a
view makes the next cut a base (``registrations``), so a base's
sidecar covers every plan registered at its position cuts.

Windowed plans are what the sidecar exists for: their window assignment
lives only in operator state, so a scan collapses history into one
window while a sidecar resume preserves it.  Rescales move slot
ownership, not contents, at a drained-pipeline barrier, so views need
no rescale hook.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from .compiler import CompiledView, ViewCompiler, ViewSpec
from .operators import ViewError

#: Version tag of the durable-view sidecar payload riding snapshot
#: cuts.  Bump when the per-plan state layout changes shape (2: the
#: ordered index travels as values and per-value entry lists; 3: each
#: plan's position is the log seq its memos include); any other version
#: indexes to nothing and falls back to scan hydration.
SIDECAR_VERSION = 3


@dataclass(slots=True)
class ViewSnapshot:
    """One read of a registered view, with freshness provenance."""

    name: str
    kind: str
    value: Any
    #: Seq of the last changelog record folded into this result (the
    #: log head at hydration when none has been folded since).
    applied_seq: int
    #: How many records the log holds past ``applied_seq`` (0 = fully
    #: fresh; a subscribed manager stays at 0).
    lag: int
    #: Time of the last record folded in (the clock at hydration).
    as_of_ms: float | None


@dataclass(slots=True)
class ViewUpdate:
    """One pushed maintenance result, as delivered to subscribers."""

    view: str
    #: Seq of the changelog record that moved the view.
    seq: int
    #: The view's own output delta for this record (grouped aggregates:
    #: ``{group: value | TOMBSTONE}``; top-k: the replacement rows —
    #: ``[]`` when the view drained).
    delta: Any
    #: The full view value after this record (views are small by
    #: construction: aggregates, rollups, windows, bounded top-k).
    value: Any
    at_ms: float | None


class _Scan:
    """Every row of one entity, read in place (``entries(entity)``) each
    time it is iterated: a hydration whose build falls back to the fold
    reads its scan twice, and a listed copy would keep a tuple per row
    alive for the garbage collector to walk."""

    __slots__ = ("_store", "_entity")

    def __init__(self, store: Any, entity: str):
        self._store = store
        self._entity = entity

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        return self._store.entries(self._entity)


def _per_entity(writes: dict) -> dict[str, dict]:
    """Split a ``{(entity, key): state}`` footprint per entity."""
    per_entity: dict[str, dict] = {}
    for (entity, key), state in writes.items():
        per_entity.setdefault(entity, {})[key] = state
    return per_entity


class ViewManager:
    """Registered views over one runtime's committed store."""

    def __init__(self, store: Any, *,
                 clock: Callable[[], float | None] | None = None,
                 log: Any = None):
        #: Committed store exposing ``entries(entity)`` — ``(key,
        #: entry)`` pairs read in place (a backend or the partitioned
        #: store).
        self._store = store
        self._clock = clock or (lambda: None)
        #: The changelog the store is the head of (``head_seq``,
        #: ``records_between``): what a plan catches up through.
        #: ``None`` for a manager fed by hand, whose head is -1 and
        #: whose sidecar entries resume with nothing to fold.
        self._log = log
        self._compiler = ViewCompiler()
        self._views: dict[str, CompiledView] = {}
        self._subscribers: dict[str, list[Callable[[ViewUpdate], None]]] = {}
        #: The last sidecar handed to :meth:`on_restore`, indexed by
        #: ``(view name, schema signature)``; ``None`` before any.
        self._sidecar: dict[tuple, dict] | None = None
        #: Push transport: called with a zero-arg deliver closure; the
        #: runtime points this at the network substrate so updates fan
        #: out as messages.  ``None`` delivers synchronously.
        self.transport: Callable[[Callable[[], None]], None] | None = None
        #: Test/bench observe hook: called with the seq after each
        #: record is folded into every plan (outside the timed region).
        self.probe: Callable[[int], None] | None = None
        #: Maintenance cost ledger (the bench cell's numerator).
        #: ``keys_applied`` counts only keys of entities some plan
        #: actually consumes — writes to view-less entities cost the
        #: maintenance path nothing and must not pad the denominator.
        self.maintenance_ns = 0
        self.commits_applied = 0
        self.keys_applied = 0
        #: O(state) plan rebuilds (store scans) once a sidecar has been
        #: offered — what the sidecar exists to avoid; 0 across a clean
        #: recovery or cold start.
        self.rehydrations = 0
        #: Plans resumed from a sidecar (recovery or cold start).
        self.sidecar_restores = 0
        #: Registrations and unregistrations so far: a position cut's
        #: sidecar is its base's, so once this moves the next cut must
        #: be a base (the coordinator checks it at every cut).
        self.registrations = 0

    def _head(self) -> int:
        return self._log.head_seq if self._log is not None else -1

    # -- registration ---------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._views)

    def register(self, spec: ViewSpec) -> ViewSnapshot:
        """Compile (or share) the plan and catch it up to the log head
        (:meth:`_catch_up`) — the only O(state) moment in a view's
        life, unless the last restored sidecar covers it."""
        if spec.name in self._views:
            raise ViewError(f"view {spec.name!r} is already registered")
        compiled = self._compiler.normalize(spec)
        if not compiled.names or compiled.failure is not None:
            try:
                self._catch_up(compiled, [*compiled.names, spec.name])
            except Exception as exc:
                # The caller hears why; a plan nobody registered must
                # not stay behind on the commit path.
                self._fail(compiled, "registration", exc)
                if not compiled.names:
                    self._compiler.forget(compiled)
                raise
        compiled.names.append(spec.name)
        self._views[spec.name] = compiled
        self.registrations += 1
        return self.read(spec.name)

    def unregister(self, name: str) -> None:
        compiled = self._views.pop(name, None)
        if compiled is None:
            raise ViewError(f"no registered view {name!r}")
        compiled.names.remove(name)
        self._subscribers.pop(name, None)
        self.registrations += 1
        if not compiled.names:
            self._compiler.forget(compiled)

    def _join_scan(self, compiled: CompiledView) -> _Scan | None:
        """The joined entity's scan for hydration, when the plan joins."""
        if compiled.spec.join_entity is None:
            return None
        return _Scan(self._store, compiled.spec.join_entity)

    def _catch_up(self, compiled: CompiledView, names: list[str]) -> None:
        """Bring one plan to the log head, the one way there is: resume
        the last restored sidecar's entry for *names* and fold the
        records past it, or else rebuild from a store scan at the head.
        A scan that raises propagates (the caller fails the plan)."""
        entry = self._sidecar_entry(compiled, names)
        if entry is not None and self._resume(compiled, entry):
            self.sidecar_restores += 1
            return
        if self._sidecar is not None:
            self.rehydrations += 1
        at_ms = self._clock()
        compiled.hydrate(_Scan(self._store, compiled.spec.entity),
                         join_items=self._join_scan(compiled),
                         at_ms=at_ms)
        compiled.applied_seq = self._head()
        compiled.applied_at_ms = at_ms
        compiled.failure = None

    def _resume(self, compiled: CompiledView, entry: dict) -> bool:
        """Restore the entry's memos at its seq and fold the log's
        records past it; ``False`` (and a reset plan) when the span has
        a gap, lies past the head, or the memos do not fit."""
        seq = entry["seq"]
        records: list[Any] | None = []
        if self._log is not None:
            head = self._log.head_seq
            records = (self._log.records_between(seq, head)
                       if seq <= head else None)
        if records is None:
            return False
        try:
            compiled.restore_state(entry["state"])
            for record in records:
                compiled.apply_batch(_per_entity(record.writes),
                                     at_ms=record.at_ms)
        except Exception:
            compiled.reset()
            return False
        compiled.applied_seq = records[-1].seq if records else seq
        compiled.applied_at_ms = (records[-1].at_ms if records
                                  else self._clock())
        compiled.failure = None
        return True

    @staticmethod
    def _fail(compiled: CompiledView, where: str, cause: Exception) -> None:
        """Take a plan whose fold raised out of service: its memos may
        be half applied, so they are dropped, and every read raises
        until a hydration succeeds."""
        compiled.reset()
        compiled.failure = (where, cause)

    # -- reads ----------------------------------------------------------
    def _compiled(self, name: str) -> CompiledView:
        compiled = self._views.get(name)
        if compiled is None:
            raise ViewError(f"no registered view {name!r}")
        return compiled

    @staticmethod
    def _out_of_service(name: str, compiled: CompiledView) -> ViewError:
        where, cause = compiled.failure
        error = ViewError(f"view {name!r} failed at {where}: {cause}")
        error.__cause__ = cause
        return error

    def read(self, name: str) -> ViewSnapshot:
        compiled = self._compiled(name)
        if compiled.failure is not None:
            raise self._out_of_service(name, compiled)
        return ViewSnapshot(
            name=name, kind=compiled.spec.kind, value=compiled.value(),
            applied_seq=compiled.applied_seq,
            lag=max(0, self._head() - compiled.applied_seq),
            as_of_ms=compiled.applied_at_ms)

    def expected(self, name: str) -> Any:
        """The full-scan oracle for one view: recompute its value from
        the committed store, bypassing every incremental memo.  Joins
        scan both entities.  Windowed views have no store oracle —
        window assignment depends on *when* each key last committed,
        which rows do not carry — so asking is a :class:`ViewError`;
        their batteries feed a shadow oracle from the commit hook."""
        from .compiler import recompute
        compiled = self._compiled(name)
        spec = compiled.spec
        if spec.window_ms is not None:
            raise ViewError(
                f"view {name!r} is windowed: window assignment lives in "
                f"operator state, not rows, so no full-scan oracle exists")
        return recompute(spec, _Scan(self._store, spec.entity),
                         join_items=self._join_scan(compiled))

    # -- subscriptions --------------------------------------------------
    def subscribe(self, name: str,
                  callback: Callable[[ViewUpdate], None]) -> None:
        compiled = self._compiled(name)  # must exist, and be maintained
        if compiled.failure is not None:
            raise self._out_of_service(name, compiled)
        self._subscribers.setdefault(name, []).append(callback)

    def _publish(self, update: ViewUpdate) -> None:
        for callback in self._subscribers.get(update.view, []):
            if self.transport is None:
                callback(update)
            else:
                self.transport(lambda cb=callback, u=update: cb(u))

    # -- log-fed maintenance --------------------------------------------
    def on_commit(self, seq: int, writes: dict, at_ms: float | None,
                  ) -> None:
        """Fold one changelog record into every plan: the log's
        subscriber callback.

        *writes* maps ``(entity, key)`` to the absolute post-commit
        state.  Plans route by entity — a join plan consumes both of
        its entities' footprints in one step.  A record at or below a
        plan's ``applied_seq`` is skipped for that plan.  Plans are
        isolated from each other and from the caller: one that raises
        is failed (see :meth:`_fail`), nothing propagates into the
        append."""
        if not self._views:
            return
        per_entity = _per_entity(writes)
        outputs: list[tuple[CompiledView, Any]] = []
        consumed: set[str] = set()
        started = time.perf_counter_ns()
        for compiled in self._compiler.plans:
            if compiled.failure is not None or seq <= compiled.applied_seq:
                continue  # out of service, or a record already applied
            try:
                out = compiled.apply_batch(per_entity, at_ms=at_ms)
            except Exception as exc:
                self._fail(compiled, f"seq {seq}", exc)
                continue
            compiled.applied_seq = seq
            compiled.applied_at_ms = at_ms
            consumed.update(compiled.entities())
            if out is not None:
                outputs.append((compiled, out))
        self.maintenance_ns += time.perf_counter_ns() - started
        self.commits_applied += 1
        self.keys_applied += sum(
            len(delta) for entity, delta in per_entity.items()
            if entity in consumed)
        if self.probe is not None:
            self.probe(seq)
        for compiled, out in outputs:
            listened = [name for name in compiled.names
                        if name in self._subscribers]
            if not listened:
                continue
            value = compiled.value()
            for name in listened:
                self._publish(ViewUpdate(view=name, seq=seq, delta=out,
                                         value=value, at_ms=at_ms))

    # -- durable-view sidecar -------------------------------------------
    def export_sidecar(self) -> dict[str, Any] | None:
        """The versioned payload riding each base cut: every live
        plan's operator memos and the seq they include, plus its
        registered names and structural schema.  Memo containers are
        copied, rows are shared with the cut (the row contract).  A
        failed plan has no memos worth keeping and is left out, so a
        restore re-hydrates it.  ``None`` when no views are registered
        (the common no-views run pays zero cut overhead)."""
        plans = []
        for compiled in self._compiler.plans:
            if not compiled.names or compiled.failure is not None:
                continue
            plans.append({
                "names": sorted(compiled.names),
                "schema": compiled.spec.schema_signature(),
                "state": compiled.export_state(),
                "seq": compiled.applied_seq,
            })
        if not plans:
            return None
        return {"version": SIDECAR_VERSION, "plans": plans}

    @staticmethod
    def _sidecar_entries(sidecar: Any) -> dict[tuple, dict]:
        """Index a sidecar payload by ``(view name, schema signature)``
        — the cross-process identity of a plan.  Unknown versions (or
        malformed payloads) index to nothing: the caller falls back to
        scan hydration, never to a wrong restore."""
        entries: dict[tuple, dict] = {}
        if not isinstance(sidecar, dict) \
                or sidecar.get("version") != SIDECAR_VERSION:
            return entries
        for entry in sidecar.get("plans", ()):
            schema = tuple(entry.get("schema", ()))
            for name in entry.get("names", ()):
                entries[(name, schema)] = entry
        return entries

    def _sidecar_entry(self, compiled: CompiledView,
                       names: list[str]) -> dict | None:
        if not self._sidecar:
            return None
        schema = compiled.spec.schema_signature()
        for name in names:
            entry = self._sidecar.get((name, schema))
            if entry is not None:
                return entry
        return None

    # -- rewind ---------------------------------------------------------
    def on_restore(self, sidecar: Any = None) -> None:
        """The committed store and the log were set to a cut (a
        recovery's rewind, or a cold start's reopen): keep *sidecar*,
        the ``views_state`` of the cut's base, for every later
        registration, and catch every registered plan up again
        (:meth:`_catch_up`), so no view reflects an abandoned pipeline
        batch.  A plan whose scan raises is failed instead of raising
        into recovery."""
        self._sidecar = self._sidecar_entries(sidecar)
        for compiled in self._compiler.plans:
            try:
                self._catch_up(compiled, compiled.names)
            except Exception as exc:  # recovery must not die of a view
                self._fail(compiled, f"rehydration at seq {self._head()}",
                           exc)
