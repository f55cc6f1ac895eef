"""View registration, commit-path maintenance, rewind, subscriptions.

The :class:`ViewManager` is the runtime-side owner of every registered
materialized view.  It sits *off* the Aria commit path: the coordinator
calls :meth:`on_commit` once per closed batch with the batch's write
footprint (absolute post-states, the changelog convention), the manager
folds the O(changed keys) delta into each registered plan, and push
subscribers are fanned the resulting view deltas over whatever
transport the runtime provides (the network substrate on StateFlow —
commit never waits on a subscriber).  A subscriber hears about a batch
only when its view's output moved: a commit that leaves every key's
contribution as it was (see :mod:`.operators`) emits nothing, and the
value and each :class:`ViewUpdate` are built only for names somebody
subscribed to.

No row is copied into the view layer: the commit fan-out hands over
the committed entries themselves (``PartitionedStore.entry``) and
hydration reads them in place (``entries(entity)``), and from then on
they are shared — by every plan, the changelog record and every cut's
sidecar; :mod:`.operators` states the row contract.

Off the commit path also means a view cannot take a commit down: a plan
whose fold raises — a committed value its kind cannot use is a
:class:`~.operators.ViewError` before any memo is touched, anything
else is caught here — is reset and marked failed with the batch and the
cause, while the commit, the reply and every other plan proceed.
Reading or subscribing to a failed view raises :class:`ViewError`
naming the cause; :meth:`on_restore` and re-registration re-hydrate it
(a hydration that raises marks it failed again), and a failed plan is
left out of the sidecar.

Rewind semantics: recovery restores the committed store to a snapshot
and abandons the whole pipeline, so :meth:`on_restore` brings every
plan back to exactly the restored state — a view can never reflect an
abandoned batch.  Plans covered by the cut's durable sidecar (see
:meth:`export_sidecar`) restore their operator memos directly, O(plan
state) with zero store access (``sidecar_restores``); plans the sidecar
misses rebuild from a store scan (``rehydrations``) — identical results
either way for scan-derivable plans, because hydration-from-state and
incremental maintenance land on the same memos (absolute-state deltas).
Windowed plans are the exception that motivates the sidecar: their
window assignment lives only in operator state, so a scan fallback
collapses history into one window while a sidecar restore preserves it.
Rescales move slot ownership, not contents, at a drained-pipeline
barrier, so views need no rescale hook.  Duplicate delivery of a batch
(an at-least-once transport replaying the hook) is dropped per plan by
batch id.

Cold starts go through :meth:`attach_recovery`: a process reopening a
durable directory hands the manager the recovered cut's sidecar plus
the changelog suffix past the cut, and every subsequently registered
view resumes from ``(sidecar memos, last_applied_batch)`` + suffix
replay instead of scanning the restored store — ``rehydrations`` stays
0 on a clean resume.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .compiler import CompiledView, ViewCompiler, ViewSpec
from .operators import ViewError

#: Version tag of the durable-view sidecar payload riding snapshot
#: cuts.  Bump when the per-plan state layout changes shape (2: the
#: ordered index travels as values and per-value entry lists); any other
#: version indexes to nothing and falls back to scan hydration.
SIDECAR_VERSION = 2


@dataclass(slots=True)
class ViewSnapshot:
    """One read of a registered view, with freshness provenance."""

    name: str
    kind: str
    value: Any
    #: The last committed batch folded into this result (-1 = only the
    #: registration-time hydration has run).
    last_applied_batch: int
    #: How many closed batches the view is behind the coordinator
    #: (0 = fully fresh; the synchronous commit hook keeps it 0).
    lag_batches: int
    #: Simulated time the last batch was folded in.
    as_of_ms: float | None


@dataclass(slots=True)
class ViewUpdate:
    """One pushed maintenance result, as delivered to subscribers."""

    view: str
    batch_id: int
    #: The view's own output delta for this batch (grouped aggregates:
    #: ``{group: value | TOMBSTONE}``; top-k: the replacement rows —
    #: ``[]`` when the view drained).
    delta: Any
    #: The full view value after this batch (views are small by
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


class ViewManager:
    """Registered views over one runtime's committed store."""

    def __init__(self, store: Any, *,
                 clock: Callable[[], float | None] | None = None,
                 head: Callable[[], int] | None = None):
        #: Committed store exposing ``entries(entity)`` — ``(key,
        #: entry)`` pairs read in place (a backend or the partitioned
        #: store).
        self._store = store
        self._clock = clock or (lambda: None)
        #: The coordinator's last closed batch id (freshness anchor);
        #: -1 outside a batching runtime.
        self._head = head or (lambda: -1)
        self._compiler = ViewCompiler()
        self._views: dict[str, CompiledView] = {}
        self._subscribers: dict[str, list[Callable[[ViewUpdate], None]]] = {}
        #: Cold-start recovery context: sidecar plan entries by view
        #: name plus the changelog suffix past the recovered cut (see
        #: :meth:`attach_recovery`); ``None`` outside a cold start.
        self._recovery: dict[str, Any] | None = None
        #: Push transport: called with a zero-arg deliver closure; the
        #: runtime points this at the network substrate so updates fan
        #: out as messages.  ``None`` delivers synchronously.
        self.transport: Callable[[Callable[[], None]], None] | None = None
        #: Test/bench observe hook: called with the batch id after each
        #: commit is folded into every plan (outside the timed region).
        self.probe: Callable[[int], None] | None = None
        #: Maintenance cost ledger (the bench cell's numerator).
        #: ``keys_applied`` counts only keys of entities some plan
        #: actually consumes — writes to view-less entities cost the
        #: maintenance path nothing and must not pad the denominator.
        self.maintenance_ns = 0
        self.commits_applied = 0
        self.keys_applied = 0
        #: O(state) plan rebuilds (store scans) — what the durable
        #: sidecar exists to avoid; 0 across a clean recovery.
        self.rehydrations = 0
        #: Plans resumed from a sidecar cut (recovery or cold start).
        self.sidecar_restores = 0

    # -- registration ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> list[str]:
        return sorted(self._views)

    def register(self, spec: ViewSpec) -> ViewSnapshot:
        """Compile (or share) the plan and hydrate it.

        Registration is the only O(state) moment in a view's life —
        unless a cold-start recovery context is attached
        (:meth:`attach_recovery`) and carries this view's plan state,
        in which case the plan resumes from the sidecar memos plus the
        changelog suffix and never touches the store."""
        if spec.name in self._views:
            raise ViewError(f"view {spec.name!r} is already registered")
        compiled = self._compiler.normalize(spec)
        if not compiled.names or compiled.failure is not None:
            try:
                if not self._resume_from_recovery(spec.name, compiled):
                    self._hydrate(compiled, self._head(), self._clock())
                    if self._recovery is not None:
                        # A cold start had to fall back to scanning for
                        # this plan — the sidecar didn't cover it.
                        self.rehydrations += 1
            except Exception as exc:
                # The caller hears why; a plan nobody registered must
                # not stay behind on the commit path.
                self._fail(compiled, "registration", exc)
                if not compiled.names:
                    self._compiler.forget(compiled)
                raise
        compiled.names.append(spec.name)
        self._views[spec.name] = compiled
        return self.read(spec.name)

    def unregister(self, name: str) -> None:
        compiled = self._views.pop(name, None)
        if compiled is None:
            raise ViewError(f"no registered view {name!r}")
        compiled.names.remove(name)
        self._subscribers.pop(name, None)
        if not compiled.names:
            self._compiler.forget(compiled)

    def _join_scan(self, compiled: CompiledView) -> _Scan | None:
        """The joined entity's scan for hydration, when the plan joins."""
        if compiled.spec.join_entity is None:
            return None
        return _Scan(self._store, compiled.spec.join_entity)

    def _hydrate(self, compiled: CompiledView, last_applied_batch: int,
                 at_ms: float | None) -> None:
        """Rebuild one plan from a store scan and put it (back) in
        service as of *last_applied_batch*."""
        compiled.hydrate(_Scan(self._store, compiled.spec.entity),
                         join_items=self._join_scan(compiled),
                         at_ms=at_ms)
        compiled.last_applied_batch = last_applied_batch
        compiled.applied_at_ms = at_ms
        compiled.failure = None

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
        head = self._head()
        return ViewSnapshot(
            name=name, kind=compiled.spec.kind, value=compiled.value(),
            last_applied_batch=compiled.last_applied_batch,
            lag_batches=max(0, head - compiled.last_applied_batch),
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

    # -- commit-path maintenance ----------------------------------------
    def on_commit(self, batch_id: int, writes: dict, at_ms: float | None,
                  ) -> None:
        """Fold one closed batch's write footprint into every plan.

        *writes* maps ``(entity, key)`` to the absolute post-commit
        state (exactly what the changelog records).  Plans route by
        entity — a join plan consumes both of its entities' footprints
        in one step.  Batches already applied (duplicate delivery) are
        skipped per plan; an empty footprint still advances freshness.
        Plans are isolated from each other and from the caller: one
        that raises is failed (see :meth:`_fail`), nothing propagates
        into the commit."""
        if not self._views:
            return
        per_entity: dict[str, dict] = {}
        for (entity, key), state in writes.items():
            per_entity.setdefault(entity, {})[key] = state
        outputs: list[tuple[CompiledView, Any]] = []
        consumed: set[str] = set()
        started = time.perf_counter_ns()
        for compiled in self._compiler.plans:
            if compiled.failure is not None \
                    or batch_id <= compiled.last_applied_batch:
                continue  # out of service, or a batch already applied
            try:
                out = compiled.apply_batch(per_entity, at_ms=at_ms)
            except Exception as exc:
                self._fail(compiled, f"batch {batch_id}", exc)
                continue
            compiled.last_applied_batch = batch_id
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
            self.probe(batch_id)
        for compiled, out in outputs:
            listened = [name for name in compiled.names
                        if name in self._subscribers]
            if not listened:
                continue
            value = compiled.value()
            for name in listened:
                self._publish(ViewUpdate(view=name, batch_id=batch_id,
                                         delta=out, value=value,
                                         at_ms=at_ms))

    # -- durable-view sidecar -------------------------------------------
    def export_sidecar(self) -> dict[str, Any] | None:
        """The versioned payload riding each snapshot cut: every live
        plan's operator memos plus its registered names and structural
        schema.  Memo containers are copied, rows are shared with the
        cut (the row contract).  A failed plan has no memos worth
        keeping and is left out, so a restore re-hydrates it.  ``None``
        when no views are registered (the common no-views run pays
        zero cut overhead)."""
        plans = []
        for compiled in self._compiler.plans:
            if not compiled.names or compiled.failure is not None:
                continue
            plans.append({
                "names": sorted(compiled.names),
                "schema": compiled.spec.schema_signature(),
                "state": compiled.export_state(),
                "last_applied_batch": compiled.last_applied_batch,
                "applied_at_ms": compiled.applied_at_ms,
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

    def _restore_plan(self, compiled: CompiledView, entry: dict,
                      last_applied_batch: int,
                      at_ms: float | None) -> bool:
        """Restore one plan's memos from a sidecar entry; ``False`` (and
        an untouched-by-garbage plan, courtesy of the reset inside
        ``restore_state``) when the entry's state doesn't fit."""
        try:
            compiled.restore_state(entry["state"])
        except Exception:
            compiled.reset()
            return False
        compiled.last_applied_batch = last_applied_batch
        compiled.applied_at_ms = at_ms
        compiled.failure = None
        return True

    # -- rewind ---------------------------------------------------------
    def on_restore(self, last_closed: int, at_ms: float | None,
                   sidecar: Any = None) -> None:
        """Recovery rewound the committed store (and the changelog) to
        a snapshot: bring every plan back to exactly that state so no
        view reflects an abandoned pipeline batch.  Plans the cut's
        *sidecar* covers restore their memos directly — the sidecar was
        exported at the same batch boundary the store was restored to,
        so memos and store agree without touching it.  Uncovered plans
        rebuild from a store scan.  Replayed batches re-arrive through
        :meth:`on_commit` under new batch ids."""
        entries = self._sidecar_entries(sidecar)
        for compiled in self._compiler.plans:
            entry = self._match_entry(entries, compiled)
            if entry is not None and self._restore_plan(
                    compiled, entry, last_closed, at_ms):
                self.sidecar_restores += 1
                continue
            try:
                self._hydrate(compiled, last_closed, at_ms)
            except Exception as exc:  # recovery must not die of a view
                self._fail(compiled, f"rehydration at batch {last_closed}",
                           exc)
            self.rehydrations += 1

    @staticmethod
    def _match_entry(entries: dict[tuple, dict],
                     compiled: CompiledView) -> dict | None:
        schema = compiled.spec.schema_signature()
        for name in compiled.names:
            entry = entries.get((name, schema))
            if entry is not None:
                return entry
        return None

    # -- cold start -----------------------------------------------------
    def attach_recovery(self, sidecar: Any,
                        suffix: Iterable[Any] | None = None) -> None:
        """Arm cold-start resume: *sidecar* is the recovered cut's
        ``views_state`` payload and *suffix* the changelog records past
        the cut (already rolled into the store the manager reads).
        Every view registered afterwards first tries to resume from its
        sidecar entry — restore memos, then fold the suffix records as
        ordinary per-entity commits at their recorded ``at_ms`` — and
        only scans the store (counting a rehydration) when the sidecar
        doesn't cover it."""
        self._recovery = {
            "entries": self._sidecar_entries(sidecar),
            "suffix": list(suffix or ()),
        }

    def detach_recovery(self) -> None:
        self._recovery = None

    def _resume_from_recovery(self, name: str,
                              compiled: CompiledView) -> bool:
        if self._recovery is None:
            return False
        entry = self._recovery["entries"].get(
            (name, compiled.spec.schema_signature()))
        if entry is None:
            return False
        if not self._restore_plan(compiled, entry,
                                  entry.get("last_applied_batch", -1),
                                  entry.get("applied_at_ms")):
            return False
        for record in self._recovery["suffix"]:
            if record.batch_id <= compiled.last_applied_batch:
                continue  # already inside the cut's memos
            per_entity: dict[str, dict] = {}
            for (entity, key), state in record.writes.items():
                per_entity.setdefault(entity, {})[key] = state
            compiled.apply_batch(per_entity, at_ms=record.at_ms)
            compiled.last_applied_batch = record.batch_id
            compiled.applied_at_ms = record.at_ms
        self.sidecar_restores += 1
        return True
