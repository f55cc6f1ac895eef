"""Standing-query compiler: specs normalized into operator dataflows.

A :class:`ViewSpec` declares a standing query — a filtered
count/sum/avg/min/max, a per-group rollup, a tumbling-window aggregate,
a two-entity foreign-key join feeding any of those, or a bounded top-k —
and the compiler normalizes it into a small chain of stateful update
operators ([delta-join ->] filter/map -> group-aggregate | windowed |
top-k, see :mod:`.operators`).  Normalization is memoized on the spec's
*plan signature* (the dist_zero reactive-expression idiom: normalize an
expression once and reuse the normalized node), so registering two
equivalent specs — same entity, predicate, aggregate and grouping —
yields one shared plan maintained once per commit.

The compiled plan's contract is deliberately tiny:

- ``apply_batch(per_entity, at_ms)`` folds one commit's write footprint
  in, O(changed keys), and returns the plan's own output delta
  (``None`` when the visible result did not change);
- ``value()`` reads the current result without touching entity state;
- ``hydrate(items)`` rebuilds from a full scan — registration and the
  scan-fallback recovery path both go through it, because feeding the
  whole state as one delta from empty *is* the from-scratch recompute
  (absolute states make the two paths identical, which the hypothesis
  battery asserts);
- ``export_state()``/``restore_state()`` round-trip the operators'
  retraction memos through the durable-view sidecar (see
  :meth:`~repro.views.manager.ViewManager.export_sidecar`), so recovery
  and cold starts can resume incrementally from
  ``(plan state, last_applied_batch)`` + the changelog suffix instead
  of rescanning state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .operators import (Delta, DeltaJoin, FilterMap, GroupAggregate, TopK,
                        ViewError, WindowedAggregate)

#: Supported standing-query kinds.
KINDS = ("count", "sum", "avg", "min", "max", "top_k")
#: The kinds GroupAggregate implements (everything but top-k).
AGGREGATE_KINDS = GroupAggregate.KINDS


@dataclass(slots=True)
class ViewSpec:
    """One standing query.

    ``kind`` picks the terminal operator: ``count``/``sum``/``avg``/
    ``min``/``max`` aggregate (optionally per ``group_by`` group,
    optionally filtered by ``where``); ``top_k`` keeps the k
    highest-``field`` rows.  ``group_by`` is a field name or a
    ``row -> group`` callable.

    Setting ``join_entity``/``join_on`` prepends a foreign-key
    delta-join: each row of ``entity`` carries ``join_on`` naming a row
    of ``join_entity``, and the downstream chain sees the merged row —
    primary fields verbatim, joined fields as
    ``{join_entity}__{field}`` (inner-join: primary rows without a
    partner are invisible).  Setting ``window_ms`` makes the aggregate
    tumbling-windowed over commit time: the result maps window start to
    the aggregate over keys whose latest commit landed in that window
    (``window_ms`` *is* the grouping, so ``group_by`` is rejected).
    """

    name: str
    entity: str
    kind: str
    field: str | None = None
    where: Callable[[dict], bool] | None = None
    group_by: str | Callable[[dict], Any] | None = None
    k: int | None = None
    join_entity: str | None = None
    join_on: str | None = None
    window_ms: float | None = None

    def validated(self) -> "ViewSpec":
        if self.kind not in KINDS:
            raise ViewError(f"unknown view kind {self.kind!r}; "
                            f"choose from {KINDS}")
        if self.kind in ("sum", "avg", "min", "max", "top_k") \
                and not self.field:
            raise ViewError(f"view kind {self.kind!r} needs field=")
        if self.kind == "top_k":
            if self.k is None or self.k < 1:
                raise ViewError("top_k views need k >= 1")
            if self.group_by is not None:
                raise ViewError("top_k views do not take group_by= "
                                "(the ranking is already global)")
        if (self.join_entity is None) != (self.join_on is None):
            raise ViewError("join views need both join_entity= and "
                            "join_on= (the foreign-key field)")
        if self.window_ms is not None:
            if self.kind == "top_k":
                raise ViewError("windowed views need an aggregate kind "
                                "(count/sum/avg/min/max), not top_k")
            if self.window_ms <= 0:
                raise ViewError(f"windowed views need window_ms > 0, "
                                f"got {self.window_ms}")
            if self.group_by is not None:
                raise ViewError("windowed views do not take group_by= "
                                "(the window is the group)")
        return self

    def plan_signature(self) -> tuple:
        """Two specs with the same signature share one compiled plan.
        Callables are compared by identity — passing the same predicate
        object means the same filter."""
        where_token = None if self.where is None else id(self.where)
        if self.group_by is None or isinstance(self.group_by, str):
            group_token = self.group_by
        else:
            group_token = id(self.group_by)
        return (self.entity, self.kind, self.field, where_token,
                group_token, self.k, self.join_entity, self.join_on,
                self.window_ms)

    def schema_signature(self) -> tuple:
        """Structural identity for sidecar matching across processes.

        A durable sidecar cut stores per-plan operator state keyed by
        the registered view names plus this signature; callables cannot
        be identity-compared across a restart, so they degrade to
        presence tokens — the view *name* carries the rest of the
        discrimination (re-registering a name with a different
        predicate but identical structure is the operator's caller
        lying to it)."""
        where_token = self.where is not None
        if self.group_by is None or isinstance(self.group_by, str):
            group_token = self.group_by
        else:
            group_token = "<callable>"
        return (self.entity, self.kind, self.field, where_token,
                group_token, self.k, self.join_entity, self.join_on,
                self.window_ms)


def _group_fn(group_by) -> Callable[[dict], Any] | None:
    if group_by is None or callable(group_by):
        return group_by
    name = group_by

    def by_field(row: dict) -> Any:
        if name not in row:
            raise ViewError(f"cannot group by {name!r}: row has no "
                            f"such field")
        return row[name]

    return by_field


def _value_fn(field_name: str | None) -> Callable[[dict], Any] | None:
    if field_name is None:
        return None
    name = field_name

    def value_of(row: dict) -> Any:
        if name not in row:
            raise ViewError(f"view field {name!r} missing from row")
        return row[name]

    return value_of


@dataclass(slots=True)
class CompiledView:
    """A normalized plan: the operator chain plus its read surface."""

    spec: ViewSpec
    plan: tuple
    filter_map: FilterMap
    terminal: Any  # GroupAggregate | WindowedAggregate | TopK
    #: The foreign-key join stage, when the spec declares one.
    join: DeltaJoin | None = None
    #: Freshness: the last committed batch folded in (-1 = none yet)
    #: and the simulated time it was folded at.
    last_applied_batch: int = -1
    applied_at_ms: float | None = None
    #: Names of every registered view sharing this plan.
    names: list[str] = field(default_factory=list)
    #: Out of service: ``(where the fold raised, the exception)``, set
    #: and cleared by the manager (``None`` = maintained).
    failure: tuple[str, Exception] | None = None

    def entities(self) -> tuple[str, ...]:
        """Every entity whose commit footprints this plan consumes."""
        if self.spec.join_entity is not None \
                and self.spec.join_entity != self.spec.entity:
            return (self.spec.entity, self.spec.join_entity)
        return (self.spec.entity,)

    def reset(self) -> None:
        if self.join is not None:
            self.join.reset()
        self.filter_map.reset()
        self.terminal.reset()

    def _run_chain(self, delta: Delta, at_ms: float | None) -> Any:
        filtered = self.filter_map.apply(delta)
        if isinstance(self.terminal, WindowedAggregate):
            out = self.terminal.apply(filtered, at_ms=at_ms)
        else:
            out = self.terminal.apply(filtered)
        # ``None`` means the terminal saw nothing visible move, and an
        # empty *aggregate* delta means no group was touched — but an
        # empty top-k *list* is a real result (the view drained) and
        # must flow to subscribers, so only dict-emptiness is collapsed.
        if out is None or (isinstance(out, dict) and not out):
            return None
        return out

    def apply_batch(self, per_entity: dict[str, Delta],
                    at_ms: float | None = None) -> Any:
        """Fold one commit's footprint (already split per entity) in;
        returns the output delta (grouped/windowed aggregates:
        ``{group: value | TOMBSTONE}``; top-k: the replacement row
        list, which may be empty) or ``None`` when nothing visible
        moved."""
        primary = per_entity.get(self.spec.entity)
        if self.join is not None:
            joined = per_entity.get(self.spec.join_entity)
            if not primary and not joined:
                return None
            delta = self.join.apply(primary or {}, joined or {})
        else:
            if not primary:
                return None
            delta = primary
        return self._run_chain(delta, at_ms)

    def apply(self, delta: Delta, at_ms: float | None = None) -> Any:
        """Single-entity convenience wrapper over :meth:`apply_batch`:
        folds *delta* in as the primary entity's footprint."""
        if not delta:
            return None
        return self.apply_batch({self.spec.entity: delta}, at_ms=at_ms)

    def hydrate(self, items: Iterable[tuple[Any, dict]],
                join_items: Iterable[tuple[Any, dict]] | None = None,
                at_ms: float | None = None) -> None:
        """Rebuild from a full scan: reset and fold the whole state in
        as one delta (identical to recompute-from-scratch).  Joins scan
        both sides; windowed plans collapse all surviving keys into the
        window containing *at_ms* — the scan carries no history, which
        is exactly why windowed plans prefer the sidecar path."""
        self.reset()
        per_entity: dict[str, Delta] = {
            self.spec.entity: {key: row for key, row in items}}
        if self.join is not None:
            per_entity[self.spec.join_entity] = {
                key: row for key, row in (join_items or ())}
        self.apply_batch(per_entity, at_ms=at_ms)

    def value(self) -> Any:
        """The current result, shaped per kind: scalar for ungrouped
        aggregates (``avg``/``min``/``max`` of nothing is ``None``),
        ``{group: value}`` for rollups, ``{window_start: value}`` for
        windowed aggregates, an ordered row list for top-k."""
        if self.spec.kind == "top_k":
            return self.terminal.result()
        groups = self.terminal.result()
        if self.spec.group_by is not None or self.spec.window_ms is not None:
            return groups
        if self.spec.kind in ("count", "sum"):
            return groups.get(None, 0)
        return groups.get(None)  # avg/min/max over no rows

    # -- durable-view sidecar -------------------------------------------
    def export_state(self) -> dict[str, Any]:
        """Picklable image of every stateful operator's memos: the
        containers are copies, the rows in them are shared."""
        state: dict[str, Any] = {"terminal": self.terminal.export_state()}
        if self.join is not None:
            state["join"] = self.join.export_state()
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        self.reset()
        self.terminal.restore_state(state["terminal"])
        if self.join is not None:
            self.join.restore_state(state["join"])


def compile_spec(spec: ViewSpec) -> CompiledView:
    """Normalize one spec into its operator chain (un-memoized)."""
    spec = spec.validated()
    join = (DeltaJoin(on=spec.join_on, prefix=spec.join_entity)
            if spec.join_entity is not None else None)
    filter_map = FilterMap(where=spec.where)
    if spec.kind == "top_k":
        terminal: Any = TopK(spec.k or 1, _value_fn(spec.field))
    elif spec.window_ms is not None:
        terminal = WindowedAggregate(spec.kind, spec.window_ms,
                                     value_of=_value_fn(spec.field))
    else:
        terminal = GroupAggregate(spec.kind,
                                  group_of=_group_fn(spec.group_by),
                                  value_of=_value_fn(spec.field))
    return CompiledView(spec=spec, plan=spec.plan_signature(),
                        filter_map=filter_map, terminal=terminal,
                        join=join)


class ViewCompiler:
    """Memoizing normalizer: equivalent specs share one compiled plan."""

    def __init__(self) -> None:
        self._plans: dict[tuple, CompiledView] = {}

    def normalize(self, spec: ViewSpec) -> CompiledView:
        signature = spec.validated().plan_signature()
        compiled = self._plans.get(signature)
        if compiled is None:
            compiled = compile_spec(spec)
            self._plans[signature] = compiled
        return compiled

    def forget(self, compiled: CompiledView) -> None:
        """Drop a plan once its last registered view is gone."""
        self._plans.pop(compiled.plan, None)

    @property
    def plans(self) -> list[CompiledView]:
        return list(self._plans.values())


def recompute(spec: ViewSpec, items: Iterable[tuple[Any, dict]],
              join_items: Iterable[tuple[Any, dict]] | None = None,
              at_ms: float | None = None) -> Any:
    """The full-scan oracle: evaluate *spec* from scratch over *items*
    (``(key, row)`` pairs; *join_items* supplies the joined entity for
    FK-join specs).  Tests, the bench cell and the CI gates compare
    every incremental view against this."""
    compiled = compile_spec(spec)
    compiled.hydrate(items, join_items=join_items, at_ms=at_ms)
    return compiled.value()
