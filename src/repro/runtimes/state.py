"""Partitionable operator state.

Every runtime (Local, StateFun-style, StateFlow) stores committed
operator state behind the same :class:`StateBackend` contract, and one
class implements it:

- :class:`DictStateBackend` — a plain hash map (the paper's "local
  HashMap data structure") with pinned overlays; a snapshot is a
  pointer copy of the map, O(keys) references and no entry copied;
- :class:`PartitionedStore` — shards state into *slots* (a fixed
  number of hash ranges: ``route_hash(entity, key) % slots``), one
  :class:`DictStateBackend` each, and maps slots to workers through a
  :class:`SlotAssignment`, so each StateFlow worker truly owns a set of
  slots: commit-phase writes touch only the owning worker's slots and
  snapshots assemble from per-slot fragments.

**The entry contract.**  A committed entry, once installed, is never
mutated: a write swaps the whole entry for a new one.  ``put`` (and so
``create``/``apply_writes``) and ``restore`` copy in, ``get`` (on the
store and on every read view) and :func:`materialize_snapshot` copy
out, and everything in between — snapshot payloads, pinned views'
pre-images, ``apply_flat_writes`` results, what
``PartitionedStore.entry`` (one key) and ``entries`` (one entity's
rows, on the store and on a backend) return — may alias the live
entries.  Whoever holds such an entry reads it and never writes to it;
whoever wants to mutate goes through one of the copy-out calls.
Whole-store readers read in place: view hydration and the query
engine's live scan walk ``entries``, and only the query engine copies —
once per row it may return.

The store keeps no record of what changed since a cut: the commit
changelog (:mod:`repro.runtimes.stateflow.snapshots`) is the one record
of committed writes, and ``apply_flat_writes`` replays a folded write
set over a snapshot payload.

The backend additionally supports *version-pinned read views*
(``pin_view``/``view``/``release_view``): a read-only window onto the
store's contents exactly as they were at pin time, immune to later
writes.  The pipelined epoch coordinator pins one view per committed
batch boundary so a batch's execution phase can overlap the previous
batch's commit phase: workers read through the pinned view while the
older batch's writes land in the live store.  A pin is one empty
*pre-image overlay* (:class:`ReadView`), a write records the entry it
replaces into every active overlay that does not hold the key yet, and
a view answers overlay first, live store second — O(1) to pin and to
release, O(active views) per write, O(1) per read.  A
:class:`PartitionedStore` keeps **one overlay per pinned version for
the whole store**: every slot backend records into the store's views,
so pinning or releasing a batch boundary touches no slot, however many
there are, and a slot backend swapped by ``install_slot`` is covered by
the pins that predate it.

The slot indirection is what makes the cluster *elastic*: rescaling
n -> m workers rebalances whole slots (minimal movement — a key only
moves when its slot does) and migrating a slot is a snapshot/restore of
one slot backend: the capture is a pointer copy, the install copies in.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Iterator, Protocol, runtime_checkable

from ..core.refs import EntityRef
from ..ir.dataflow import route_hash

Key = tuple[str, Any]
State = dict[str, Any]
#: slot -> (old owner, new owner): the migration schedule of one rescale.
RescaleDelta = dict[int, tuple[int, int]]


class _Tombstone:
    """Retraction marker inside view deltas (a key that no longer
    contributes).  Identity-compared (``state is TOMBSTONE``), so copies
    must preserve identity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        # Pickling must preserve identity across process boundaries:
        # whatever ships a tombstone is identity-compared on the
        # receiving side (``state is TOMBSTONE``), and ``_Tombstone()``
        # always returns the one instance.
        return (_Tombstone, ())

    def __repr__(self):  # pragma: no cover - debugging aid
        return "<deleted>"


#: The one tombstone instance (retractions inside view deltas).
TOMBSTONE = _Tombstone()


#: Immutable scalars a copy may share, checked by exact type (subclasses
#: may carry mutable extras, so ``type(v) in`` — not ``isinstance``).
_SCALAR_TYPES = (str, int, float, bool, bytes, type(None))


def _flat_scalar(value: Any) -> bool:
    """True for values a shallow copy isolates fully: exact scalars and
    tuples of them (tuples are immutable, so sharing one is safe)."""
    if type(value) in _SCALAR_TYPES:
        return True
    return (type(value) is tuple
            and all(type(item) in _SCALAR_TYPES for item in value))


class _NotStructural(Exception):
    """The value leaves the shapes :func:`_copy_tree` handles."""


def _copy_tree(value: Any, seen: set[int]) -> Any:
    """Copy an exact ``dict``/``list``/``tuple``/``set`` tree whose
    leaves are scalars, :data:`TOMBSTONE` or :class:`EntityRef`.

    Raises :class:`_NotStructural` for anything else and for a mutable
    container reached a second time (shared or cyclic): *seen* holds the
    ids of the mutable containers already copied, and only
    ``copy.deepcopy``'s memo reproduces aliasing.  Tuples need no entry:
    one that is reached twice and holds a mutable container reaches that
    container twice.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES or value is TOMBSTONE:
        return value
    if kind is EntityRef:
        # Frozen; sharing it is what a copy would equal as long as its
        # key is immutable too.
        if _flat_scalar(value.key):
            return value
        raise _NotStructural
    if kind is tuple:
        copied = [_copy_tree(item, seen) for item in value]
        # deepcopy's rule: an all-immutable tuple is returned itself.
        if all(new is old for new, old in zip(copied, value)):
            return value
        return tuple(copied)
    if kind is not dict and kind is not list and kind is not set:
        raise _NotStructural
    if id(value) in seen:
        raise _NotStructural
    seen.add(id(value))
    if kind is dict:
        return {(key if type(key) in _SCALAR_TYPES
                 else _copy_tree(key, seen)):
                (item if type(item) in _SCALAR_TYPES
                 else _copy_tree(item, seen))
                for key, item in value.items()}
    if kind is list:
        return [item if type(item) in _SCALAR_TYPES
                else _copy_tree(item, seen) for item in value]
    return {_copy_tree(item, seen) for item in value}


def fast_deepcopy(value: Any) -> Any:
    """``copy.deepcopy`` for committed entity state, without its
    machinery for the shapes that state takes: immutable scalars pass
    through, a flat ``dict`` of scalars (or tuples of scalars) is
    isolated by a plain ``dict()`` copy, and nested state is copied
    structurally by :func:`_copy_tree` (frozen ``EntityRef`` leaves are
    shared instead of rebuilt through ``__reduce_ex__``).  Subclasses,
    unknown types and values with internal aliasing fall back to
    ``copy.deepcopy``, so the result is always what deepcopy would
    give."""
    if type(value) is dict:
        for item in value.values():
            if not _flat_scalar(item):
                break
        else:
            return dict(value)
    elif _flat_scalar(value) or value is TOMBSTONE:
        return value
    try:
        return _copy_tree(value, set())
    except _NotStructural:
        return copy.deepcopy(value)


def apply_flat_writes(payload: Any, writes: dict[Key, State]) -> Any:
    """Apply a flat ``{key: post-state}`` write set (changelog records
    folded into one) over a snapshot payload: the result shares entries
    with both.  Idempotent: records carry absolute states."""
    if not writes:
        return payload
    if isinstance(payload, PartitionedSnapshot):
        slots = len(payload.parts)
        buckets: dict[int, dict[Key, State]] = {}
        for (entity, key), state in writes.items():
            index = route_hash(entity, key) % slots
            buckets.setdefault(index, {})[(entity, key)] = state
        return PartitionedSnapshot(parts=tuple(
            apply_flat_writes(part, buckets[index])
            if index in buckets else part
            for index, part in enumerate(payload.parts)))
    merged = dict(payload)
    merged.update(writes)
    return merged


def payload_keys(payload: Any) -> int:
    """Cheap entry count of a snapshot payload (recovery cost
    modelling — no values are serialized)."""
    if payload is None:
        return 0
    if isinstance(payload, PartitionedSnapshot):
        return sum(len(part) for part in payload.parts)
    return len(payload)


def payload_footprint(payload: Any) -> tuple[int, int]:
    """``(keys, bytes)`` a payload would cost to persist durably —
    the metric the recovery bench gates on.  Bytes are estimated from
    ``repr`` of every entry, which is deterministic across runs of the
    same seed (no object addresses in committed state)."""
    if payload is None:
        return (0, 0)
    parts = (payload.parts if isinstance(payload, PartitionedSnapshot)
             else (payload,))
    keys = total = 0
    for part in parts:
        keys += len(part)
        total += sum(len(repr(key)) + len(repr(state))
                     for key, state in part.items())
    return (keys, total)


@runtime_checkable
class StateBackend(Protocol):
    """Contract for committed operator state.

    Extends the executor's read/write ``StateAccess`` surface with the
    bulk-commit and fault-tolerance operations the StateFlow coordinator
    drives: ``apply_writes`` installs a committed batch's write sets,
    ``snapshot``/``restore`` implement batch-boundary consistent
    snapshots, ``keys`` enumerates resident entities and ``entries``
    scans one entity's committed entries in place.
    """

    def get(self, entity: str, key: Any) -> State | None: ...

    def put(self, entity: str, key: Any, state: State) -> None: ...

    def create(self, entity: str, key: Any, state: State) -> None: ...

    def exists(self, entity: str, key: Any) -> bool: ...

    def apply_writes(self, writes: dict[Key, State]) -> None: ...

    def snapshot(self) -> Any: ...

    def restore(self, snapshot: Any) -> None: ...

    def keys(self) -> list[Key]: ...

    def entries(self, entity: str) -> Iterator[tuple[Any, State]]: ...

    def __len__(self) -> int: ...

    def pin_view(self, version: int) -> None: ...

    def view(self, version: int) -> Any: ...

    def release_view(self, version: int) -> None: ...


class ReadView:
    """A version-pinned read view: the pinned contents of ``live`` (a
    backend, or a whole :class:`PartitionedStore`).

    Whoever writes to ``live`` records a key's *pre-image* into
    ``overlay`` the first time the key is written after the pin
    (``None`` marks a key that was absent), so the view always answers
    with the pinned contents: overlay first, live store for untouched
    keys.  Cheap by construction — nothing is copied until
    (and unless) a pinned key is actually overwritten, and then only a
    reference to the replaced entry is kept.
    """

    __slots__ = ("_live", "overlay")

    def __init__(self, live: Any):
        self._live = live
        self.overlay: dict[Key, State | None] = {}

    def get(self, entity: str, key: Any) -> State | None:
        composite = (entity, key)
        if composite in self.overlay:
            state = self.overlay[composite]
            return fast_deepcopy(state) if state is not None else None
        return self._live.get(entity, key)

    def exists(self, entity: str, key: Any) -> bool:
        composite = (entity, key)
        if composite in self.overlay:
            return self.overlay[composite] is not None
        return self._live.exists(entity, key)


def _record_pre_image(views: "dict[int, ReadView]", composite: Key,
                      previous: State | None) -> None:
    """*composite* is about to be overwritten: keep the entry
    it held (``None`` = absent) in every active view that has not seen
    the key written yet.  The entry is leaving the live store, and
    entries are only ever swapped whole, so aliasing it is safe."""
    for view in views.values():
        view.overlay.setdefault(composite, previous)


class DictStateBackend:
    """Plain in-memory state: one dict, pointer-copy snapshots.

    This is the Local and StateFun runtimes' HashMap and every slot of
    StateFlow's :class:`PartitionedStore`.  ``put``/``get`` copy
    entries in and out — O(entry) on the hot path — so no caller can
    mutate committed state through an alias (:meth:`entries` is the
    read-only scan).  Because an installed entry is only ever swapped
    whole (the module's entry contract), a snapshot shares the entries
    it captures: a cut costs one reference per key, and later
    writes replace entries in the live map without touching the
    payload.
    """

    def __init__(self, store: dict[Key, State] | None = None):
        self.store: dict[Key, State] = store if store is not None else {}
        #: Active version-pinned read views.  A :class:`PartitionedStore`
        #: points every slot backend's mapping at its own, so a slot's
        #: writes land in the store-wide overlays.
        self._views: dict[int, ReadView] = {}

    # -- StateAccess protocol -------------------------------------------
    def get(self, entity: str, key: Any) -> State | None:
        state = self.store.get((entity, key))
        return fast_deepcopy(state) if state is not None else None

    def put(self, entity: str, key: Any, state: State) -> None:
        composite = (entity, key)
        if self._views:
            _record_pre_image(self._views, composite,
                              self.store.get(composite))
        self.store[composite] = fast_deepcopy(state)

    def create(self, entity: str, key: Any, state: State) -> None:
        self.put(entity, key, state)

    def exists(self, entity: str, key: Any) -> bool:
        return (entity, key) in self.store

    # -- commit / snapshot support --------------------------------------
    def apply_writes(self, writes: dict[Key, State]) -> None:
        """Install a committed transaction's buffered writes."""
        for (entity, key), state in writes.items():
            self.put(entity, key, state)

    def snapshot(self) -> dict[Key, State]:
        """The snapshot payload: a new map sharing the committed entries
        (read-only for the holder — see the module's entry contract)."""
        return dict(self.store)

    def restore(self, snapshot: dict[Key, State]) -> None:
        self.store = {key: fast_deepcopy(state)
                      for key, state in snapshot.items()}
        # A restore is a rewind: any pinned view predates it and is dead.
        self._views.clear()

    # -- version-pinned read views --------------------------------------
    def pin_view(self, version: int) -> None:
        """Pin the current contents as read-only *version*."""
        if version not in self._views:
            self._views[version] = ReadView(self)

    def view(self, version: int) -> ReadView | None:
        return self._views.get(version)

    def release_view(self, version: int) -> None:
        self._views.pop(version, None)

    def keys(self) -> list[Key]:
        return list(self.store)

    def entries(self, entity: str) -> Iterator[tuple[Any, State]]:
        """``(key, entry)`` for every row of *entity*: the committed
        entries themselves (the module's entry contract)."""
        for (name, key), state in self.store.items():
            if name == entity:
                yield key, state

    def __len__(self) -> int:
        return len(self.store)


@dataclass(slots=True, frozen=True)
class PartitionedSnapshot:
    """Per-slot snapshot fragments, index-aligned with the
    :class:`PartitionedStore` that produced them.  Fragments are keyed
    by slot, not by worker, so a snapshot taken under one worker count
    restores cleanly under any other — the property that lets recovery
    and elastic rescaling compose."""

    parts: tuple[Any, ...]

    @property
    def partition_count(self) -> int:
        return len(self.parts)


class SlotAssignment:
    """The routing table: which worker owns which hash slot.

    ``slots`` is fixed for the lifetime of the store; ``owners[slot]``
    is the owning worker index and changes only through
    :meth:`plan`/:meth:`apply` (one rescale = one new routing epoch).
    The default layout deals slots round-robin, so initial loads differ
    by at most one slot.

    :meth:`plan` computes a *minimal-movement* rebalance: only slots
    that must change hands (their owner is being removed, or it is above
    its new quota) are reassigned, so rescaling n -> n+1 workers moves
    at most ``ceil(slots / (n+1))`` slots and every unmoved slot keeps
    its owner.
    """

    def __init__(self, workers: int, slots: int | None = None):
        if workers < 1:
            raise ValueError("SlotAssignment needs at least one worker")
        slots = workers if slots is None else slots
        if slots < workers:
            raise ValueError(
                f"{workers} workers need at least as many slots, got {slots}")
        self.slots = slots
        self.workers = workers
        self.owners: list[int] = [slot % workers for slot in range(slots)]
        #: Routing epoch: bumped by every :meth:`apply` (and restore), so
        #: consumers can fence messages routed under an older table.
        self.epoch = 0

    # -- routing --------------------------------------------------------
    def slot_of(self, entity: str, key: Any) -> int:
        return route_hash(entity, key) % self.slots

    def worker_of(self, entity: str, key: Any) -> int:
        return self.owners[self.slot_of(entity, key)]

    def slots_of(self, worker: int) -> list[int]:
        return [slot for slot, owner in enumerate(self.owners)
                if owner == worker]

    def loads(self) -> list[int]:
        """Slots owned per worker (index-aligned with worker indices)."""
        counts = [0] * self.workers
        for owner in self.owners:
            counts[owner] += 1
        return counts

    # -- rescaling ------------------------------------------------------
    def _quota(self, workers: int) -> list[int]:
        base, extra = divmod(self.slots, workers)
        return [base + 1 if index < extra else base
                for index in range(workers)]

    def plan(self, new_workers: int) -> RescaleDelta:
        """The minimal-movement migration schedule for ``new_workers``.

        Slots are surrendered in index order: first every slot whose
        owner is being removed, then slots from owners above their new
        quota; they are granted to under-quota workers in worker order.
        Fully deterministic — same assignment, same plan.
        """
        if new_workers < 1:
            raise ValueError("cannot rescale below one worker")
        if new_workers > self.slots:
            raise ValueError(
                f"cannot rescale to {new_workers} workers with only "
                f"{self.slots} slots")
        quota = self._quota(new_workers)
        load = [0] * max(self.workers, new_workers)
        for owner in self.owners:
            load[owner] += 1
        surrendered: list[int] = []
        for slot, owner in enumerate(self.owners):
            if owner >= new_workers:
                surrendered.append(slot)
                load[owner] -= 1
        for slot, owner in enumerate(self.owners):
            if owner < new_workers and load[owner] > quota[owner]:
                surrendered.append(slot)
                load[owner] -= 1
        delta: RescaleDelta = {}
        grants = iter(surrendered)
        for worker in range(new_workers):
            while load[worker] < quota[worker]:
                slot = next(grants)
                delta[slot] = (self.owners[slot], worker)
                load[worker] += 1
        return dict(sorted(delta.items()))

    def apply(self, new_workers: int, delta: RescaleDelta) -> None:
        """Commit a planned rescale: flip the moved slots' owners and
        open a new routing epoch."""
        for slot, (_, new_owner) in delta.items():
            self.owners[slot] = new_owner
        self.workers = new_workers
        self.epoch += 1

    # -- snapshot support ------------------------------------------------
    def freeze(self) -> tuple[int, tuple[int, ...]]:
        """Immutable form for inclusion in a consistent snapshot."""
        return (self.workers, tuple(self.owners))

    def restore(self, frozen: tuple[int, tuple[int, ...]]) -> None:
        workers, owners = frozen
        if len(owners) != self.slots:
            raise ValueError(
                f"frozen assignment has {len(owners)} slots, table has "
                f"{self.slots}")
        self.workers = workers
        self.owners = list(owners)
        self.epoch += 1


class WorkerSlice:
    """One worker's live view of a :class:`PartitionedStore`: the slots
    the assignment currently maps to it.

    The slice implements the ``StateAccess`` surface the worker's
    executor and commit path need.  Ownership is consulted per access,
    so after a rescale the same slice object automatically covers the
    worker's new slots.  Writes route by *slot* (not ownership), so a
    commit-phase delivery delayed across a rescale still lands in the
    right slot backend.
    """

    def __init__(self, store: "PartitionedStore", index: int):
        self._store = store
        self.index = index

    def _owned(self, entity: str, key: Any) -> bool:
        return self._store.assignment.worker_of(entity, key) == self.index

    # -- StateAccess protocol -------------------------------------------
    def get(self, entity: str, key: Any) -> State | None:
        return self._store.get(entity, key, owner=self.index)

    def put(self, entity: str, key: Any, state: State) -> None:
        self._store.put(entity, key, state)

    def create(self, entity: str, key: Any, state: State) -> None:
        self._store.create(entity, key, state)

    def exists(self, entity: str, key: Any) -> bool:
        return self._owned(entity, key) and self._store.exists(entity, key)

    def apply_writes(self, writes: dict[Key, State]) -> None:
        self._store.apply_writes(writes)

    # -- migration hand-off ---------------------------------------------
    def capture_slot(self, slot: int) -> Any:
        return self._store.snapshot_slot(slot)

    def install_slot(self, slot: int, fragment: Any) -> None:
        self._store.install_slot(slot, fragment)

    def slot_backend(self, slot: int) -> Any:
        return self._store.slot_backend(slot)

    # -- aggregation -----------------------------------------------------
    def owned_slots(self) -> list[int]:
        return self._store.assignment.slots_of(self.index)

    def keys(self) -> list[Key]:
        return [key for slot in self.owned_slots()
                for key in self._store.slot_backend(slot).keys()]

    def __len__(self) -> int:
        return sum(len(self._store.slot_backend(slot))
                   for slot in self.owned_slots())


class PartitionedReadView(ReadView):
    """The :class:`ReadView` of a whole :class:`PartitionedStore`: one
    overlay for all slots, the store itself as the live side (which
    routes untouched keys to their slot under the live assignment —
    safe because the pipelined coordinator drains all views before a
    rescale can change the table).  A class of its own only so that a
    store-level read is told apart from a slot backend's by name."""

    __slots__ = ()


class PartitionedStore:
    """Committed state sharded into hash slots owned by workers.

    Routing is two-step: ``route_hash(entity, key) % slots`` picks the
    slot, the :class:`SlotAssignment` maps the slot to its owning
    worker — the same table the StateFlow runtime uses to pick the
    worker executing a key, so execution placement and state ownership
    always agree.  With the default ``slots == workers`` the layout
    degenerates to the classic one-partition-per-worker scheme.

    Snapshots are assembled from per-slot fragments (each slot backend
    snapshots independently) and ``restore`` fans the fragments back
    out.  Rescaling reuses exactly that machinery per moved slot:
    ``snapshot_slot`` at the old owner, ``install_slot`` at the new one.
    """

    def __init__(self, workers: int, *, slots: int | None = None):
        if workers < 1:
            raise ValueError("PartitionedStore needs at least one partition")
        self.assignment = SlotAssignment(workers, slots=slots)
        #: Active version-pinned read views: one store-wide pre-image
        #: overlay per pinned version, which every slot backend records
        #: into (see :meth:`_new_slot`).
        self._views: dict[int, PartitionedReadView] = {}
        self._slots: list[DictStateBackend] = [
            self._new_slot() for _ in range(self.assignment.slots)]

    def _new_slot(self, payload: Any = None) -> DictStateBackend:
        """A slot backend (restored from *payload*, if given) whose
        writes record pre-images into the store's own views.  The
        restore comes first: it drops the views of the backend it
        rewinds, and the store's pins must outlive a slot install."""
        backend = DictStateBackend()
        if payload is not None:
            backend.restore(payload)
        backend._views = self._views
        return backend

    # -- partition topology ---------------------------------------------
    @property
    def partition_count(self) -> int:
        return self.assignment.workers

    @property
    def slot_count(self) -> int:
        return self.assignment.slots

    def partition_of(self, entity: str, key: Any) -> int:
        """The worker owning *key* under the current assignment."""
        return self.assignment.worker_of(entity, key)

    def slot_of(self, entity: str, key: Any) -> int:
        return self.assignment.slot_of(entity, key)

    def partition(self, index: int) -> WorkerSlice:
        """Worker *index*'s live slice of the store."""
        return WorkerSlice(self, index)

    def partitions(self) -> Iterator[WorkerSlice]:
        return (self.partition(index)
                for index in range(self.assignment.workers))

    # -- StateAccess protocol (routes to the owning slot) ----------------
    def _backend(self, entity: str, key: Any) -> DictStateBackend:
        return self._slots[self.assignment.slot_of(entity, key)]

    def get(self, entity: str, key: Any,
            *, owner: int | None = None) -> State | None:
        """The committed entry (a copy).  With *owner*, answer as that
        worker's :class:`WorkerSlice` does — ``None`` for a key whose
        slot another worker owns — on the one routing of the key."""
        slot = self.assignment.slot_of(entity, key)
        if owner is not None and self.assignment.owners[slot] != owner:
            return None
        return self._slots[slot].get(entity, key)

    def entry(self, entity: str, key: Any) -> State | None:
        """The committed entry itself, not a copy: the caller only reads
        it (the module's entry contract), as a snapshot's holder does."""
        return self._backend(entity, key).store.get((entity, key))

    def put(self, entity: str, key: Any, state: State) -> None:
        self._backend(entity, key).put(entity, key, state)

    def create(self, entity: str, key: Any, state: State) -> None:
        self._backend(entity, key).create(entity, key, state)

    def exists(self, entity: str, key: Any) -> bool:
        return self._backend(entity, key).exists(entity, key)

    def apply_writes(self, writes: dict[Key, State]) -> None:
        """Route a write set to its owning slots (callers that already
        bucket per worker use ``partition(i).apply_writes``)."""
        buckets: dict[int, dict[Key, State]] = {}
        for (entity, key), state in writes.items():
            index = self.assignment.slot_of(entity, key)
            buckets.setdefault(index, {})[(entity, key)] = state
        for index, bucket in buckets.items():
            self._slots[index].apply_writes(bucket)

    # -- version-pinned read views --------------------------------------
    def pin_view(self, version: int) -> None:
        """Pin the whole store's current contents as read-only
        *version*: one empty overlay, no slot touched."""
        if version not in self._views:
            self._views[version] = PartitionedReadView(self)

    def view(self, version: int) -> PartitionedReadView | None:
        return self._views.get(version)

    def release_view(self, version: int) -> None:
        self._views.pop(version, None)

    # -- snapshot assembly ----------------------------------------------
    def snapshot(self) -> PartitionedSnapshot:
        return PartitionedSnapshot(
            parts=tuple(backend.snapshot() for backend in self._slots))

    def restore(self, snapshot: PartitionedSnapshot) -> None:
        if snapshot.partition_count != len(self._slots):
            raise ValueError(
                f"snapshot has {snapshot.partition_count} partition "
                f"fragments, store has {len(self._slots)} partitions")
        for backend, part in zip(self._slots, snapshot.parts):
            backend.restore(part)
        self._views.clear()

    # -- slot migration ---------------------------------------------------
    def slot_backend(self, slot: int) -> DictStateBackend:
        return self._slots[slot]

    def slot_size(self, slot: int) -> int:
        return len(self._slots[slot])

    def snapshot_slot(self, slot: int) -> Any:
        """Capture one slot for migration (a pointer copy)."""
        return self._slots[slot].snapshot()

    def install_slot(self, slot: int, fragment: Any) -> None:
        """Install a migrated slot: a fresh backend restored from the
        fragment replaces the slot's previous backend.  Idempotent for
        a fragment captured under the rescale barrier (slot contents
        cannot change between capture and install), so an aborted
        migration can simply be retried.

        Pinned views survive the swap, but record nothing for it: an
        install under a pin is defined only for a fragment whose
        contents equal the slot's (which is what the rescale barrier
        guarantees); any other fragment would show through every
        pinned view as if it had been there at the pin."""
        self._slots[slot] = self._new_slot(fragment)

    # -- rescaling --------------------------------------------------------
    def plan_rescale(self, new_workers: int) -> RescaleDelta:
        return self.assignment.plan(new_workers)

    def commit_rescale(self, new_workers: int, delta: RescaleDelta) -> None:
        self.assignment.apply(new_workers, delta)

    def rescale(self, new_workers: int) -> RescaleDelta:
        """Synchronous rescale (tests, single-process callers): migrate
        every moved slot through the snapshot machinery, then commit.
        The distributed runtime drives the same three steps through
        coordinator/worker messages instead."""
        delta = self.plan_rescale(new_workers)
        for slot in delta:
            self.install_slot(slot, self.snapshot_slot(slot))
        self.commit_rescale(new_workers, delta)
        return delta

    def split(self) -> RescaleDelta:
        """Grow by one worker (hash-range split)."""
        return self.rescale(self.assignment.workers + 1)

    def merge(self) -> RescaleDelta:
        """Shrink by one worker, merging its ranges into the survivors."""
        return self.rescale(self.assignment.workers - 1)

    # -- assignment snapshot ----------------------------------------------
    def freeze_assignment(self) -> tuple[int, tuple[int, ...]]:
        return self.assignment.freeze()

    def restore_assignment(self, frozen: tuple[int, tuple[int, ...]]) -> None:
        self.assignment.restore(frozen)

    # -- aggregation -----------------------------------------------------
    def keys(self) -> list[Key]:
        """All resident keys, grouped by slot (not insertion order);
        order-sensitive consumers must sort."""
        return [key for backend in self._slots for key in backend.keys()]

    def entries(self, entity: str) -> Iterator[tuple[Any, State]]:
        """Every row of *entity*, slot by slot, in place: no key routed,
        no entry copied (the module's entry contract)."""
        for backend in self._slots:
            yield from backend.entries(entity)

    def __len__(self) -> int:
        return sum(len(backend) for backend in self._slots)


def materialize_snapshot(payload: Any,
                         entity: str | None = None) -> dict[Key, State]:
    """Flatten a snapshot payload into one ``{(entity, key): state}``
    mapping (query engine, inspection).

    Handles a backend's plain mapping and the partitioned store's
    per-slot fragments.  States are copies: consumers (e.g. query
    predicates) must not be able to corrupt the stored recovery snapshot
    through the result.  Pass *entity* to copy only that entity's rows
    instead of the whole store.
    """
    if isinstance(payload, PartitionedSnapshot):
        merged: dict[Key, State] = {}
        for part in payload.parts:
            merged.update(materialize_snapshot(part, entity))
        return merged
    return {key: fast_deepcopy(state) for key, state in payload.items()
            if entity is None or key[0] == entity}

