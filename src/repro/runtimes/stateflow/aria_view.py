"""StateFlow's transactional view over the committed store.

The committed store — the authoritative, snapshot-able operator state
(what Chandy–Lamport-style snapshots persist) — is a
:class:`~repro.runtimes.state.PartitionedStore`, each worker reading
and writing its own slice.  :class:`AriaStateView` is the
per-transaction view used during Aria's execution phase: reads come
from the batch-start snapshot (the committed store, since batch writes
only apply at commit) plus the transaction's own buffered writes;
writes/creates are buffered in the travelling
:class:`~repro.ir.events.TxnContext`.
"""

from __future__ import annotations

from typing import Any

from ...core.errors import EntityAlreadyExistsError
from ...ir.events import TxnContext
from ..state import StateBackend


class AriaStateView:
    """A transaction's window onto the store during the execution phase.

    Reads: own buffered writes first, then the committed (batch-start)
    state.  Writes: buffered into the transaction context, never touching
    the committed store.  Every access is recorded for conflict detection.
    """

    def __init__(self, committed: StateBackend, txn: TxnContext):
        self._committed = committed
        self._txn = txn

    def get(self, entity: str, key: Any) -> dict[str, Any] | None:
        self._txn.record_read(entity, key)
        buffered = self._txn.write_set.get((entity, key))
        if buffered is not None:
            return dict(buffered)
        return self._committed.get(entity, key)

    def put(self, entity: str, key: Any, state: dict[str, Any]) -> None:
        self._txn.record_write(entity, key, dict(state))

    def create(self, entity: str, key: Any, state: dict[str, Any]) -> None:
        # The duplicate-key check is a read of the key's existence:
        # record it so conflict detection (including the pipelined
        # cross-batch stale check) sees creates that raced a writer.
        self._txn.record_read(entity, key)
        if (self._committed.get(entity, key) is not None
                or (entity, key) in self._txn.write_set):
            raise EntityAlreadyExistsError(
                f"entity {entity}/{key!r} already exists")
        self._txn.record_create(entity, key, dict(state))
