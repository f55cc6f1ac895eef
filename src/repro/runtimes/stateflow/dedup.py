"""Exactly-once dedup state in O(in-flight): a request-id watermark.

The coordinator's ingress dedup (``admitted``), its egress dedup
(``replied``) and the client's delivery dedup (``_delivered``) each
remember every request id they have seen, and every cut carries the
first two.  Request ids are handed out ``1, 2, 3, ...`` and almost all
of them arrive at a dedup set in order, so a set of every id ever seen
is a prefix ``1..low-1`` plus the few ids past its first gap.
:class:`IdSet` stores exactly that: the watermark ``low`` and a plain
``set`` of the ids it does not cover (ids past a gap, and ``0`` or
negative ids).  The same idea as a Kafka idempotent producer's sequence
numbers, which dedup without a set of every sequence seen.

It is exact: for any sequence of :meth:`IdSet.add` calls, membership,
``len``, iteration (in another order) and comparison against a plain
``set`` give what the plain set would.  A run whose every request gets
its answer keeps ``sparse`` at the ids in flight, so copying the set
into a cut costs O(in-flight), not O(requests served).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Set
from itertools import chain
from typing import Any


class IdSet(Set):
    """An exact set of request ids: every id in ``1..low-1`` plus the
    ids in ``sparse``.

    ``low`` is the smallest positive id not in the set, so the
    representation is canonical: two equal sets have equal ``low`` and
    ``sparse``.  Its pickle lists ``sparse`` sorted, so the bytes of a
    cut depend only on the ids it holds, not on the order they came in.
    """

    __slots__ = ("low", "sparse")

    def __init__(self, ids: Iterable[int] = ()) -> None:
        if isinstance(ids, IdSet):
            self.low: int = ids.low
            self.sparse: set[int] = set(ids.sparse)
            return
        self.low = 1
        self.sparse = set()
        for request_id in ids:
            self.add(request_id)

    def add(self, request_id: int) -> bool:
        """Add *request_id*; ``True`` when it was not in the set yet, so
        a dedup check and its add are one call."""
        low = self.low
        if request_id == low:
            sparse = self.sparse
            low += 1
            while low in sparse:
                sparse.remove(low)
                low += 1
            self.low = low
            return True
        if 0 < request_id < low:
            return False
        sparse = self.sparse
        if request_id in sparse:
            return False
        sparse.add(request_id)
        return True

    def copy(self) -> IdSet:
        return IdSet(self)

    def __contains__(self, request_id: Any) -> bool:
        return 0 < request_id < self.low or request_id in self.sparse

    def __len__(self) -> int:
        return self.low - 1 + len(self.sparse)

    def __iter__(self) -> Iterator[int]:
        return chain(range(1, self.low), self.sparse)

    def __reduce__(self) -> tuple:
        return IdSet, (), (self.low, sorted(self.sparse))

    def __setstate__(self, state: tuple[int, list[int]]) -> None:
        self.low, sparse = state
        self.sparse = set(sparse)

    def __repr__(self) -> str:
        return f"IdSet(low={self.low}, sparse={sorted(self.sparse)})"
