"""The intermediate representation: a stateful dataflow graph.

"Our intermediate representation is a stateful dataflow graph enriched with
a number of aspects.  After the static analysis, each dataflow operator is
enriched with the entity/method names that it can run, their input/return
types, as well as their method body.  After splitting functions, we also
need to build what we term a state machine." (Section 2.5)

One :class:`Operator` per entity class; :class:`DataflowEdge` records which
operators exchange events (derived from the call graph); the special
``__ingress__``/``__egress__`` vertices model the routers of Figure 2.  The
IR is engine-independent: :mod:`repro.runtimes` lowers it onto the Local,
StateFun-style, and StateFlow runtimes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..compiler.state_machine import StateMachine
from ..core.descriptors import EntityDescriptor
from ..core.errors import UnknownEntityError

INGRESS = "__ingress__"
EGRESS = "__egress__"


@dataclass(slots=True)
class Operator:
    """A dataflow vertex holding the code and state of one entity class.

    Partitioned across the cluster by the entity's key (Figure 2); each
    partition stores the entities whose :func:`route_hash` maps to it.
    """

    name: str
    descriptor: EntityDescriptor
    machines: dict[str, StateMachine] = field(default_factory=dict)
    parallelism: int = 1

    def machine(self, method: str) -> StateMachine:
        return self.machines[method]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "descriptor": self.descriptor.to_dict(),
            "machines": {m: sm.to_dict() for m, sm in self.machines.items()},
            "parallelism": self.parallelism,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Operator":
        return cls(
            name=data["name"],
            descriptor=EntityDescriptor.from_dict(data["descriptor"]),
            machines={m: StateMachine.from_dict(sm)
                      for m, sm in data["machines"].items()},
            parallelism=data.get("parallelism", 1),
        )


def stable_hash(key: Any) -> int:
    """Deterministic, process-independent hash for routing keys.

    Python's builtin ``hash`` of str is salted per process; routing must be
    stable so snapshots/replays land on the same partitions.  An int
    hashes to itself (its low 31 bits), anything else to the FNV-1a of
    its ``str``.
    """
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    return _fnv1a(str(key))


def _fnv1a(text: str) -> int:
    """31-bit FNV-1a of *text*.  Not memoised: :func:`route_hash`
    remembers the routing hashes, the only ones computed per event."""
    value = 2166136261
    for byte in text.encode():
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value & 0x7FFFFFFF


#: Most keys :func:`route_hash` remembers; the memo is emptied when full,
#: so a key space larger than this only costs the byte loop again.
ROUTE_MEMO_BOUND = 1 << 16
#: ``{entity: {key: route hash}}``, exact ``str``/``int`` keys only.
_ROUTES: dict[str, dict[str | int, int]] = {}
_routes_held = 0


def route_hash(entity: str, key: Any) -> int:
    """The hash every keyed lookup routes by (the keyBy of Figure 2):
    ``stable_hash(f"{entity}|{key}")``, where a ``bool`` key or a whole
    ``float`` key is formatted as its ``int`` first — ``True``, ``1``
    and ``1.0`` are one dict key, so they route the same way.  A state
    slot is this modulo the slot count, and a Kafka record keyed by it
    lands on this modulo the partition count.

    Remembered per entity for keys of exact type ``str`` or ``int``
    (those mapped to an int included), whose dict equality agrees with
    their formatting; tuple, other float and subclass keys are hashed
    on every call.
    """
    kind = type(key)
    if kind is not str and kind is not int:
        if kind is bool or (kind is float and key.is_integer()):
            key = int(key)
        else:
            return _fnv1a(f"{entity}|{key}")
    memo = _ROUTES.get(entity)
    if memo is not None:
        value = memo.get(key)
        if value is not None:
            return value
    global _routes_held
    if _routes_held >= ROUTE_MEMO_BOUND:
        _ROUTES.clear()
        _routes_held = 0
        memo = None
    if memo is None:
        memo = _ROUTES[entity] = {}
    value = memo[key] = _fnv1a(f"{entity}|{key}")
    _routes_held += 1
    return value


@dataclass(frozen=True, slots=True)
class DataflowEdge:
    """Directed event channel between two vertices."""

    source: str
    target: str
    #: Human-readable reason, e.g. "User.buy_item -> Item.update_stock".
    label: str = ""

    def to_dict(self) -> dict[str, str]:
        return {"source": self.source, "target": self.target,
                "label": self.label}

    @classmethod
    def from_dict(cls, data: dict[str, str]) -> "DataflowEdge":
        return cls(source=data["source"], target=data["target"],
                   label=data.get("label", ""))


@dataclass(slots=True)
class StatefulDataflow:
    """The complete IR for one application."""

    operators: dict[str, Operator] = field(default_factory=dict)
    edges: list[DataflowEdge] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add_operator(self, operator: Operator) -> None:
        self.operators[operator.name] = operator

    def operator(self, name: str) -> Operator:
        try:
            return self.operators[name]
        except KeyError:
            raise UnknownEntityError(
                f"dataflow has no operator for entity {name!r}; "
                f"known: {sorted(self.operators)}") from None

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators.values())

    def __contains__(self, name: str) -> bool:
        return name in self.operators

    def add_edge(self, source: str, target: str, label: str = "") -> None:
        edge = DataflowEdge(source=source, target=target, label=label)
        if edge not in self.edges:
            self.edges.append(edge)

    def successors(self, vertex: str) -> list[str]:
        return [e.target for e in self.edges if e.source == vertex]

    def has_cycles(self) -> bool:
        """True when operators call each other in a loop (allowed in the
        IR; the StateFun lowering breaks such cycles via Kafka)."""
        adjacency: dict[str, list[str]] = {}
        for edge in self.edges:
            if edge.source in self.operators and edge.target in self.operators:
                adjacency.setdefault(edge.source, []).append(edge.target)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self.operators}

        def visit(node: str) -> bool:
            color[node] = GREY
            for nxt in adjacency.get(node, ()):
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE and visit(nxt):
                    return True
            color[node] = BLACK
            return False

        return any(visit(n) for n in self.operators if color[n] == WHITE)

    def transactional_methods(self) -> list[tuple[str, str]]:
        result = []
        for operator in self:
            for method in operator.descriptor.methods.values():
                if method.is_transactional:
                    result.append((operator.name, method.name))
        return result

    def split_method_count(self) -> int:
        return sum(1 for op in self for sm in op.machines.values()
                   if sm.is_split)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "operators": {n: op.to_dict() for n, op in self.operators.items()},
            "edges": [e.to_dict() for e in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StatefulDataflow":
        dataflow = cls()
        for name, op_data in data["operators"].items():
            dataflow.operators[name] = Operator.from_dict(op_data)
        dataflow.edges = [DataflowEdge.from_dict(e) for e in data["edges"]]
        return dataflow

    def describe(self) -> str:
        """Readable summary (used by the compiler-explorer example)."""
        lines = ["StatefulDataflow:"]
        for operator in self:
            lines.append(f"  operator {operator.name} "
                         f"(parallelism={operator.parallelism})")
            for method, machine in operator.machines.items():
                descriptor = operator.descriptor.methods[method]
                tag = " [split]" if machine.is_split else ""
                txn = " [transactional]" if descriptor.is_transactional else ""
                reads = (" [read-only]" if machine.read_only
                         and not descriptor.is_constructor else "")
                free = sorted(machine.state_free_nodes())
                stateless = (f" [state-free: {', '.join(free)}]"
                             if free else "")
                lines.append(f"    {method}: {len(machine.nodes)} block(s)"
                             f"{tag}{txn}{reads}{stateless}")
        for edge in self.edges:
            label = f"  ({edge.label})" if edge.label else ""
            lines.append(f"  {edge.source} -> {edge.target}{label}")
        return "\n".join(lines)
