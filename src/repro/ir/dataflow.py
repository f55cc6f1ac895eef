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
from functools import lru_cache
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
    partition stores the entities whose key hashes to it.
    """

    name: str
    descriptor: EntityDescriptor
    machines: dict[str, StateMachine] = field(default_factory=dict)
    parallelism: int = 1

    def machine(self, method: str) -> StateMachine:
        return self.machines[method]

    def method_names(self) -> list[str]:
        return list(self.machines)

    def partition_of(self, key: Any, parallelism: int | None = None) -> int:
        """Deterministic partition for *key* (the keyBy of Figure 2)."""
        count = parallelism if parallelism is not None else self.parallelism
        return stable_hash(key) % max(count, 1)

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
    stable so snapshots/replays land on the same partitions.
    """
    if isinstance(key, int):
        return key & 0x7FFFFFFF
    return _fnv1a(str(key))


@lru_cache(maxsize=1 << 16)
def _fnv1a(text: str) -> int:
    """31-bit FNV-1a of *text*.  Memoised: a byte loop in Python costs
    more than the routing decision it feeds, and one transaction hashes
    the same few ``"entity|key"`` strings at every hop.  Pure, so the
    cache changes no value; bounded, so a key space larger than the
    cache only costs the loop again."""
    value = 2166136261
    for byte in text.encode():
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value & 0x7FFFFFFF


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
                tag = " [split]" if machine.is_split else ""
                txn = (" [transactional]"
                       if operator.descriptor.methods[method].is_transactional
                       else "")
                lines.append(f"    {method}: {len(machine.nodes)} block(s)"
                             f"{tag}{txn}")
        for edge in self.edges:
            label = f"  ({edge.label})" if edge.label else ""
            lines.append(f"  {edge.source} -> {edge.target}{label}")
        return "\n".join(lines)
