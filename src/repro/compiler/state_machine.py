"""The per-method state machine ("execution graph", paper Section 2.5).

"For every split function, we maintain an execution graph that tracks the
execution stage of a given stateful entity's function invocation. [...] the
process of deriving the state machine consists of unrolling the control
flow graph of the program."

The :class:`StateMachine` is the serializable, AST-free view of a
:class:`~repro.compiler.splitting.SplitResult`: nodes are function blocks,
arcs are the terminators' targets.  It travels inside the IR; the
method's compiled function (from :mod:`~repro.compiler.codegen`) walks it
inside one operator, and the runtime follows the arcs that leave one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from ..core.errors import CompilationError
from .blocks import (
    BranchTerminator,
    ConstructTerminator,
    InvokeTerminator,
    JumpTerminator,
    ReturnTerminator,
    Terminator,
    terminator_from_dict,
)
from .splitting import SplitResult


@dataclass(slots=True)
class StateNode:
    """One state of the machine: a function block's interface."""

    node_id: str
    terminator: Terminator
    reads: frozenset[str]
    writes: frozenset[str]
    source: str = ""

    def successors(self) -> list[str]:
        terminator = self.terminator
        if isinstance(terminator, ReturnTerminator):
            return []
        if isinstance(terminator, JumpTerminator):
            return [terminator.target]
        if isinstance(terminator, BranchTerminator):
            return [terminator.true_target, terminator.false_target]
        if isinstance(terminator, (InvokeTerminator, ConstructTerminator)):
            return [terminator.continuation]
        raise CompilationError(f"unknown terminator {terminator!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "node_id": self.node_id,
            "terminator": self.terminator.to_dict(),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StateNode":
        return cls(
            node_id=data["node_id"],
            terminator=terminator_from_dict(data["terminator"]),
            reads=frozenset(data["reads"]),
            writes=frozenset(data["writes"]),
            source=data.get("source", ""),
        )


@dataclass(slots=True)
class StateMachine:
    """Execution graph of one (possibly split) method."""

    entity: str
    method: str
    entry: str
    nodes: dict[str, StateNode] = field(default_factory=dict)

    @classmethod
    def from_split(cls, result: SplitResult) -> "StateMachine":
        machine = cls(entity=result.entity_name, method=result.method_name,
                      entry=result.entry)
        for block_id, block in result.blocks.items():
            assert block.terminator is not None
            machine.nodes[block_id] = StateNode(
                node_id=block_id,
                terminator=block.terminator,
                reads=block.reads,
                writes=block.writes,
                source=block.source(),
            )
        machine.validate()
        return machine

    # ------------------------------------------------------------------
    def node(self, node_id: str) -> StateNode:
        return self.nodes[node_id]

    def __iter__(self) -> Iterator[StateNode]:
        return iter(self.nodes.values())

    @property
    def is_split(self) -> bool:
        return len(self.nodes) > 1

    def remote_transitions(self) -> list[StateNode]:
        """Nodes whose terminator leaves this operator (remote calls)."""
        return [node for node in self
                if isinstance(node.terminator,
                              (InvokeTerminator, ConstructTerminator))]

    def terminal_nodes(self) -> list[StateNode]:
        return [node for node in self
                if isinstance(node.terminator, ReturnTerminator)]

    def validate(self) -> None:
        """Structural sanity: entry exists, every arc lands on a node,
        every node is reachable, every path can reach a return."""
        if self.entry not in self.nodes:
            raise CompilationError(
                f"entry node {self.entry!r} missing from state machine",
                entity=self.entity, method=self.method)
        for node in self:
            for successor in node.successors():
                if successor not in self.nodes:
                    raise CompilationError(
                        f"dangling transition {node.node_id} -> {successor}",
                        entity=self.entity, method=self.method)
        reachable: set[str] = set()
        stack = [self.entry]
        while stack:
            node_id = stack.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            stack.extend(self.nodes[node_id].successors())
        unreachable = set(self.nodes) - reachable
        if unreachable:
            raise CompilationError(
                f"unreachable state-machine nodes {sorted(unreachable)}",
                entity=self.entity, method=self.method)
        if not self.terminal_nodes():
            raise CompilationError(
                "state machine has no return node (infinite loop?)",
                entity=self.entity, method=self.method)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "entity": self.entity,
            "method": self.method,
            "entry": self.entry,
            "nodes": {nid: node.to_dict() for nid, node in self.nodes.items()},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StateMachine":
        machine = cls(entity=data["entity"], method=data["method"],
                      entry=data["entry"])
        machine.nodes = {nid: StateNode.from_dict(nd)
                         for nid, nd in data["nodes"].items()}
        return machine
