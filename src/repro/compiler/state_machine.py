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

Each continuation (where a remote call or construction resumes) carries
``state_free``: no block that can run from it before control leaves the
operator again uses ``self`` (:meth:`FunctionBlock.uses_self
<repro.compiler.blocks.FunctionBlock.uses_self>`), so the runtime
resumes it without reading or writing the entity.

Every node carries ``may_write`` (:meth:`FunctionBlock.may_write
<repro.compiler.blocks.FunctionBlock.may_write>`); a method none of
whose nodes may write is *read-only* (:attr:`StateMachine.read_only`),
and the runtime reads its entity but never writes it back.
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
    #: A continuation no block of which, up to where control leaves the
    #: operator, uses ``self``: resuming here needs no entity state.
    state_free: bool = False
    #: Running this block may change the entity's state.
    may_write: bool = True

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
            "state_free": self.state_free,
            "may_write": self.may_write,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StateNode":
        # An IR without a bit reads as "uses self" and "may write":
        # never unsound.
        return cls(
            node_id=data["node_id"],
            terminator=terminator_from_dict(data["terminator"]),
            reads=frozenset(data["reads"]),
            writes=frozenset(data["writes"]),
            source=data.get("source", ""),
            state_free=data.get("state_free", False),
            may_write=data.get("may_write", True),
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
                may_write=block.may_write(),
            )
        machine.validate()
        uses_self = {block_id: block.uses_self()
                     for block_id, block in result.blocks.items()}
        for node in machine.remote_transitions():
            continuation = machine.nodes[node.terminator.continuation]
            continuation.state_free = not any(
                uses_self[block_id]
                for block_id in machine.visit_from(continuation.node_id))
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

    def visit_from(self, node_id: str) -> set[str]:
        """Blocks that can run from *node_id* before control leaves the
        operator: jumps and branches are followed; a remote call, a
        construction or a return ends the visit."""
        reached: set[str] = set()
        stack = [node_id]
        while stack:
            current = stack.pop()
            if current in reached:
                continue
            reached.add(current)
            node = self.nodes[current]
            if isinstance(node.terminator, (JumpTerminator, BranchTerminator)):
                stack.extend(node.successors())
        return reached

    @property
    def read_only(self) -> bool:
        """No block of the method may write the entity's state."""
        return not any(node.may_write for node in self)

    def state_free_nodes(self) -> frozenset[str]:
        """Continuations a RESUME runs without the entity's state."""
        return frozenset(node.node_id for node in self if node.state_free)

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
