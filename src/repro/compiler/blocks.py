"""Function blocks: the unit a split method is divided into.

Section 2.4 of the paper splits an imperative method into multiple function
definitions — ``buy_item`` becomes ``buy_item_0``, ``buy_item_1``, ... Each
block here carries its statements (as AST), the variables it reads and
defines (the paper: "each function that was split takes as arguments the
variables it references in its body and returns the variables it defines"),
and exactly one *terminator* describing how control leaves the block:

- :class:`ReturnTerminator` — the method completes with a value;
- :class:`JumpTerminator` — unconditional local transition;
- :class:`BranchTerminator` — conditional transition (if / loop headers);
- :class:`InvokeTerminator` — a remote call to another entity's method; the
  event leaves this operator and the continuation resumes when the callee's
  return value flows back;
- :class:`ConstructTerminator` — remote creation of a new entity instance.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Any, Union

#: Names used to pass terminator payloads out of a block's execution.
RETURN_VALUE_VAR = "__ret__"
CONDITION_VAR = "__cond__"
CALL_ARGS_VAR = "__call_args__"
CALL_TARGET_VAR = "__call_target__"

#: The generated function's position in the state machine (a block index).
NODE_VAR = "__node__"

#: Locals of a method's generated function that never travel in the
#: variable store (payloads, position and the reconstructed instance).
INTERNAL_NAMES = frozenset({
    RETURN_VALUE_VAR, CONDITION_VAR, CALL_ARGS_VAR, CALL_TARGET_VAR,
    NODE_VAR, "self",
})

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(slots=True)
class ReturnTerminator:
    """Block ends the method; the block code assigned ``__ret__``."""

    kind: str = field(default="return", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind}


@dataclass(slots=True)
class JumpTerminator:
    """Unconditional transition to *target* (stays on this operator)."""

    target: str
    kind: str = field(default="jump", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "target": self.target}


@dataclass(slots=True)
class BranchTerminator:
    """Conditional transition; the block code assigned ``__cond__``."""

    true_target: str
    false_target: str
    kind: str = field(default="branch", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "true_target": self.true_target,
                "false_target": self.false_target}


@dataclass(slots=True)
class InvokeTerminator:
    """Remote method call; block code assigned ``__call_target__`` (an
    :class:`~repro.core.refs.EntityRef`) and ``__call_args__`` (a tuple).

    ``continuation`` is the block that resumes once the callee returns;
    ``result_var`` is the caller-local variable bound to the return value
    (``None`` when the result is discarded).
    """

    entity_type: str
    method: str
    receiver: str
    continuation: str
    result_var: str | None = None
    is_self_call: bool = False
    kind: str = field(default="invoke", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "entity_type": self.entity_type,
                "method": self.method, "receiver": self.receiver,
                "continuation": self.continuation,
                "result_var": self.result_var,
                "is_self_call": self.is_self_call}


@dataclass(slots=True)
class ConstructTerminator:
    """Remote entity construction (``item = Item("x", 5)`` inside a
    method); block code assigned ``__call_args__``."""

    entity_type: str
    continuation: str
    result_var: str | None = None
    kind: str = field(default="construct", init=False)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "entity_type": self.entity_type,
                "continuation": self.continuation,
                "result_var": self.result_var}


Terminator = Union[ReturnTerminator, JumpTerminator, BranchTerminator,
                   InvokeTerminator, ConstructTerminator]


def terminator_from_dict(data: dict[str, Any]) -> Terminator:
    """Rebuild a terminator from its :meth:`to_dict` form."""
    kind = data["kind"]
    if kind == "return":
        return ReturnTerminator()
    if kind == "jump":
        return JumpTerminator(target=data["target"])
    if kind == "branch":
        return BranchTerminator(true_target=data["true_target"],
                                false_target=data["false_target"])
    if kind == "invoke":
        return InvokeTerminator(entity_type=data["entity_type"],
                                method=data["method"],
                                receiver=data["receiver"],
                                continuation=data["continuation"],
                                result_var=data.get("result_var"),
                                is_self_call=data.get("is_self_call", False))
    if kind == "construct":
        return ConstructTerminator(entity_type=data["entity_type"],
                                   continuation=data["continuation"],
                                   result_var=data.get("result_var"))
    raise ValueError(f"unknown terminator kind {kind!r}")


@dataclass(slots=True, eq=False)
class FunctionBlock:
    """One split piece of a method (e.g. ``buy_item_0``)."""

    block_id: str
    statements: list[ast.stmt]
    terminator: Terminator | None = None
    reads: frozenset[str] = frozenset()
    writes: frozenset[str] = frozenset()

    def source(self) -> str:
        """Python source of the block's statements (for docs/debugging)."""
        module = ast.Module(body=list(self.statements), type_ignores=[])
        return ast.unparse(module)

    def analyze_dataflow(self) -> None:
        """Populate ``reads``/``writes`` with the block's def/use sets."""
        self.reads, self.writes = def_use(self.statements)

    def to_dict(self) -> dict[str, Any]:
        assert self.terminator is not None
        return {
            "block_id": self.block_id,
            "source": self.source(),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "terminator": self.terminator.to_dict(),
        }


class _DefUseVisitor(ast.NodeVisitor):
    """Computes which names a statement list reads before defining, and
    which it defines, in source order."""

    def __init__(self) -> None:
        self.defined: set[str] = set()
        self.read_first: set[str] = set()

    def _load(self, name: str) -> None:
        if name not in self.defined and name not in _BUILTIN_NAMES:
            self.read_first.add(name)

    def _store(self, name: str) -> None:
        self.defined.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self._load(node.id)
        elif isinstance(node.ctx, (ast.Store, ast.Del)):
            self._store(node.id)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        # x += 1 both reads and writes x.
        self.visit(node.value)
        if isinstance(node.target, ast.Name):
            self._load(node.target.id)
            self._store(node.target.id)
        else:
            self.visit(node.target)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self.visit(target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        self.visit(node.target)
        # The annotation itself is not a runtime read.

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self.visit(node.iter)
        self.visit(node.target)
        for cond in node.ifs:
            self.visit(cond)


def def_use(statements: list[ast.stmt]) -> tuple[frozenset[str], frozenset[str]]:
    """Return ``(reads, writes)`` for a statement list.

    *reads* are names loaded before any local definition (the block's
    inputs); *writes* are names the block defines (its outputs).  ``self``
    is excluded from both: the instance is reconstructed by the runtime.
    """
    visitor = _DefUseVisitor()
    for statement in statements:
        visitor.visit(statement)
    reads = frozenset(visitor.read_first) - {"self"}
    writes = frozenset(visitor.defined) - {"self"}
    return reads, writes
