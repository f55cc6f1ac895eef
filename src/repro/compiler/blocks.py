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

#: Builtins that reach the running frame, and with it the instance,
#: without naming ``self``.
_FRAME_BUILTINS = frozenset({"super", "locals", "vars", "eval", "exec",
                            "breakpoint"})

#: Builtins that reach the instance or a frame without naming ``self``
#: as a loaded attribute: a block naming one may write.
_WRITE_BUILTINS = _FRAME_BUILTINS | {"globals", "setattr", "delattr",
                                     "getattr"}

#: Builtins that return a fresh scalar and mutate nothing: an attribute
#: value passed straight to one is consumed, not kept.
SCALAR_BUILTINS = frozenset({"len", "abs", "bool", "int", "float", "str",
                             "repr", "round"})

#: Block locals whose assignment is a terminator payload: ``__ret__`` is
#: a ``return``, ``__cond__`` a branch test.
_CONSUMING_TARGETS = frozenset({RETURN_VALUE_VAR, CONDITION_VAR})


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

    def uses_self(self) -> bool:
        """Whether running this block can reach the entity instance: it
        names ``self`` anywhere (nested lambdas and comprehensions
        included), names a builtin that reaches the frame without naming
        ``self``, or ends in a self-call."""
        terminator = self.terminator
        if isinstance(terminator, InvokeTerminator) and terminator.is_self_call:
            return True
        return any(isinstance(node, ast.Name)
                   and (node.id == "self" or node.id in _FRAME_BUILTINS)
                   for statement in self.statements
                   for node in ast.walk(statement))

    def may_write(self) -> bool:
        """Whether running this block may change the entity's state.

        Conservative: ``False`` only when the block ends in no self-call,
        names none of the builtins that reach the instance or the frame
        (``getattr``, ``vars``, ``eval``, ...), and every ``self`` in it
        is a loaded ``self.<name>``, optionally subscripted as a load,
        whose value is consumed at once: returned, compared, an operand
        of an arithmetic, boolean or unary operator, an ``if``/``while``
        or conditional-expression test, an f-string field, or an
        argument of a scalar builtin (:data:`SCALAR_BUILTINS`).  Any
        other use — a store, ``del``, ``self.x.y``, binding the value to
        a name, putting it in a container, passing it to any other
        call, bare ``self`` — may write.  The instance is a private copy
        of the entry, so a block that only consumes attribute values
        leaves nothing a flush would publish."""
        terminator = self.terminator
        if isinstance(terminator, InvokeTerminator) and terminator.is_self_call:
            return True
        for statement in self.statements:
            parents = {child: node for node in ast.walk(statement)
                       for child in ast.iter_child_nodes(node)}
            for node in parents:
                if isinstance(node, ast.Name) and (
                        node.id in _WRITE_BUILTINS
                        or node.id == "self"
                        and not _attribute_consumed(node, parents)):
                    return True
        return False

    def to_dict(self) -> dict[str, Any]:
        assert self.terminator is not None
        return {
            "block_id": self.block_id,
            "source": self.source(),
            "reads": sorted(self.reads),
            "writes": sorted(self.writes),
            "terminator": self.terminator.to_dict(),
        }


def _attribute_consumed(name: ast.Name, parents: dict[ast.AST, ast.AST],
                        ) -> bool:
    """Whether the ``self`` at *name* is a loaded ``self.<name>`` whose
    value is consumed at once (the rule of
    :meth:`FunctionBlock.may_write`); *parents* maps each node of the
    statement to its parent."""
    value = parents.get(name)
    if not (isinstance(value, ast.Attribute)
            and isinstance(value.ctx, ast.Load)
            and not value.attr.startswith("__")):
        return False
    consumer = parents.get(value)
    while (isinstance(consumer, ast.Subscript) and consumer.value is value
           and isinstance(consumer.ctx, ast.Load)):
        value, consumer = consumer, parents.get(consumer)
    # ``and``/``or`` and the branches of a conditional expression hand
    # the value itself on: what consumes it is further up.
    while (isinstance(consumer, ast.BoolOp)
           or isinstance(consumer, ast.IfExp) and consumer.test is not value):
        value, consumer = consumer, parents.get(consumer)
    if isinstance(consumer, (ast.Return, ast.Compare, ast.BinOp,
                             ast.UnaryOp)):
        return True
    if isinstance(consumer, (ast.If, ast.While, ast.IfExp)):
        return consumer.test is value
    if isinstance(consumer, ast.FormattedValue):
        return consumer.value is value
    if isinstance(consumer, ast.Assign):
        targets = consumer.targets
        return (len(targets) == 1 and isinstance(targets[0], ast.Name)
                and targets[0].id in _CONSUMING_TARGETS)
    if isinstance(consumer, ast.Call):
        return (isinstance(consumer.func, ast.Name)
                and consumer.func.id in SCALAR_BUILTINS
                and any(arg is value for arg in consumer.args))
    return False


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
