"""Reference block interpreter: one ``exec`` per function block.

This is how split methods ran before each one was compiled into a single
resumable function — every block wrapped in its own ``__block__``
function, run in a fresh copy of the module globals seeded with the
travelling store, the terminator followed from outside.  It lives in the
tests only, as the slow, obviously block-at-a-time twin that
``CompiledMethod.run`` is compared against (``test_differential.py``).

One deliberate difference survives: written names are declared
``global`` here, so a variable that is unbound on the taken path reads a
module global of the same name instead of raising.  That is the bug the
compiled function fixed; ``test_equivalence.py`` pins the right answer.
"""

from __future__ import annotations

import ast
import copy

from repro.compiler.blocks import (
    BranchTerminator,
    InvokeTerminator,
    JumpTerminator,
    ReturnTerminator,
)

_HIDDEN = {"__ret__", "__cond__", "__call_args__", "__call_target__",
           "self", "__builtins__", "__block__", "__outcome__"}


class _BlockRewriter(ast.NodeTransformer):
    """``return X`` -> ``return (True, X)``; annotated names become plain
    assignments (an annotated name cannot be declared ``global``)."""

    def visit_Return(self, node):
        value = node.value or ast.Constant(None)
        return ast.Return(ast.Tuple([ast.Constant(True), value], ast.Load()))

    def visit_AnnAssign(self, node):
        self.generic_visit(node)
        if not isinstance(node.target, ast.Name):
            return node
        if node.value is None:
            return ast.Pass()
        return ast.Assign([ast.Name(node.target.id, ast.Store())], node.value)


def _exec_block(block, module_globals, instance, store):
    tree = ast.parse("def __block__():\n    pass\n__outcome__ = __block__()")
    written = sorted(name for name in block.writes if name.isidentifier())
    tree.body[0].body = [
        *([ast.Global(written)] if written else []),
        *(_BlockRewriter().visit(copy.deepcopy(s)) for s in block.statements),
        ast.Return(ast.Tuple([ast.Constant(False), ast.Constant(None)],
                             ast.Load()))]
    namespace = {**module_globals, **store, "self": instance}
    exec(compile(ast.fix_missing_locations(tree), "<reference>", "exec"),
         namespace)
    kept = {name: namespace[name] for name in set(store) | block.writes
            if name not in _HIDDEN and name in namespace}
    return namespace, kept


def reference_run(split, module_globals, instance, node_id, store):
    """Same contract as ``CompiledMethod.run``: run blocks from *node_id*
    until control leaves the operator; ``(kind, node, value, target,
    store)``.  User exceptions propagate unwrapped."""
    while True:
        block = split.blocks[node_id]
        namespace, store = _exec_block(block, module_globals, instance, store)
        early, value = namespace["__outcome__"]
        terminator = block.terminator
        if early:
            return "return", node_id, value, None, store
        if isinstance(terminator, JumpTerminator):
            node_id = terminator.target
        elif isinstance(terminator, BranchTerminator):
            node_id = (terminator.true_target if namespace["__cond__"]
                       else terminator.false_target)
        elif isinstance(terminator, ReturnTerminator):
            return "return", node_id, namespace["__ret__"], None, store
        else:
            target = None
            if (isinstance(terminator, InvokeTerminator)
                    and not terminator.is_self_call):
                target = namespace["__call_target__"]
            return (terminator.kind, node_id, namespace["__call_args__"],
                    target, store)
