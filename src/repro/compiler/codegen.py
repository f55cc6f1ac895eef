"""Code generation: compile each split method into one resumable function.

Section 2.4: "each function that was split takes as arguments the
variables it references in its body and returns the variables it
defines".  All blocks of one method become a single Python function,
compiled once in :func:`compile_entity`::

    def __run__(self, __node__, amount=__unset__, item=__unset__, ...):
        if amount is __unset__:             # prologue: a variable the
            del amount                      # caller has no value for is
        ...                                 # unbound, not a sentinel
        while True:
            if __node__ == 0:
                <statements of block 0>
                return ('invoke', 0, __call_args__, __call_target__,
                        __locals__())
            if __node__ == 1:
                <statements of block 1>
                __node__ = 2 if __cond__ else 3
            ...

The parameters are the method's *frame variables* — everything that is a
local of the function, so Python's own scope rules apply to split code.
A jump or branch assigns ``__node__`` and falls through to a later block
or loops round to an earlier one, which keeps the variables fast locals
for as long as control stays on this operator.  A return (a block's
terminator, or an early ``return`` inside local control flow), a remote
call or a construction leaves with ``(kind, node, value, target,
locals())``; :meth:`CompiledMethod.run` makes that one call per operator
visit and hands the variables back as the travelling store.

The function's ``__globals__`` is one per-entity snapshot of the entity
module's dict (helpers and imports keep working inside split code) plus
the two names the generated code needs: ``__unset__`` and ``__locals__``,
an alias of :func:`locals` that user code cannot shadow.

The compiled artefacts are deliberately separate from the serializable
:class:`~repro.compiler.state_machine.StateMachine`: the IR ships source
and graphs; each target runtime re-materialises functions locally.
"""

from __future__ import annotations

import ast
import copy
import sys
from dataclasses import dataclass, field
from types import FunctionType
from typing import Any

from ..core.descriptors import EntityDescriptor, MethodDescriptor
from ..core.errors import CompilationError, InvocationError
from .blocks import (
    CALL_ARGS_VAR,
    CALL_TARGET_VAR,
    CONDITION_VAR,
    INTERNAL_NAMES,
    NODE_VAR,
    RETURN_VALUE_VAR,
    SCALAR_BUILTINS,
    BranchTerminator,
    ConstructTerminator,
    FunctionBlock,
    InvokeTerminator,
    JumpTerminator,
    ReturnTerminator,
)
from .splitting import SplitResult
from .state_machine import StateMachine

_UNSET = object()


def _exit(kind: str, index: int, value: str, target: str = "None") -> str:
    """Source of the statement that leaves the generated function."""
    return (f"return ({kind!r}, {index}, {value}, {target}, "
            f"__locals__())")


class _ReturnRewriter(ast.NodeTransformer):
    """Rewrites a ``return X`` nested in a block's local control flow
    into the function's return exit for that block."""

    def __init__(self, index: int) -> None:
        self._index = index

    def visit_Return(self, node: ast.Return) -> ast.Return:
        leave = ast.parse(_exit("return", self._index, "None")).body[0]
        if node.value is not None:
            leave.value.elts[2] = node.value
        return ast.copy_location(leave, node)


def _block_branch(block: FunctionBlock, index_of: dict[str, int]) -> ast.If:
    """``if __node__ == <index>:`` over the statements of *block*
    followed by its terminator."""
    index = index_of[block.block_id]
    body = []
    for statement in block.statements:
        if any(isinstance(node, ast.Return) for node in ast.walk(statement)):
            # Copy first: the block's canonical AST (which tests and the
            # IR's ``source`` field rely on) is never mutated.
            statement = _ReturnRewriter(index).visit(copy.deepcopy(statement))
        body.append(statement)
    terminator = block.terminator
    if isinstance(terminator, JumpTerminator):
        leave = f"{NODE_VAR} = {index_of[terminator.target]}"
    elif isinstance(terminator, BranchTerminator):
        leave = (f"{NODE_VAR} = {index_of[terminator.true_target]} "
                 f"if {CONDITION_VAR} else {index_of[terminator.false_target]}")
    elif isinstance(terminator, ReturnTerminator):
        leave = _exit(terminator.kind, index, RETURN_VALUE_VAR)
    elif isinstance(terminator, InvokeTerminator):
        leave = _exit(terminator.kind, index, CALL_ARGS_VAR,
                      "None" if terminator.is_self_call else CALL_TARGET_VAR)
    elif isinstance(terminator, ConstructTerminator):
        leave = _exit(terminator.kind, index, CALL_ARGS_VAR)
    else:  # pragma: no cover - compiler bug guard
        raise CompilationError(f"unknown terminator {terminator!r}")
    branch = ast.parse(f"if {NODE_VAR} == {index}:\n    {leave}").body[0]
    branch.body[:0] = body
    return ast.fix_missing_locations(branch)


def _function_tree(branches: list[ast.If],
                   variables: tuple[str, ...]) -> ast.Module:
    """``def __run__(self, __node__, <variables>)`` over block *branches*.

    The blocks are consecutive ``if`` statements, so a forward jump falls
    through to its target and only a backward one goes round the loop.
    """
    params = "".join(f", {name}=__unset__" for name in variables)
    prologue = "".join(f"    if {name} is __unset__:\n        del {name}\n"
                       for name in variables)
    tree = ast.parse(f"def __run__(self, {NODE_VAR}{params}):\n{prologue}"
                     f"    while True:\n        pass")
    tree.body[0].body[-1].body = branches
    return tree


def _define(tree: ast.Module, filename: str,
            namespace: dict[str, Any]) -> FunctionType:
    """Compile *tree* and define its ``__run__`` with *namespace* as the
    function's ``__globals__``."""
    scope: dict[str, Any] = {}
    exec(compile(tree, filename, "exec"),  # noqa: S102 - this *is* the compiler
         namespace, scope)
    return scope["__run__"]


@dataclass(slots=True, eq=False)
class CompiledMethod:
    """One method compiled to its resumable function, plus its state
    machine."""

    descriptor: MethodDescriptor
    machine: StateMachine
    #: Parameter names, bound once (``descriptor.param_names`` rebuilds a
    #: list on every access).
    params: tuple[str, ...]
    #: Block ids in ``__node__`` order; ``Frame.node`` stays the string.
    block_ids: tuple[str, ...]
    function: FunctionType
    #: The generated ``def __run__`` (for docs and debugging).
    tree: ast.Module
    #: Continuations a RESUME runs on a blank instance, reading and
    #: writing no state (the machine's ``state_free`` nodes).
    state_free: frozenset[str]
    #: No visit of the method writes the entity: the runtime reads it
    #: and never writes it back.  Never true of a constructor.
    read_only: bool = False

    @property
    def entry(self) -> str:
        return self.machine.entry

    def source(self) -> str:
        """Python source of the generated function."""
        return ast.unparse(self.tree)

    def initial_store(self, args: tuple | list) -> dict[str, Any]:
        """Bind positional call arguments to parameter names."""
        params = self.params
        if len(args) != len(params):
            raise InvocationError(
                f"{self.machine.entity}.{self.machine.method} expects "
                f"{len(params)} argument(s) {list(params)}, got {len(args)}")
        return dict(zip(params, args))

    def run(self, instance: Any, node_id: str, store: dict[str, Any],
            ) -> tuple[str, str, Any, Any, dict[str, Any]]:
        """Run from block *node_id* until control leaves this operator.

        Returns ``(kind, node, value, target, store)``: *kind* is the
        ``kind`` of the terminator control left through — ``"return"``
        (*value* is the method's result; also an early ``return``),
        ``"invoke"`` (*value* the call's arguments, *target* its receiver
        unless a self-call) or ``"construct"`` (*value* the constructor
        arguments); *node* is the block it left from and *store* the
        frame variables bound at that point.
        """
        try:
            index = self.block_ids.index(node_id)
        except ValueError:
            raise InvocationError(
                f"{self.machine.entity}.{self.machine.method} has no "
                f"block {node_id!r}") from None
        try:
            kind, index, value, target, store = self.function(
                instance, index, **store)
        except InvocationError:
            raise
        except Exception as exc:
            raise InvocationError(
                f"error while executing {self.machine.entity}."
                f"{self._failed_block(exc, node_id)}: {exc!r}",
                cause=repr(exc)) from exc
        for name in INTERNAL_NAMES:
            store.pop(name, None)
        return kind, self.block_ids[index], value, target, store

    def _failed_block(self, exc: Exception, entered: str) -> str:
        """Id of the block that raised: the function's ``__node__`` at
        the time, read off the traceback."""
        traceback = exc.__traceback__
        while traceback is not None:
            if traceback.tb_frame.f_code is self.function.__code__:
                return self.block_ids[traceback.tb_frame.f_locals[NODE_VAR]]
            traceback = traceback.tb_next
        return entered  # the call itself failed; no block ran


def compile_method(descriptor: MethodDescriptor, split: SplitResult,
                   machine: StateMachine,
                   namespace: dict[str, Any]) -> CompiledMethod:
    """Generate and compile the resumable function of one split method;
    *namespace* becomes its ``__globals__``."""
    block_ids = tuple(split.blocks)
    index_of = {block_id: index for index, block_id in enumerate(block_ids)}
    branches = [_block_branch(block, index_of)
                for block in split.blocks.values()]
    params = tuple(descriptor.param_names)
    # Result variables are only ever bound through the store, so the code
    # alone would take them for globals.
    result_vars = [name for block in split.blocks.values()
                   if (name := getattr(block.terminator, "result_var",
                                       None)) is not None]
    filename = f"<stateflow:{split.entity_name}.{split.method_name}>"
    try:
        # Python decides what else is local: define the function once
        # without frame variables and read its locals off the code object.
        probe = _define(_function_tree(branches, ()), filename,
                        namespace).__code__
        variables = tuple(
            name for name in dict.fromkeys(
                (*params, *result_vars, *probe.co_varnames,
                 *probe.co_cellvars))
            if name not in INTERNAL_NAMES)
        tree = _function_tree(branches, variables)
        function = _define(tree, filename, namespace)
    except SyntaxError as exc:  # pragma: no cover - compiler bug guard
        raise CompilationError(
            f"generated function failed to compile: {exc}",
            entity=split.entity_name, method=split.method_name) from exc
    # The may-write rule trusts the scalar builtins by name: a frame
    # variable or module global that shadows one voids it.
    shadowed = SCALAR_BUILTINS & {*variables, *namespace}
    return CompiledMethod(descriptor=descriptor, machine=machine,
                          params=params, block_ids=block_ids,
                          function=function, tree=tree,
                          state_free=machine.state_free_nodes(),
                          read_only=(not descriptor.is_constructor
                                     and machine.read_only
                                     and not shadowed))


@dataclass(slots=True, eq=False)
class CompiledEntity:
    """An entity class compiled for execution: materialised class object,
    descriptor, and every method's compiled form."""

    descriptor: EntityDescriptor
    cls: type
    methods: dict[str, CompiledMethod] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.descriptor.name

    def method(self, name: str) -> CompiledMethod:
        if name not in self.methods:
            raise InvocationError(
                f"entity {self.name!r} has no method {name!r}")
        return self.methods[name]

    # -- instance <-> state dict ------------------------------------------
    def blank_instance(self) -> Any:
        """A bare instance without running ``__init__`` (state restored
        from the operator's state backend instead)."""
        return object.__new__(self.cls)

    def make_instance(self, state: dict[str, Any]) -> Any:
        instance = self.blank_instance()
        for name, value in state.items():
            setattr(instance, name, value)
        return instance

    def extract_state(self, instance: Any) -> dict[str, Any]:
        return dict(vars(instance))

    def key_of_state(self, state: dict[str, Any]) -> Any:
        attribute = self.descriptor.key_attribute
        if attribute is None:  # pragma: no cover - guarded by analysis
            raise InvocationError(f"entity {self.name!r} has no key attribute")
        return state[attribute]


def _materialisation_namespace() -> dict[str, Any]:
    """Globals for exec-ing entity source shipped inside the IR: the
    decorators become no-ops (registration already happened at the
    source side) and typing names resolve."""
    import typing

    def _noop_decorator(target=None, **_kwargs):
        if target is None:
            return lambda t: t
        return target

    return {
        "entity": _noop_decorator,
        "stateflow": _noop_decorator,
        "stateful_entity": _noop_decorator,
        "transactional": _noop_decorator,
        "typing": typing,
        "Optional": typing.Optional,
        "List": typing.List,
        "Dict": typing.Dict,
        "Any": typing.Any,
    }


def materialize_class(descriptor: EntityDescriptor,
                      extra_globals: dict[str, Any] | None = None) -> tuple[type, dict[str, Any]]:
    """Recreate the entity class from its shipped source (used when the IR
    was deserialised on a different "system" than where it was authored).

    Returns ``(class object, namespace)``; the namespace doubles as module
    globals for block execution.
    """
    if descriptor.source is None:
        raise CompilationError(
            "descriptor has no source to materialise",
            entity=descriptor.name)
    namespace = _materialisation_namespace()
    if extra_globals:
        namespace.update(extra_globals)
    exec(compile(descriptor.source, f"<entity:{descriptor.name}>", "exec"),
         namespace)
    cls = namespace.get(descriptor.name)
    if not isinstance(cls, type):
        raise CompilationError(
            f"materialising source did not produce class {descriptor.name!r}",
            entity=descriptor.name)
    return cls, namespace


def compile_entity(descriptor: EntityDescriptor,
                   splits: dict[str, SplitResult],
                   machines: dict[str, StateMachine],
                   cls: type | None = None) -> CompiledEntity:
    """Compile every method of one entity.

    *splits*/*machines* map method name to its split result and state
    machine.  When *cls* is given (same-process deployment) a snapshot of
    its defining module's globals backs the generated functions;
    otherwise the class is materialised from source.
    """
    if cls is not None:
        module = sys.modules.get(cls.__module__)
        namespace = dict(module.__dict__) if module else {}
    else:
        cls, namespace = materialize_class(descriptor)
    namespace.update(__unset__=_UNSET, __locals__=locals)
    compiled = CompiledEntity(descriptor=descriptor, cls=cls)
    for method_name, split in splits.items():
        compiled.methods[method_name] = compile_method(
            descriptor.methods[method_name], split, machines[method_name],
            namespace)
    return compiled
