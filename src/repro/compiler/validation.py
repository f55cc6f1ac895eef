"""Enforcement of the programming model's limitations (paper Section 2.2).

StateFlow "requires static type hints ... ensures the existence of those
hints via a static pass"; "the functions cannot be recursive"; "each entity
contains a key() function"; "the key of a stateful entity cannot change
throughout that entity's lifetime".  Type hints and ``__key__`` are checked
during analysis; this module adds the remaining whole-program checks that
need the call graph.
"""

from __future__ import annotations

import ast

from ..core.descriptors import EntityDescriptor
from ..core.errors import (
    CompilationError,
    KeyMutationError,
    UnsupportedConstructError,
)
from .callgraph import CallGraph


def check_unsupported_constructs(descriptor: EntityDescriptor) -> None:
    """``yield``/``await`` have no dataflow counterpart, and a compiled
    method is not defined in its class, so zero-argument ``super()`` has
    no class to find; reject them."""
    for method in descriptor.methods.values():
        if method.source_ast is None:
            continue
        for node in ast.walk(method.source_ast):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                raise UnsupportedConstructError(
                    "generator methods (yield) are not supported",
                    entity=descriptor.name, method=method.name,
                    lineno=node.lineno)
            if isinstance(node, ast.Await):
                raise UnsupportedConstructError(
                    "await is not supported; remote calls are plain calls",
                    entity=descriptor.name, method=method.name,
                    lineno=node.lineno)
            if (isinstance(node, ast.Call) and not node.args
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "super"):
                raise UnsupportedConstructError(
                    "zero-argument super() is not supported; write "
                    f"super({descriptor.name}, self)",
                    entity=descriptor.name, method=method.name,
                    lineno=node.lineno)


def check_key_stability(descriptor: EntityDescriptor) -> None:
    """No method other than ``__init__`` may assign the key attribute."""
    key_attribute = descriptor.key_attribute
    if key_attribute is None:
        return
    for method in descriptor.methods.values():
        if method.name == "__init__" or method.source_ast is None:
            continue
        for node in ast.walk(method.source_ast):
            target: ast.expr | None = None
            if isinstance(node, ast.Assign):
                for candidate in node.targets:
                    if _is_self_attribute(candidate, key_attribute):
                        target = candidate
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if _is_self_attribute(node.target, key_attribute):
                    target = node.target
            if target is not None:
                raise KeyMutationError(
                    f"method assigns self.{key_attribute}, but the key of a "
                    f"stateful entity cannot change during its lifetime",
                    entity=descriptor.name, method=method.name,
                    lineno=node.lineno)


def _is_self_attribute(node: ast.expr, attribute: str) -> bool:
    return (isinstance(node, ast.Attribute)
            and node.attr == attribute
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def check_constructor_is_local(descriptor: EntityDescriptor,
                               graph: CallGraph) -> None:
    """``__init__`` must not perform remote interactions: the runtime
    executes it locally to derive the new entity's key before routing."""
    for site in graph.callees_of(descriptor.name, "__init__"):
        if not site.is_self_call:
            raise CompilationError(
                f"__init__ calls {site.callee_entity}.{site.callee_method}; "
                f"remote interactions in constructors are not supported "
                f"(the key must be computable locally)",
                entity=descriptor.name, method="__init__",
                lineno=site.lineno)


def validate_program(entities: dict[str, EntityDescriptor],
                     graph: CallGraph) -> None:
    """Run every whole-program check; raise on the first violation."""
    graph.check_no_recursion()
    for descriptor in entities.values():
        check_unsupported_constructs(descriptor)
        check_key_stability(descriptor)
        check_constructor_is_local(descriptor, graph)
    # Remote calls must target methods that actually exist on the callee.
    for site in graph.sites:
        callee = entities.get(site.callee_entity)
        if callee is None:
            raise CompilationError(
                f"call to unknown entity {site.callee_entity!r}",
                entity=site.caller_entity, method=site.caller_method,
                lineno=site.lineno)
        if site.callee_method not in callee.methods:
            raise CompilationError(
                f"call to undefined method {site.callee_entity}."
                f"{site.callee_method}",
                entity=site.caller_entity, method=site.caller_method,
                lineno=site.lineno)
