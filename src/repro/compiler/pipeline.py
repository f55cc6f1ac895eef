"""The compiler pipeline front door (paper Section 2.1).

``compile_program`` runs the whole chain on a set of ``@entity`` classes:

1. pass 1 — per-class static analysis (:mod:`.analysis`);
2. pass 2 — inter-entity call graph (:mod:`.callgraph`);
3. whole-program validation (:mod:`.validation`);
4. normalization + function splitting (:mod:`.normalize`, :mod:`.splitting`);
5. state-machine derivation (:mod:`.state_machine`);
6. IR assembly (:class:`~repro.ir.dataflow.StatefulDataflow`);
7. code generation (:mod:`.codegen`).

The result bundles the engine-independent IR with the locally executable
compiled entities.  ``recompile_from_ir`` performs only steps 4–7 starting
from a deserialized IR (deployment on "a different system").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..core.descriptors import EntityDescriptor
from ..core.entity import EntityRegistry, REGISTRY
from ..ir.dataflow import EGRESS, INGRESS, Operator, StatefulDataflow
from .analysis import analyze_class
from .callgraph import CallGraph, build_call_graph
from .codegen import CompiledEntity, compile_entity
from .splitting import SplitResult, split_method
from .state_machine import StateMachine
from .tailcalls import eliminate_tail_calls
from .validation import validate_program


@dataclass(slots=True)
class CompiledProgram:
    """Output of the pipeline: IR + executable artefacts."""

    dataflow: StatefulDataflow
    entities: dict[str, CompiledEntity]
    call_graph: CallGraph
    splits: dict[str, dict[str, SplitResult]] = field(default_factory=dict)

    def entity(self, name: str) -> CompiledEntity:
        return self.entities[name]

    def split(self, entity: str, method: str) -> SplitResult:
        return self.splits[entity][method]


def _build_dataflow(descriptors: dict[str, EntityDescriptor],
                    graph: CallGraph,
                    machines: dict[str, dict[str, StateMachine]],
                    parallelism: int) -> StatefulDataflow:
    dataflow = StatefulDataflow()
    for name, descriptor in descriptors.items():
        dataflow.add_operator(Operator(
            name=name, descriptor=descriptor,
            machines=machines[name], parallelism=parallelism))
    for name in descriptors:
        dataflow.add_edge(INGRESS, name, "client invocations")
        dataflow.add_edge(name, EGRESS, "replies")
    for site in graph.sites:
        if site.is_self_call:
            continue
        dataflow.add_edge(
            site.caller_entity, site.callee_entity,
            f"{site.caller_entity}.{site.caller_method} -> "
            f"{site.callee_entity}.{site.callee_method}")
        # Return path of the remote call.
        dataflow.add_edge(
            site.callee_entity, site.caller_entity,
            f"return {site.callee_entity}.{site.callee_method}")
    return dataflow


def compile_descriptors(descriptors: dict[str, EntityDescriptor],
                        *, split_all_control_flow: bool = False,
                        parallelism: int = 1,
                        classes: dict[str, type] | None = None,
                        eliminate_tail_recursion: bool = True,
                        ) -> CompiledProgram:
    """Steps 2-7 of the pipeline, given already-analyzed descriptors."""
    if eliminate_tail_recursion:
        for descriptor in descriptors.values():
            eliminate_tail_calls(descriptor)
    graph = build_call_graph(descriptors)
    validate_program(descriptors, graph)
    needs_split = graph.methods_needing_split()

    splits: dict[str, dict[str, SplitResult]] = {}
    machines: dict[str, dict[str, StateMachine]] = {}
    for name, descriptor in descriptors.items():
        splits[name] = {}
        machines[name] = {}
        for method_name, method in descriptor.methods.items():
            if method.source_ast is None:  # pragma: no cover - defensive
                continue
            result = split_method(
                descriptor, method_name, descriptors, needs_split,
                split_all_control_flow=split_all_control_flow)
            splits[name][method_name] = result
            machines[name][method_name] = StateMachine.from_split(result)

    dataflow = _build_dataflow(descriptors, graph, machines, parallelism)
    compiled_entities = {
        name: compile_entity(descriptor, splits[name], machines[name],
                             cls=(classes or {}).get(name))
        for name, descriptor in descriptors.items()
    }
    return CompiledProgram(dataflow=dataflow, entities=compiled_entities,
                           call_graph=graph, splits=splits)


def compile_program(classes: Iterable[type] | None = None,
                    *, registry: EntityRegistry | None = None,
                    split_all_control_flow: bool = False,
                    parallelism: int = 1,
                    eliminate_tail_recursion: bool = True,
                    ) -> CompiledProgram:
    """Compile ``@entity`` classes into IR + executable dataflow.

    With no arguments, compiles everything in the global registry.
    ``eliminate_tail_recursion`` turns purely tail-recursive methods into
    loops (Section 5) instead of rejecting them.
    """
    if classes is None:
        source_registry = registry if registry is not None else REGISTRY
        class_list = source_registry.classes()
    else:
        class_list = list(classes)
    descriptors = {cls.__name__: analyze_class(cls) for cls in class_list}
    class_map = {cls.__name__: cls for cls in class_list}
    return compile_descriptors(
        descriptors, split_all_control_flow=split_all_control_flow,
        parallelism=parallelism, classes=class_map,
        eliminate_tail_recursion=eliminate_tail_recursion)


def recompile_from_ir(dataflow: StatefulDataflow,
                      *, split_all_control_flow: bool = False,
                      ) -> CompiledProgram:
    """Rebuild executable artefacts from a (deserialized) IR.

    The IR carries each entity's source; analysis and splitting re-run so
    the compiled functions exist in this process.  This is what a target
    system does after receiving the portable IR.
    """
    descriptors = {
        name: analyze_class(source=operator.descriptor.source,
                            class_name=name)
        for name, operator in dataflow.operators.items()
    }
    # Preserve the transactional markers recorded in the shipped IR (the
    # runtime attribute set by @transactional is not visible in source
    # shipped without decorators).
    for name, operator in dataflow.operators.items():
        for method_name, method in operator.descriptor.methods.items():
            if method.is_transactional and method_name in descriptors[name].methods:
                descriptors[name].methods[method_name].is_transactional = True
    program = compile_descriptors(
        descriptors, split_all_control_flow=split_all_control_flow,
        parallelism=max(op.parallelism for op in dataflow) if dataflow.operators else 1)
    return program
