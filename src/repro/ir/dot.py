"""Graphviz (DOT) export of the IR — both the operator-level dataflow
(Figure 2's logical graph) and per-method state machines (Section 2.5),
with the continuations that need no entity state drawn dotted."""

from __future__ import annotations

from ..compiler.state_machine import StateMachine
from .dataflow import EGRESS, INGRESS, StatefulDataflow


def _quote(text: str) -> str:
    return '"' + text.replace('"', r'\"') + '"'


def dataflow_to_dot(dataflow: StatefulDataflow) -> str:
    """Operator-level graph: ingress/egress routers + one vertex per
    entity, edges labelled by the calls that created them."""
    lines = ["digraph stateful_dataflow {",
             "  rankdir=LR;",
             "  node [shape=box, style=rounded];",
             f"  {_quote(INGRESS)} [shape=cds, label=\"ingress router\"];",
             f"  {_quote(EGRESS)} [shape=cds, label=\"egress router\"];"]
    for operator in dataflow:
        split = sum(1 for m in operator.machines.values() if m.is_split)
        label = (f"{operator.name}\\n{len(operator.machines)} methods"
                 + (f", {split} split" if split else ""))
        lines.append(f"  {_quote(operator.name)} [label={_quote(label)}];")
    for edge in dataflow.edges:
        attributes = f" [label={_quote(edge.label)}]" if edge.label else ""
        lines.append(f"  {_quote(edge.source)} -> {_quote(edge.target)}"
                     f"{attributes};")
    lines.append("}")
    return "\n".join(lines)


def machine_to_dot(machine: StateMachine) -> str:
    """One split method's execution graph with terminator-typed edges;
    continuations that resume without entity state are dotted."""
    from ..compiler.blocks import (
        BranchTerminator,
        ConstructTerminator,
        InvokeTerminator,
        JumpTerminator,
        ReturnTerminator,
    )

    lines = [f"digraph {machine.method} {{",
             "  node [shape=box, fontname=monospace];"]
    for node in machine:
        shape = ("doublecircle"
                 if isinstance(node.terminator, ReturnTerminator) else "box")
        style = ", style=dotted" if node.state_free else ""
        lines.append(f"  {_quote(node.node_id)} [shape={shape}{style}];")
    if machine.state_free_nodes():
        lines.append('  "__legend__" [shape=plaintext, '
                     'label="dotted: resumes without entity state"];')
    for node in machine:
        terminator = node.terminator
        if isinstance(terminator, JumpTerminator):
            lines.append(f"  {_quote(node.node_id)} -> "
                         f"{_quote(terminator.target)};")
        elif isinstance(terminator, BranchTerminator):
            lines.append(f"  {_quote(node.node_id)} -> "
                         f"{_quote(terminator.true_target)} "
                         f"[label=\"true\"];")
            lines.append(f"  {_quote(node.node_id)} -> "
                         f"{_quote(terminator.false_target)} "
                         f"[label=\"false\"];")
        elif isinstance(terminator, InvokeTerminator):
            label = f"call {terminator.entity_type}.{terminator.method}"
            lines.append(f"  {_quote(node.node_id)} -> "
                         f"{_quote(terminator.continuation)} "
                         f"[label={_quote(label)}, style=dashed];")
        elif isinstance(terminator, ConstructTerminator):
            label = f"new {terminator.entity_type}"
            lines.append(f"  {_quote(node.node_id)} -> "
                         f"{_quote(terminator.continuation)} "
                         f"[label={_quote(label)}, style=dashed];")
    lines.append("}")
    return "\n".join(lines)
