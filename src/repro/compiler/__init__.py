"""Compiler pipeline: stateful entities -> stateful dataflow IR.

The pipeline (paper Section 2) is exposed through
:func:`compile_program`; the individual passes are importable for tests,
tooling, and the compiler-explorer example.
"""

from .analysis import analyze_class, parse_class_ast
from .blocks import (
    BranchTerminator,
    ConstructTerminator,
    FunctionBlock,
    InvokeTerminator,
    JumpTerminator,
    ReturnTerminator,
    def_use,
)
from .callgraph import CallGraph, CallSite, build_call_graph
from .codegen import (
    CompiledEntity,
    CompiledMethod,
    compile_entity,
    materialize_class,
)
from .normalize import Normalizer, RemoteCallDetector
from .pipeline import (
    CompiledProgram,
    compile_descriptors,
    compile_program,
    recompile_from_ir,
)
from .splitting import MethodSplitter, SplitResult, split_method
from .state_machine import StateMachine, StateNode
from .tailcalls import eliminate_tail_calls
from .validation import validate_program

__all__ = [
    "BranchTerminator",
    "CallGraph",
    "CallSite",
    "CompiledEntity",
    "CompiledMethod",
    "CompiledProgram",
    "ConstructTerminator",
    "FunctionBlock",
    "InvokeTerminator",
    "JumpTerminator",
    "MethodSplitter",
    "Normalizer",
    "RemoteCallDetector",
    "ReturnTerminator",
    "SplitResult",
    "StateMachine",
    "StateNode",
    "analyze_class",
    "build_call_graph",
    "compile_descriptors",
    "compile_entity",
    "compile_program",
    "def_use",
    "eliminate_tail_calls",
    "materialize_class",
    "parse_class_ast",
    "recompile_from_ir",
    "split_method",
    "validate_program",
]
