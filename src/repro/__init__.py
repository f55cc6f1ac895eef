"""Stateful Entities: object-oriented cloud applications as distributed
dataflows — a reproduction of the CIDR 2023 paper by Psarakis et al.

Quickstart::

    from repro import entity, transactional, compile_program, LocalRuntime

    @entity
    class Item:
        def __init__(self, item_id: str, price: int):
            self.item_id: str = item_id
            self.stock: int = 0
            self.price: int = price

        def __key__(self):
            return self.item_id

        def update_stock(self, amount: int) -> bool:
            self.stock += amount
            return self.stock >= 0

    program = compile_program([Item])
    runtime = LocalRuntime(program)
    apple = runtime.create(Item, "apple", 3)
    runtime.call(apple, "update_stock", 10)
"""

from .compiler import CompiledProgram, compile_program, recompile_from_ir
from .core import (
    EntityRef,
    StatefulEntityError,
    entity,
    stateflow,
    stateful_entity,
    transactional,
)
from .ir import StatefulDataflow, dataflow_from_json, dataflow_to_json
from .query import QueryEngine
from .runtimes import InvocationResult, LocalRuntime, Runtime

__version__ = "1.0.0"

__all__ = [
    "CompiledProgram",
    "EntityRef",
    "InvocationResult",
    "LocalRuntime",
    "QueryEngine",
    "Runtime",
    "StatefulDataflow",
    "StatefulEntityError",
    "__version__",
    "compile_program",
    "dataflow_from_json",
    "dataflow_to_json",
    "entity",
    "recompile_from_ir",
    "stateflow",
    "stateful_entity",
    "transactional",
]
