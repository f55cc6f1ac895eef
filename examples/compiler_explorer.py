"""Compiler explorer: watch the pipeline transform imperative code.

Shows, for the Figure 1 application:
- the split function blocks (the paper's ``buy_item_0``, ``buy_item_1``,
  ... from Section 2.4) with their read/write variable sets;
- the state machine (execution graph) of each split method, and which
  of its continuations resume without the entity's state, and which
  methods are read-only (their visits never write the entity back);
- the one resumable function those blocks are compiled into;
- the serialized engine-independent IR, and that the IR round-trips:
  deserialised on a "different system", recompiled from shipped source,
  and executed with identical results.

Run:  python examples/compiler_explorer.py
"""

from quickstart import Item, User

from repro import compile_program, dataflow_from_json, dataflow_to_json
from repro.compiler import recompile_from_ir
from repro.runtimes import LocalRuntime


def main() -> None:
    program = compile_program([Item, User])

    print("=" * 70)
    print("Function splitting of User.buy_item (paper Section 2.4)")
    print("=" * 70)
    split = program.split("User", "buy_item")
    for block_id, block in split.blocks.items():
        print(f"\n--- {block_id}")
        print(f"    reads:  {sorted(block.reads)}")
        print(f"    writes: {sorted(block.writes)}")
        for line in block.source().splitlines():
            print(f"    | {line}")
        print(f"    => {block.terminator}")

    print()
    print("=" * 70)
    print("State machine (execution graph, Section 2.5)")
    print("=" * 70)
    machine = program.entities["User"].methods["buy_item"].machine
    for node in machine:
        print(f"  {node.node_id}: {node.terminator.to_dict()}")
    # A continuation no block of which (until control leaves again) uses
    # `self` resumes on a blank instance: no state read, nothing written.
    print("  state-free continuations:",
          ", ".join(sorted(machine.state_free_nodes())) or "none")
    # A method no block of which may write the entity is read-only: its
    # visits read the entity and never write it back.
    for entity, compiled in program.entities.items():
        print(f"  {entity} read-only methods:",
              ", ".join(name for name, method in compiled.methods.items()
                        if method.read_only) or "none")

    print()
    print("=" * 70)
    print("Generated code: all blocks in one resumable function")
    print("=" * 70)
    print(program.entities["User"].methods["buy_item"].source())

    print()
    print("=" * 70)
    print("Portable IR -> different system -> same behaviour")
    print("=" * 70)
    document = dataflow_to_json(program.dataflow)
    print(f"serialized IR: {len(document)} bytes of JSON")
    shipped = dataflow_from_json(document)
    other_system = recompile_from_ir(shipped)
    runtime = LocalRuntime(other_system)
    apple = runtime.create("Item", "apple", 3)
    runtime.call(apple, "update_stock", 10)
    alice = runtime.create("User", "alice")
    print("buy on recompiled system:",
          runtime.call(alice, "buy_item", 2, apple))
    print("alice state:", runtime.entity_state(alice))


if __name__ == "__main__":
    main()
