"""Which continuations need no state, and why the rule is sound.

A block *uses self* when it names ``self`` anywhere, names a builtin
that reaches the frame without naming it, or ends in a self-call; a
continuation is state-free when no block that can run from it before
control leaves the operator uses self.  Each ``Reach`` method reaches
the instance after its remote call by a different route, none spelled
``self.<attr>``: the analysis must call every one stateful, where a rule
that looks only for ``self.<attr>`` calls each one state-free — and for
every route that reads the instance, running the tail on a blank
instance gives the wrong answer.  The blank-instance replay of every
state-free call the scenarios make is in ``test_differential.py``.
"""

from __future__ import annotations

import ast
import json

import pytest

from zoo import REACH_ENTITIES, REACH_METHODS, OracleCounter, OracleReach

from repro import compile_program, dataflow_from_json, dataflow_to_json
from repro.compiler import analyze_class, compile_descriptors
from repro.compiler.pipeline import recompile_from_ir
from repro.compiler.state_machine import StateMachine, StateNode
from repro.core.errors import UnsupportedConstructError
from repro.runtimes import LocalRuntime


@pytest.fixture(scope="module")
def reach_program():
    return compile_program(REACH_ENTITIES)


def _names_self_attribute(block) -> bool:
    """The naive rule: a block touches state iff it spells ``self.<attr>``."""
    return any(isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id == "self"
               for statement in block.statements
               for node in ast.walk(statement))


def _naive_state_free(program, entity: str, method: str) -> frozenset[str]:
    split = program.split(entity, method)
    machine = program.entities[entity].methods[method].machine
    return frozenset(
        node.terminator.continuation for node in machine.remote_transitions()
        if not any(_names_self_attribute(split.blocks[block_id])
                   for block_id in machine.visit_from(
                       node.terminator.continuation)))


def _first_continuation(program, method: str) -> str:
    machine = program.entities["Reach"].methods[method].machine
    return machine.node(machine.entry).terminator.continuation


@pytest.mark.parametrize("method", REACH_METHODS)
def test_every_route_to_the_instance_uses_self(reach_program, method):
    continuation = _first_continuation(reach_program, method)
    block = reach_program.split("Reach", method).blocks[continuation]
    assert block.uses_self()
    assert continuation not in reach_program.entities["Reach"].methods[
        method].state_free
    # The naive rule misses it.
    assert not _names_self_attribute(block)
    assert continuation in _naive_state_free(reach_program, "Reach", method)


def _run(program, method: str):
    runtime = LocalRuntime(program)
    counter = runtime.create("Counter", "c")
    reach = runtime.create("Reach", "r")
    result = runtime.invoke(reach, method, counter, 2)
    return result.error or result.value


@pytest.mark.parametrize("method", REACH_METHODS)
def test_a_blank_instance_would_break_every_route_that_reads_it(method):
    """The analysis's sets give the oracle's answer; the naive rule's
    run the tail on a blank instance, which has no ``calls`` to read.  A
    self-call is stateful by rule rather than by need: its callee
    re-enters the entity, and the visit stays where the entity lives."""
    expected = getattr(OracleReach("r"), method)(OracleCounter("c"), 2)
    assert _run(compile_program(REACH_ENTITIES), method) == expected
    naive = compile_program(REACH_ENTITIES)
    compiled = naive.entities["Reach"].methods[method]
    compiled.state_free = _naive_state_free(naive, "Reach", method)
    got = _run(naive, method)
    if method == "via_self_call":
        assert got == expected
    else:
        assert "AttributeError" in got


def test_zero_argument_super_is_rejected():
    """A compiled method is not defined inside its class, so
    ``super()`` has no class to find; the compiler says so up front."""
    source = (
        "class Sub:\n"
        "    def __init__(self, sid: str):\n"
        "        self.sid: str = sid\n"
        "    def __key__(self):\n"
        "        return self.sid\n"
        "    def name(self) -> str:\n"
        "        return super().__repr__()\n")
    with pytest.raises(UnsupportedConstructError, match=r"super\(Sub, self\)"):
        compile_descriptors({"Sub": analyze_class(source=source)})


def _state_free(program, entity: str, method: str) -> frozenset[str]:
    return program.entities[entity].methods[method].state_free


def test_the_bundled_programs(account_program, tpcc_program, shop_program,
                              example_entities):
    assert _state_free(account_program, "Account", "transfer") == {
        "transfer_1"}
    assert _state_free(tpcc_program, "Customer", "payment") == {
        "payment_1", "payment_2"}
    # Both resumes of new_order can reach the credit-limit block.
    assert _state_free(tpcc_program, "Customer", "new_order") == set()
    checkout = compile_program(example_entities["checkout"])
    machine = checkout.entities["Cart"].methods["checkout"].machine
    assert {node.terminator.continuation
            for node in machine.remote_transitions()} == {
        "checkout_4", "checkout_8", "checkout_14"}
    assert _state_free(checkout, "Cart", "checkout") == set()
    # After the undo call only ``return False`` is left.
    assert _state_free(shop_program, "User", "buy_item") == {"buy_item_4"}
    # Methods without a remote call have no continuation at all.
    assert _state_free(account_program, "Account", "deposit") == set()


def test_the_bit_travels_in_the_ir(tpcc_program):
    document = dataflow_to_json(tpcc_program.dataflow)
    nodes = json.loads(document)["dataflow"]["operators"]["Customer"][
        "machines"]["payment"]["nodes"]
    assert {node_id for node_id, node in nodes.items()
            if node["state_free"]} == {"payment_1", "payment_2"}
    shipped = dataflow_from_json(document)
    assert shipped.operator("Customer").machine(
        "payment").state_free_nodes() == {"payment_1", "payment_2"}
    rebuilt = recompile_from_ir(shipped)
    for entity, compiled in tpcc_program.entities.items():
        for name, method in compiled.methods.items():
            assert rebuilt.entities[entity].methods[name].state_free == (
                method.state_free)


def test_an_ir_without_the_bit_reads_as_uses_self(account_program):
    machine = account_program.entities["Account"].methods[
        "transfer"].machine
    document = machine.to_dict()
    for node in document["nodes"].values():
        del node["state_free"]
    assert StateMachine.from_dict(document).state_free_nodes() == set()
    assert StateNode.from_dict(document["nodes"]["transfer_1"]).state_free \
        is False


def test_a_visit_ends_where_control_leaves_the_operator(tpcc_program):
    """From the loop's continuation the visit runs back through the loop
    header into either the next call or the credit-limit check; it stops
    at the call, not at its continuation."""
    machine = tpcc_program.entities["Customer"].methods["new_order"].machine
    assert machine.visit_from("new_order_5") == {
        "new_order_5", "new_order_2", "new_order_3", "new_order_4"}
    assert machine.visit_from("new_order_3") == {"new_order_3"}
