"""Differential check of the compiled resumable functions.

Every ``CompiledMethod.run`` call made while the scenarios below execute
is replayed, from the same instance state and store, through the
reference block interpreter (one ``exec`` per block); the two must agree
on exit kind, node, value, call target, store and the instance's state.
A call that starts at a continuation the compiler calls state-free is
also replayed on a blank instance, which must give the same result and
stay blank, and a call of a method the compiler calls read-only must
leave the instance's state as it found it.  The scenarios reach every method of the test zoo, its
instance-reaching routes and shapes, the YCSB and TPC-C workloads and
the ``examples/`` entities, with control flow split lazily and eagerly.

A second group counts calls: one generated-function call per operator
visit, and no ``exec`` at all once a program is compiled.
"""

from __future__ import annotations

import copy
import sys
from collections import Counter

import pytest

from reference_interpreter import reference_run
from shapes import Cell, Shape
from zoo import (
    REACH_ENTITIES,
    REACH_METHODS,
    SHOP_ENTITIES,
    ZOO_CASES,
    ZOO_ENTITIES,
    ZOO_SCOPE_CASES,
)

from repro import compile_program
from repro.compiler.codegen import CompiledMethod
from repro.core.errors import InvocationError
from repro.core.refs import EntityRef
from repro.ir.events import Event, EventKind, Frame
from repro.runtimes import LocalRuntime
from repro.runtimes.executor import OperatorExecutor
from repro.runtimes.state import DictStateBackend
from repro.workloads import TPCC_ENTITIES, Account

#: Methods the reference cannot model.  It reads the module's ``LIMIT``
#: where Python (and the compiled function) raise UnboundLocalError (see
#: its docstring), and its blocks hold ``self`` as a global, so the frame
#: that ``locals()``/``vars()`` return has none.
REFERENCE_GAPS = {("Zoo", "shadowed_global"), ("Reach", "via_locals"),
                  ("Reach", "via_vars")}


def _twin(instance):
    """An instance of the same class holding a deep copy of the state."""
    twin = object.__new__(type(instance))
    vars(twin).update(copy.deepcopy(vars(instance)))
    return twin


def _outcome(call):
    """What *call* returns, or the type of the exception it failed with."""
    try:
        return call()
    except InvocationError as exc:
        return type(exc.__cause__)


@pytest.fixture()
def shadowed(monkeypatch):
    """Patch ``CompiledMethod.run`` to also run the reference and compare;
    returns ``(arm, checked, replayed, untouched)`` — ``arm(program)``
    selects whose splits the reference interprets, ``checked`` counts
    compared calls per method, ``untouched`` the calls of read-only
    methods, each of which must leave ``extract_state`` unchanged.

    ``arm`` also takes each method's state-free continuations away from
    the executor, so every visit runs on the real instance; a call that
    starts at one of them is replayed on a blank instance, and must come
    out the same without touching it (``replayed`` counts those)."""
    compiled_run = CompiledMethod.run
    checked: Counter = Counter()
    replayed: Counter = Counter()
    untouched: Counter = Counter()
    splits = {}
    state_free = {}

    def run(method, instance, node_id, store):
        if not method.read_only:
            return compare(method, instance, node_id, store)
        before = copy.deepcopy(vars(instance))
        got = compare(method, instance, node_id, store)
        assert vars(instance) == before, method.machine.method
        untouched[method.machine.entity, method.machine.method] += 1
        return got

    def compare(method, instance, node_id, store):
        name = (method.machine.entity, method.machine.method)
        if node_id in state_free[name]:
            blank = object.__new__(type(instance))
            alone = _outcome(lambda: compiled_run(
                method, blank, node_id, copy.deepcopy(store)))
            assert not vars(blank), (name, node_id)
            want = _outcome(lambda: compiled_run(
                method, _twin(instance), node_id, copy.deepcopy(store)))
            assert alone == want, (name, node_id)
            replayed[name] += 1
        if name in REFERENCE_GAPS:
            return compiled_run(method, instance, node_id, store)
        twin = _twin(instance)
        try:
            want = reference_run(splits[name], method.function.__globals__,
                                 twin, node_id, copy.deepcopy(store))
        except Exception as exc:  # the reference does not wrap
            # Both must fail, and alike: unbound names are NameErrors on
            # both sides (the reference's `global` declarations make them
            # plain NameError, Python's locals UnboundLocalError).
            with pytest.raises(InvocationError) as failure:
                compiled_run(method, instance, node_id, store)
            got = failure.value.__cause__
            assert (type(got) is type(exc)
                    or (isinstance(got, NameError)
                        and isinstance(exc, NameError))), (name, node_id)
            checked[name] += 1
            raise failure.value
        got = compiled_run(method, instance, node_id, store)
        assert got == want, (name, node_id)
        assert vars(instance) == vars(twin), (name, node_id)
        checked[name] += 1
        return got

    def arm(program):
        splits.clear()
        splits.update({(entity, method): split
                       for entity, methods in program.splits.items()
                       for method, split in methods.items()})
        state_free.clear()
        for entity, compiled in program.entities.items():
            for method_name, method in compiled.methods.items():
                state_free[entity, method_name] = method.state_free
                method.state_free = frozenset()

    monkeypatch.setattr(CompiledMethod, "run", run)
    return arm, checked, replayed, untouched


# ---------------------------------------------------------------------------
# scenarios: each drives a LocalRuntime through every method of a program
# ---------------------------------------------------------------------------

def _drive_zoo(runtime):
    counter = runtime.create("Counter", "c1")
    zoo = runtime.create("Zoo", "z1")
    for method, make_args in ZOO_CASES + ZOO_SCOPE_CASES:
        for x in range(9):
            runtime.invoke(zoo, method, counter, *make_args(x))
    for x in (-2, 0, 5):
        runtime.call(zoo, "local_only", x)
    runtime.call(zoo, "constructs", "fresh", 4)
    runtime.call(zoo, "double_add", counter, 3)
    runtime.call(counter, "get")


def _drive_reach(runtime):
    counter = runtime.create("Counter", "c1")
    reach = runtime.create("Reach", "r1")
    for method in REACH_METHODS:
        for x in range(3):
            runtime.call(reach, method, counter, x)
    runtime.call(counter, "get")


def _drive_shapes(runtime):
    cell = runtime.create("Cell", "c1")
    other = runtime.create("Cell", "c2")
    shape = runtime.create("Shape", "s1", cell)
    runtime.call(shape, "via_state_ref", 7)
    for n in range(5):
        runtime.call(shape, "nested_loops", cell, n)
        runtime.call(shape, "elif_chain", cell, n - 2)
        runtime.call(shape, "elif_chain", cell, n + 3)
        runtime.call(shape, "tuple_unpack", cell, n)
        runtime.call(shape, "return_inside_loop", cell, n, n + 20)
        runtime.call(shape, "augassign_remote", cell, n)
        runtime.call(shape, "arg_is_remote_result", cell, other, n)
    runtime.call(shape, "return_inside_loop", cell, 50, 400)
    runtime.call(cell, "bump", 1)


def _drive_shop(runtime):
    apple = runtime.create("Item", "apple", 3)
    runtime.call(apple, "update_stock", 10)
    alice = runtime.create("User", "alice")
    runtime.call(alice, "buy_item", 2, apple)     # succeeds
    runtime.call(alice, "buy_item", 9, apple)     # stock runs out: undo
    runtime.call(alice, "buy_item", 900, apple)   # balance too low
    runtime.call(apple, "price")


def _drive_ycsb(runtime):
    a = runtime.create("Account", "a", 100)
    b = runtime.create("Account", "b", 5)
    runtime.call(a, "read")
    runtime.call(a, "write", "payload")
    runtime.call(a, "add", 3)
    runtime.call(b, "deposit", 4)
    runtime.call(a, "transfer", 40, b)
    runtime.call(b, "transfer", 4000, a)          # insufficient: no call
    runtime.invoke(a, "transfer", "forty", b)     # user TypeError


def _drive_tpcc(runtime):
    warehouse = runtime.create("Warehouse", "w1", 7)
    district = runtime.create("District", "d1", 3)
    stocks = [runtime.create("Stock", f"s{i}", 12 + i, 5) for i in range(3)]
    rich = runtime.create("Customer", "rich", 10_000)
    poor = runtime.create("Customer", "poor", 1)
    runtime.call(rich, "payment", 50, warehouse, district)
    runtime.call(rich, "new_order", district, stocks, [1, 4, 2])
    runtime.call(rich, "new_order", district, [], [])
    runtime.call(poor, "new_order", district, stocks[:1], [3])  # over limit
    runtime.call(stocks[0], "take", 1)
    runtime.call(poor, "spend", 1)
    runtime.call(district, "next_order_id")
    runtime.call(warehouse, "collect", 1)
    runtime.call(district, "collect", 1)


def _drive_checkout(runtime):
    products = [runtime.create("Product", f"sku-{i}", 10 + i, 3)
                for i in range(4)]
    wallet = runtime.create("Wallet", "w", 60)
    cart = runtime.create("Cart", "cart")
    for quantity, product in enumerate(products, start=1):
        runtime.call(cart, "add", product, quantity if quantity < 4 else 1)
    runtime.call(cart, "checkout", wallet)   # paid
    runtime.call(cart, "checkout", wallet)   # sku-2 short: compensate
    runtime.call(products[2], "release", 5)
    runtime.call(cart, "checkout", wallet)   # wallet short: compensate
    runtime.call(products[0], "reserve", 99)


SCENARIOS = {
    "zoo": (lambda examples: ZOO_ENTITIES, _drive_zoo),
    "reach": (lambda examples: REACH_ENTITIES, _drive_reach),
    "shapes": (lambda examples: [Cell, Shape], _drive_shapes),
    "shop": (lambda examples: SHOP_ENTITIES, _drive_shop),
    "ycsb": (lambda examples: [Account], _drive_ycsb),
    "tpcc": (lambda examples: TPCC_ENTITIES, _drive_tpcc),
    "example-quickstart": (lambda examples: examples["quickstart"],
                           _drive_shop),
    "example-checkout": (lambda examples: examples["checkout"],
                         _drive_checkout),
}


@pytest.mark.parametrize("split_all", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_compiled_function_agrees_with_block_interpreter(
        scenario, split_all, example_entities, shadowed):
    entities, drive = SCENARIOS[scenario]
    program = compile_program(entities(example_entities),
                              split_all_control_flow=split_all)
    with_state_free = {(entity, name)
                       for entity, compiled in program.entities.items()
                       for name, method in compiled.methods.items()
                       if method.state_free}
    read_only = {(entity, name)
                 for entity, compiled in program.entities.items()
                 for name, method in compiled.methods.items()
                 if method.read_only}
    arm, checked, replayed, untouched = shadowed
    arm(program)
    drive(LocalRuntime(program))
    every_method = {(entity, method)
                    for entity, compiled in program.entities.items()
                    for method in compiled.methods}
    assert set(checked) | REFERENCE_GAPS >= every_method
    assert all(checked[name] for name in every_method - REFERENCE_GAPS)
    assert set(replayed) == with_state_free
    assert set(untouched) == read_only


# ---------------------------------------------------------------------------
# call counts
# ---------------------------------------------------------------------------

def _profiled(call):
    """Run *call*; returns ``(result, generated-function calls, exec
    calls)`` observed by the profiler while it ran."""
    runs = execs = 0

    def profiler(frame, event, arg):
        nonlocal runs, execs
        if event == "call" and frame.f_code.co_name == "__run__":
            runs += 1
        elif event == "c_call" and arg is exec:
            execs += 1

    sys.setprofile(profiler)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, runs, execs


def test_one_function_call_per_operator_visit(example_entities):
    """A checkout over four lines visits the cart six times (the invoke,
    four reservation results, the charge result) and runs ~29 blocks;
    each visit is exactly one call of the generated function, and nothing
    is ``exec``-ed after compilation."""
    program = compile_program(example_entities["checkout"])
    executor = OperatorExecutor(program.entities)
    state = DictStateBackend()
    refs = [EntityRef("Product", f"sku-{i}") for i in range(4)]
    for i, ref in enumerate(refs):
        state.put("Product", ref.key,
                  {"sku": ref.key, "price": 5, "stock": 9 + i})
    state.put("Wallet", "w", {"owner": "w", "funds": 500})
    state.put("Cart", "c", {"cart_id": "c", "skus": refs,
                            "quantities": [1, 2, 3, 1], "orders_placed": 0})
    checkout = program.entities["Cart"].methods["checkout"]
    assert len(checkout.machine.nodes) == 16

    pending = [Event(kind=EventKind.INVOKE, target=EntityRef("Cart", "c"),
                     method="checkout", args=(EntityRef("Wallet", "w"),),
                     request_id=1)]
    cart_visits = 0
    while pending[0].kind is not EventKind.REPLY:
        event = pending.pop()
        outbound, runs, execs = _profiled(
            lambda: executor.handle(event, state))
        assert (runs, execs) == (1, 0), event
        cart_visits += event.target.entity == "Cart"
        pending.extend(outbound)
        (out,) = outbound
        if out.execution is not None and out.execution.depth:
            frame = out.execution.top
            # What travels: the string block id and the user's variables.
            assert frame.node in program.entities[frame.entity].methods[
                frame.method].machine.nodes
            assert not any(name == "self" or name.startswith("__")
                           for name in frame.store)
            document = frame.to_dict()
            assert Frame.from_dict(document) == frame
            assert Frame.from_dict(document).to_dict() == document
    assert pending[0].payload == 5 * (1 + 2 + 3 + 1)
    assert cart_visits == 6
    assert state.get("Cart", "c")["orders_placed"] == 1


def test_constructors_run_with_one_call(shop_program):
    from repro.runtimes.executor import run_constructor

    compiled = shop_program.entities["Item"]
    (key, state), runs, execs = _profiled(
        lambda: run_constructor(compiled, ("pear", 4)))
    assert (key, state["price_per_unit"]) == ("pear", 4)
    assert (runs, execs) == (1, 0)
