"""Differential check of the compiled resumable functions.

Every ``CompiledMethod.run`` call made while the scenarios below execute
is replayed, from the same instance state and store, through the
reference block interpreter (one ``exec`` per block); the two must agree
on exit kind, node, value, call target, store and the instance's state.
The scenarios reach every method of the test zoo and shapes, the YCSB and
TPC-C workloads and the ``examples/`` entities, with control flow split
lazily and eagerly.

A second group counts calls: one generated-function call per operator
visit, and no ``exec`` at all once a program is compiled.
"""

from __future__ import annotations

import copy
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

from reference_interpreter import reference_run
from shapes import Cell, Shape
from zoo import SHOP_ENTITIES, ZOO_CASES, ZOO_ENTITIES, ZOO_SCOPE_CASES

from repro import compile_program
from repro.compiler.codegen import CompiledMethod
from repro.core.entity import REGISTRY
from repro.core.errors import InvocationError
from repro.core.refs import EntityRef
from repro.ir.events import Event, EventKind, Frame
from repro.runtimes import LocalRuntime
from repro.runtimes.executor import OperatorExecutor
from repro.runtimes.state import DictStateBackend
from repro.workloads import TPCC_ENTITIES, Account

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: The reference reads the module's ``LIMIT`` where Python (and the
#: compiled function) raise UnboundLocalError; see its docstring.
REFERENCE_SCOPE_BUG = {("Zoo", "shadowed_global")}


@pytest.fixture(scope="module")
def example_entities():
    """The ``examples/`` entity classes, imported without leaving them in
    the process-global registry or on ``sys.path``."""
    registered = dict(REGISTRY._classes)
    modules = {}
    for name in ("quickstart", "ecommerce_checkout"):
        spec = importlib.util.spec_from_file_location(
            f"examples_{name}", EXAMPLES / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # entity source is read via inspect
        spec.loader.exec_module(module)
        modules[name] = module
    REGISTRY._classes.clear()
    REGISTRY._classes.update(registered)
    yield {
        "quickstart": [modules["quickstart"].Item, modules["quickstart"].User],
        "checkout": [modules["ecommerce_checkout"].Product,
                     modules["ecommerce_checkout"].Wallet,
                     modules["ecommerce_checkout"].Cart],
    }
    for module in modules.values():
        sys.modules.pop(module.__name__, None)


@pytest.fixture()
def shadowed(monkeypatch):
    """Patch ``CompiledMethod.run`` to also run the reference and compare;
    returns ``(arm, checked)`` — ``arm(program)`` selects whose splits the
    reference interprets, ``checked`` counts compared calls per method."""
    compiled_run = CompiledMethod.run
    checked: Counter = Counter()
    splits = {}

    def run(method, instance, node_id, store):
        name = (method.machine.entity, method.machine.method)
        if name in REFERENCE_SCOPE_BUG:
            return compiled_run(method, instance, node_id, store)
        twin = object.__new__(type(instance))
        vars(twin).update(copy.deepcopy(vars(instance)))
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

    monkeypatch.setattr(CompiledMethod, "run", run)
    return arm, checked


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
    arm, checked = shadowed
    arm(program)
    drive(LocalRuntime(program))
    every_method = {(entity, method)
                    for entity, compiled in program.entities.items()
                    for method in compiled.methods}
    assert set(checked) | REFERENCE_SCOPE_BUG >= every_method
    assert all(checked[name] for name in every_method - REFERENCE_SCOPE_BUG)


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
