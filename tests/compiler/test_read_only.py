"""Which methods write nothing, and why the rule is sound.

A block *may write* unless every ``self`` in it is a loaded
``self.<name>`` (optionally subscripted) whose value is consumed at
once; a method is read-only when none of its blocks may write, and the
executor then never writes its entity back.  Each ``Scribe`` method
changes the instance by a different route, none of them an assignment
``self.<name> = ...``: the analysis must call every one may-write, where
a rule that looks only for such an assignment calls each one read-only
— and for every route that writes, skipping the write-back on its word
loses the write.  Each ``Glance`` method consumes attribute values in
one of the ways the rule accepts, and is read-only.  The check that no
call of a read-only method changes the instance, over every scenario of
the differential battery, is in ``test_differential.py``.
"""

from __future__ import annotations

import ast
import copy
import json

import pytest

from repro import compile_program, dataflow_from_json, dataflow_to_json, entity
from repro.compiler.pipeline import recompile_from_ir
from repro.compiler.state_machine import StateMachine, StateNode
from repro.runtimes import LocalRuntime


def _append(items: list, value: int) -> None:
    items.append(value)


def _poke(target, value: int) -> None:
    target.count = value


def _measure(items: list) -> int:
    items.append(0)
    return 0


@entity
class Scribe:
    def __init__(self, sid: str):
        self.sid: str = sid
        self.count: int = 1
        self.items: list = [1, 2]
        self.rows: list = [{"n": 0}]
        self.payload: str = "p"

    def __key__(self):
        return self.sid

    def augmented(self, v: int) -> int:
        self.count += v
        return v

    def deletes(self, v: int) -> int:
        del self.payload
        return v

    def subscript_store(self, v: int) -> int:
        self.items[0] = v
        return v

    def attribute_call(self, v: int) -> int:
        self.items.append(v)
        return v

    def binds_name(self, v: int) -> int:
        items = self.items
        items.append(v)
        return v

    def loop_target(self, v: int) -> int:
        for row in self.rows:
            row["n"] = v
        return v

    def comprehension_target(self, v: int) -> int:
        return len([row.update(n=v) for row in self.rows])

    def container_literal(self, v: int) -> int:
        [self.items][0].append(v)
        return v

    def other_call(self, v: int) -> int:
        _append(self.items, v)
        return v

    def bare_self(self, v: int) -> int:
        _poke(self, v)
        return v

    def boolean_passes_it_on(self, v: int) -> int:
        (self.items or []).append(v)
        return v

    def via_setattr(self, v: int) -> int:
        setattr(self, "count", v)
        return v

    def via_getattr(self, v: int) -> int:
        getattr(self, "items").append(v)
        return v

    def via_delattr(self, v: int) -> int:
        delattr(self, "payload")
        return v

    def via_vars(self, v: int) -> int:
        vars()["self"].count = v
        return v

    def via_locals(self, v: int) -> int:
        locals()["self"].count = v
        return v

    def via_eval(self, v: int) -> int:
        eval("self.items").append(v)
        return v

    def via_exec(self, v: int) -> int:
        exec("self.count += 1")
        return v

    def via_super(self, v: int) -> int:
        super(Scribe, self).__setattr__("count", v)
        return v

    def self_call(self, v: int) -> int:
        return self.augmented(v)

    def shadows_len(self, v: int) -> int:
        len = _measure
        return len(self.items) + v

    # Flagged, though these leave the entity as it was.
    def reads_dict(self, v: int) -> int:
        return len(self.__dict__) + v

    def via_globals(self, v: int) -> int:
        return int("_poke" in globals()) + v


@entity
class Glance:
    def __init__(self, gid: str):
        self.gid: str = gid
        self.count: int = 3
        self.ratio: float = 2.5
        self.items: list = [4, 5, 6]
        self.rows: list = [{"n": 7}]
        self.payload: str = "g"

    def __key__(self):
        return self.gid

    def returns(self) -> list:
        return self.items

    def subscripted(self, i: int) -> int:
        return self.items[i] + self.rows[0]["n"]

    def compares(self, v: int) -> bool:
        return self.count > v and v in self.items

    def arithmetic(self, v: int) -> int:
        return self.count * 2 + v - self.items[0]

    def boolean(self, v: int) -> list:
        return self.items and self.rows or [v]

    def unary(self) -> bool:
        return -self.count < 0 and not self.payload == ""

    def if_test(self, v: int) -> int:
        if self.items:
            return v
        return -v

    def while_test(self) -> int:
        n: int = 0
        while n < len(self.items):
            n += 1
        return n

    def conditional(self, v: int) -> list:
        return self.items if v > self.count else self.rows

    def formats(self) -> str:
        return f"{self.payload}:{self.count!r}"

    def builtins(self) -> str:
        return str(len(self.items) + abs(self.count) + int(bool(self.rows))
                   + round(self.ratio) + int(float(self.count))) + repr(
            self.payload)


#: Scribe methods that change the instance.
WRITE_ROUTES = ["augmented", "deletes", "subscript_store", "attribute_call",
                "binds_name", "loop_target", "comprehension_target",
                "container_literal", "other_call", "bare_self",
                "boolean_passes_it_on", "via_setattr", "via_getattr",
                "via_delattr", "via_vars", "via_locals", "via_eval",
                "via_exec", "via_super", "self_call"]
#: Scribe methods the rule flags that write nothing.
FLAGGED_ONLY = ["reads_dict", "via_globals"]
#: (method, args) of every Glance method.
READ_CASES = [("returns", ()), ("subscripted", (1,)), ("compares", (5,)),
              ("arithmetic", (2,)), ("boolean", (9,)), ("unary", ()),
              ("if_test", (3,)), ("while_test", ()), ("conditional", (1,)),
              ("formats", ()), ("builtins", ())]


@pytest.fixture(scope="module")
def program():
    return compile_program([Scribe, Glance])


def _naive_read_only(program, entity_name: str, method: str) -> bool:
    """The naive rule: a method writes iff it assigns ``self.<name>``."""
    return not any(
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name) and target.value.id == "self"
        for block in program.split(entity_name, method).blocks.values()
        for statement in block.statements
        for node in ast.walk(statement)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign)
                       else [node.target]))


def _read_only(program, entity_name: str, method: str) -> bool:
    return program.entities[entity_name].methods[method].read_only


@pytest.mark.parametrize("method", WRITE_ROUTES + FLAGGED_ONLY)
def test_every_route_to_a_write_may_write(program, method):
    assert not _read_only(program, "Scribe", method)
    # The naive rule misses it.
    assert _naive_read_only(program, "Scribe", method)


def _run(program, entity_name: str, method: str, *args):
    runtime = LocalRuntime(program)
    ref = runtime.create(entity_name, "k")
    result = runtime.invoke(ref, method, *args)
    return result.error or result.value, runtime.entity_state(ref)


@pytest.mark.parametrize("method", WRITE_ROUTES + FLAGGED_ONLY)
def test_skipping_the_write_back_on_the_naive_word_loses_the_write(method):
    oracle = Scribe("k")
    expected = (getattr(oracle, method)(5), vars(oracle))
    assert _run(compile_program([Scribe]), "Scribe", method, 5) == expected
    naive = compile_program([Scribe])
    naive.entities["Scribe"].methods[method].read_only = True
    got = _run(naive, "Scribe", method, 5)
    assert got[0] == expected[0]
    if method in FLAGGED_ONLY:
        assert got == expected
    else:
        assert got[1] == vars(Scribe("k")) != expected[1]


def test_a_shadowed_scalar_builtin_voids_the_rule(program):
    """``len`` here is a local that appends: the blocks pass the rule,
    which trusts the name, and the compiled method is still may-write."""
    method = program.entities["Scribe"].methods["shadows_len"]
    assert method.machine.read_only
    assert not method.read_only


@pytest.mark.parametrize("method,args", READ_CASES)
def test_every_consumer_the_rule_accepts_is_read_only(program, method, args):
    assert _read_only(program, "Glance", method)
    oracle = Glance("k")
    before = copy.deepcopy(vars(oracle))
    expected = getattr(oracle, method)(*args)
    assert vars(oracle) == before
    assert _run(program, "Glance", method, *args) == (expected, before)


def test_constructors_are_never_read_only(program):
    for compiled in program.entities.values():
        assert not compiled.methods["__init__"].read_only


def test_the_bundled_programs(account_program, shop_program,
                              example_entities):
    account = account_program.entities["Account"].methods
    assert account["read"].read_only
    for name in ("write", "add", "deposit", "transfer"):
        assert not account[name].read_only, name
    assert shop_program.entities["Item"].methods["price"].read_only
    checkout = compile_program(example_entities["checkout"]).entities
    assert not checkout["Product"].methods["reserve"].read_only
    assert not checkout["Wallet"].methods["charge"].read_only
    assert not checkout["Cart"].methods["checkout"].read_only


def _read_only_methods(program) -> set[tuple[str, str]]:
    return {(entity_name, name)
            for entity_name, compiled in program.entities.items()
            for name, method in compiled.methods.items() if method.read_only}


def test_the_bit_travels_in_the_ir(program):
    document = dataflow_to_json(program.dataflow)
    nodes = json.loads(document)["dataflow"]["operators"]["Glance"][
        "machines"]["returns"]["nodes"]
    assert [node["may_write"] for node in nodes.values()] == [False]
    shipped = dataflow_from_json(document)
    assert shipped.operator("Glance").machine("returns").read_only
    assert not shipped.operator("Scribe").machine("augmented").read_only
    assert "returns: 1 block(s) [read-only]" in shipped.describe()
    rebuilt = recompile_from_ir(shipped)
    assert _read_only_methods(rebuilt) == _read_only_methods(program) == {
        ("Glance", name) for name, _ in READ_CASES}


def test_an_ir_without_the_bit_reads_as_may_write(account_program):
    machine = account_program.entities["Account"].methods["read"].machine
    assert machine.read_only
    document = machine.to_dict()
    for node in document["nodes"].values():
        del node["may_write"]
    assert not StateMachine.from_dict(document).read_only
    assert StateNode.from_dict(document["nodes"]["read_0"]).may_write
