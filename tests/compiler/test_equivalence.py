"""Split-execution equivalence: the compiled state machine must behave
exactly like the original imperative Python.

For every zoo method we run the compiled program on the Local runtime
and the plain-Python oracle twin directly, on the same inputs, and
compare both the return value and the final entity states.  Hypothesis
drives the inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from zoo import (
    ZOO_CASES,
    ZOO_ENTITIES,
    ZOO_SCOPE_CASES,
    OracleCounter,
    OracleZoo,
)

from repro import compile_program
from repro.core.errors import InvocationError
from repro.runtimes import LocalRuntime


def _run_compiled(zoo_program, method, args):
    runtime = LocalRuntime(zoo_program)
    counter = runtime.create("Counter", "c1")
    zoo = runtime.create("Zoo", "z1")
    result = runtime.invoke(zoo, method, counter, *args)
    return (result.unwrap(),
            runtime.entity_state(counter),
            runtime.entity_state(zoo))


def _run_oracle(method, args):
    counter = OracleCounter("c1")
    zoo = OracleZoo("z1")
    value = getattr(zoo, method)(counter, *args)
    return value, vars(counter), vars(zoo)


@pytest.mark.parametrize("method,make_args", ZOO_CASES,
                         ids=[case[0] for case in ZOO_CASES])
@given(x=st.integers(min_value=0, max_value=12))
@settings(max_examples=20, deadline=None)
def test_zoo_method_equivalence(zoo_program, method, make_args, x):
    args = make_args(x)
    compiled_value, compiled_counter, compiled_zoo = _run_compiled(
        zoo_program, method, args)
    oracle_value, oracle_counter, oracle_zoo = _run_oracle(method, args)
    assert compiled_value == oracle_value
    assert compiled_counter == oracle_counter
    assert compiled_zoo == oracle_zoo


@given(x=st.integers(min_value=-10, max_value=10))
@settings(max_examples=25, deadline=None)
def test_local_only_equivalence(zoo_program, x):
    runtime = LocalRuntime(zoo_program)
    zoo = runtime.create("Zoo", "z1")
    compiled = runtime.call(zoo, "local_only", x)
    assert compiled == OracleZoo("z1").local_only(x)


@given(x=st.integers(min_value=0, max_value=8),
       y=st.integers(min_value=0, max_value=8))
@settings(max_examples=15, deadline=None)
def test_sequential_calls_accumulate_like_python(zoo_program, x, y):
    """State persists across invocations identically in both worlds."""
    runtime = LocalRuntime(zoo_program)
    counter = runtime.create("Counter", "c1")
    zoo = runtime.create("Zoo", "z1")
    runtime.call(zoo, "straight", counter, x)
    runtime.call(zoo, "loop_for", counter, y)
    compiled_state = runtime.entity_state(counter)

    oracle_counter = OracleCounter("c1")
    oracle = OracleZoo("z1")
    oracle.straight(oracle_counter, x)
    oracle.loop_for(oracle_counter, y)
    assert compiled_state == vars(oracle_counter)


def test_constructs_creates_entity(zoo_program):
    runtime = LocalRuntime(zoo_program)
    zoo = runtime.create("Zoo", "z1")
    result = runtime.call(zoo, "constructs", "fresh-counter", 9)
    assert result == 9
    from repro.core.refs import EntityRef

    assert runtime.entity_state(
        EntityRef("Counter", "fresh-counter")) == {
            "cid": "fresh-counter", "value": 9}


def test_split_all_mode_equivalent(zoo_program):
    """Paper-literal splitting (every control-flow construct) must not
    change behaviour."""
    eager = compile_program(ZOO_ENTITIES, split_all_control_flow=True)
    for method, make_args in ZOO_CASES:
        args = make_args(5)
        lazy_result = _run_compiled(zoo_program, method, args)
        eager_result = _run_compiled(eager, method, args)
        assert lazy_result == eager_result, method


@pytest.fixture(scope="module")
def eager_zoo_program():
    return compile_program(ZOO_ENTITIES, split_all_control_flow=True)


@pytest.mark.parametrize("split_all", [False, True], ids=["lazy", "eager"])
@pytest.mark.parametrize("method,make_args", ZOO_SCOPE_CASES,
                         ids=[case[0] for case in ZOO_SCOPE_CASES])
def test_scope_rules_match_python(zoo_program, eager_zoo_program, method,
                                  make_args, split_all):
    """Frame variables follow Python's scope rules across a suspension:
    where the plain-Python twin raises (a local that is unbound on this
    path, even if a module global has its name), the compiled method
    fails with that very exception instead of reading something else."""
    program = eager_zoo_program if split_all else zoo_program
    for x in range(9):
        args = make_args(x)
        runtime = LocalRuntime(program)
        counter = runtime.create("Counter", "c1")
        zoo = runtime.create("Zoo", "z1")
        result = runtime.invoke(zoo, method, counter, *args)
        try:
            expected = _run_oracle(method, args)[0]
        except NameError as exc:
            assert result.error is not None, (method, x)
            assert result.error.endswith(repr(exc)), (method, x)
            assert f"error while executing Zoo.{method}_" in result.error
        else:
            assert result.unwrap() == expected, (method, x)


def test_unbound_frame_variable_raises_wrapped_name_error(zoo_program):
    """The scope-rule bug at the source: ``LIMIT`` is assigned on the
    untaken branch, so it is local and unbound — not the module's 5."""
    compiled = zoo_program.entities["Zoo"]
    method = compiled.methods["shadowed_global"]
    instance = compiled.make_instance({"zid": "z", "calls": 0})
    kind, node, *_, store = method.run(
        instance, method.entry, method.initial_store(("c-ref", 1)))
    assert kind == "invoke"
    continuation = method.machine.node(node).terminator.continuation
    with pytest.raises(InvocationError) as excinfo:
        method.run(instance, continuation, store)
    assert isinstance(excinfo.value.__cause__, UnboundLocalError)
