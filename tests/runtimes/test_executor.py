"""Operator executor: event handling, suspension, instrumentation."""

import pytest

from repro.compiler.blocks import JumpTerminator
from repro.core.errors import EntityNotFoundError
from repro.core.refs import EntityRef
from repro.ir.events import Event, EventKind, ExecutionState
from repro.runtimes.executor import (
    Instrumentation,
    OperatorExecutor,
    run_constructor,
)
from repro.runtimes.state import DictStateBackend


@pytest.fixture()
def executor(shop_program):
    return OperatorExecutor(shop_program.entities)


@pytest.fixture()
def state(shop_program):
    access = DictStateBackend()
    access.put("Item", "apple",
               {"item_id": "apple", "stock": 10, "price_per_unit": 3})
    access.put("User", "alice", {"username": "alice", "balance": 100})
    return access


def _invoke(entity, key, method, *args, request_id=1):
    return Event(kind=EventKind.INVOKE, target=EntityRef(entity, key),
                 method=method, args=args, request_id=request_id)


class TestSimpleInvocation:
    def test_reply_emitted(self, executor, state):
        outs = executor.handle(_invoke("Item", "apple", "price"), state)
        assert len(outs) == 1
        reply = outs[0]
        assert reply.kind is EventKind.REPLY
        assert reply.payload == 3
        assert reply.request_id == 1

    def test_state_flushed(self, executor, state):
        executor.handle(_invoke("Item", "apple", "update_stock", 5), state)
        assert state.get("Item", "apple")["stock"] == 15

    def test_missing_entity_error_reply(self, executor, state):
        outs = executor.handle(_invoke("Item", "nope", "price"), state)
        assert outs[0].error is not None

    def test_constructor_creates_and_replies_ref(self, executor, state):
        outs = executor.handle(
            _invoke("Item", None, "__init__", "pear", 7), state)
        assert outs[0].payload == EntityRef("Item", "pear")
        assert state.get("Item", "pear")["price_per_unit"] == 7


class TestSuspension:
    def test_remote_call_suspends_with_invoke(self, executor, state):
        outs = executor.handle(
            _invoke("User", "alice", "buy_item", 2,
                    EntityRef("Item", "apple")), state)
        assert len(outs) == 1
        invoke = outs[0]
        assert invoke.kind is EventKind.INVOKE
        assert invoke.target == EntityRef("Item", "apple")
        assert invoke.method == "price"
        # The caller frame is suspended underneath.
        assert invoke.execution.depth == 1
        frame = invoke.execution.top
        assert frame.method == "buy_item"
        assert frame.node == "buy_item_1"
        assert frame.result_var is not None

    def test_full_chain_by_hand(self, executor, state):
        """Drive the event ping-pong manually until the final REPLY."""
        pending = [_invoke("User", "alice", "buy_item", 2,
                           EntityRef("Item", "apple"))]
        replies = []
        hops = 0
        while pending:
            event = pending.pop(0)
            if event.kind is EventKind.REPLY:
                replies.append(event)
                continue
            pending.extend(executor.handle(event, state))
            hops += 1
            assert hops < 50
        assert len(replies) == 1
        assert replies[0].payload is True
        assert state.get("User", "alice")["balance"] == 94
        assert state.get("Item", "apple")["stock"] == 8

    def test_resume_binds_result_var(self, executor, state):
        outs = executor.handle(
            _invoke("User", "alice", "buy_item", 2,
                    EntityRef("Item", "apple")), state)
        execution = outs[0].execution
        resume = Event(kind=EventKind.RESUME,
                       target=EntityRef("User", "alice"),
                       payload=3, execution=execution, request_id=1)
        outs2 = executor.handle(resume, state)
        # price=3 -> total=6 <= 100 -> proceeds to update_stock(-2).
        assert outs2[0].kind is EventKind.INVOKE
        assert outs2[0].method == "update_stock"
        assert outs2[0].args == (-2,)


class TestErrorAttribution:
    def test_failure_after_resume_names_the_block_that_raised(
            self, zoo_program):
        """The block in the error is where the exception happened — not
        the entry block, and not the block the visit resumed at."""
        executor = OperatorExecutor(zoo_program.entities)
        state = DictStateBackend()
        state.put("Zoo", "z", {"zid": "z", "calls": 0})
        outs = executor.handle(
            _invoke("Zoo", "z", "branch_else", EntityRef("Counter", "c"), 2),
            state)
        resumed_at = outs[0].execution.top.node
        machine = zoo_program.entities["Zoo"].methods["branch_else"].machine
        join = machine.node(resumed_at).terminator
        assert isinstance(join, JumpTerminator)
        # `result = even` binds the payload; the join block's
        # `result + x` is the statement that cannot add str and int.
        resume = Event(kind=EventKind.RESUME, target=EntityRef("Zoo", "z"),
                       payload="not-a-number", execution=outs[0].execution,
                       request_id=1)
        reply = executor.handle(resume, state)[0]
        assert reply.kind is EventKind.REPLY
        assert reply.error.startswith(
            f"error while executing Zoo.{join.target}: TypeError(")
        assert join.target not in (machine.entry, resumed_at)


class TestInstrumentation:
    def test_components_recorded(self, shop_program, state):
        instr = Instrumentation()
        executor = OperatorExecutor(shop_program.entities,
                                    instrumentation=instr)
        executor.handle(_invoke("Item", "apple", "update_stock", 1), state)
        assert instr.components["object_construction"] > 0
        assert instr.components["function_execution"] > 0
        assert instr.components["state_storage"] >= 0
        assert instr.total() > 0
        # One invocation = one frame pop, flush, serde pass, and
        # instance build; counted operations are deterministic even
        # when the measured durations aren't.
        assert instr.counts["split_instrumentation"] == 1
        assert instr.counts["object_construction"] == 1
        assert instr.counts["state_serde"] == 1
        assert instr.counts["state_storage"] == 1
        share = instr.share("split_instrumentation")
        assert share is not None and 0 <= share <= 1

    def test_share_is_none_for_unmeasured_components(self):
        instr = Instrumentation()
        # Nothing measured yet: every share is unknown, not zero.
        assert instr.share("function_execution") is None
        instr.add("function_execution", 0.5)
        assert instr.share("function_execution") == 1.0
        assert instr.share("state_storage") is None

    def test_injected_clock_drives_measurements(self, shop_program, state):
        ticks = iter(range(1000))
        instr = Instrumentation(clock=lambda: float(next(ticks)))
        executor = OperatorExecutor(shop_program.entities,
                                    instrumentation=instr)
        executor.handle(_invoke("Item", "apple", "update_stock", 1), state)
        # Every region read the fake clock, so each measured duration is
        # a positive whole number of ticks — byte-identical on reruns.
        assert instr.total() > 0
        assert all(duration == int(duration) and duration >= 1
                   for duration in instr.components.values())


class TestRunConstructor:
    def test_returns_key_and_state(self, shop_program):
        compiled = shop_program.entities["Item"]
        key, state = run_constructor(compiled, ("apple", 3))
        assert key == "apple"
        assert state == {"item_id": "apple", "stock": 0,
                         "price_per_unit": 3}
