"""Function splitting: the paper's worked example and every control-flow
shape."""

import pytest

from zoo import Counter, Item, User, Zoo

from repro.compiler import analyze_class, build_call_graph, split_method
from repro.compiler.blocks import (
    BranchTerminator,
    ConstructTerminator,
    InvokeTerminator,
    ReturnTerminator,
)
from repro.workloads.ycsb import Account


def _split(classes, entity_name, method, **kwargs):
    descriptors = {cls.__name__: analyze_class(cls) for cls in classes}
    graph = build_call_graph(descriptors)
    needs = graph.methods_needing_split()
    return split_method(descriptors[entity_name], method, descriptors,
                        needs, **kwargs)


class TestPaperExample:
    """Section 2.4: buy_item splits at each remote call."""

    def test_block_naming(self):
        result = _split([Item, User], "User", "buy_item")
        assert result.entry == "buy_item_0"
        assert all(bid.startswith("buy_item_") for bid in result.block_ids())

    def test_was_split(self):
        result = _split([Item, User], "User", "buy_item")
        assert result.was_split
        assert len(result.blocks) >= 4
        # YCSB's transfer calls its peer: it splits the same way.
        transfer = _split([Account], "Account", "transfer")
        assert transfer.was_split and transfer.entry == "transfer_0"

    def test_first_block_suspends_at_price(self):
        result = _split([Item, User], "User", "buy_item")
        entry = result.block("buy_item_0")
        assert isinstance(entry.terminator, InvokeTerminator)
        assert entry.terminator.method == "price"
        assert entry.terminator.entity_type == "Item"

    def test_continuation_receives_return_value(self):
        result = _split([Item, User], "User", "buy_item")
        terminator = result.block("buy_item_0").terminator
        continuation = result.block(terminator.continuation)
        # The continuation references the call's result variable.
        assert terminator.result_var in continuation.reads

    def test_blocks_return_defined_take_referenced(self):
        """Paper: 'each function that was split takes as arguments the
        variables it references in its body and returns the variables it
        defines.'"""
        result = _split([Item, User], "User", "buy_item")
        for block in result.blocks.values():
            assert block.reads.isdisjoint({"self"})
            for name in ("__cond__", "__ret__"):
                assert name not in block.reads

    def test_compensation_branch_present(self):
        result = _split([Item, User], "User", "buy_item")
        invokes = [b.terminator for b in result.blocks.values()
                   if isinstance(b.terminator, InvokeTerminator)]
        assert sum(1 for t in invokes if t.method == "update_stock") == 2


class TestShapes:
    def test_unsplit_method_single_block(self):
        result = _split([Item, User], "Item", "update_stock")
        assert not result.was_split
        only = result.block(result.entry)
        assert isinstance(only.terminator, ReturnTerminator)

    def test_straight_line_two_calls(self):
        result = _split([Counter, Zoo], "Zoo", "straight")
        invokes = [b for b in result.blocks.values()
                   if isinstance(b.terminator, InvokeTerminator)]
        assert len(invokes) == 2

    def test_expression_nesting_hoisted(self):
        result = _split([Counter, Zoo], "Zoo", "expr_nested")
        invokes = [b for b in result.blocks.values()
                   if isinstance(b.terminator, InvokeTerminator)]
        assert len(invokes) == 2

    def test_branch_produces_branch_terminator(self):
        result = _split([Counter, Zoo], "Zoo", "branch")
        kinds = [type(b.terminator) for b in result.blocks.values()]
        assert BranchTerminator in kinds

    def test_loop_has_cycle(self):
        result = _split([Counter, Zoo], "Zoo", "loop_for")
        # Some block must jump backwards (to the loop header).
        ids = result.block_ids()
        position = {bid: i for i, bid in enumerate(ids)}
        has_back_edge = False
        for block in result.blocks.values():
            for target in _targets(block):
                if position[target] < position[block.block_id]:
                    has_back_edge = True
        assert has_back_edge

    def test_self_call_marked(self):
        result = _split([Counter, Zoo], "Zoo", "helper_chain")
        invoke = next(b.terminator for b in result.blocks.values()
                      if isinstance(b.terminator, InvokeTerminator))
        assert invoke.is_self_call
        assert invoke.entity_type == "Zoo"

    def test_constructor_terminator(self):
        result = _split([Counter, Zoo], "Zoo", "constructs")
        kinds = [type(b.terminator) for b in result.blocks.values()]
        assert ConstructTerminator in kinds

    def test_local_only_stays_single_block(self):
        result = _split([Counter, Zoo], "Zoo", "local_only")
        assert not result.was_split

    def test_split_all_control_flow_mode(self):
        lazy = _split([Counter, Zoo], "Zoo", "local_only")
        eager = _split([Counter, Zoo], "Zoo", "local_only",
                       split_all_control_flow=True)
        assert len(eager.blocks) > len(lazy.blocks)

    def test_remote_in_condition_splits_before_if(self):
        result = _split([Counter, Zoo], "Zoo", "remote_in_condition")
        entry = result.block(result.entry)
        assert isinstance(entry.terminator, InvokeTerminator)

    def test_while_with_remote_condition(self):
        result = _split([Counter, Zoo], "Zoo", "remote_in_while_condition")
        assert result.was_split
        assert any(isinstance(b.terminator, BranchTerminator)
                   for b in result.blocks.values())


def _targets(block):
    terminator = block.terminator
    if isinstance(terminator, BranchTerminator):
        return [terminator.true_target, terminator.false_target]
    if isinstance(terminator, InvokeTerminator):
        return [terminator.continuation]
    if hasattr(terminator, "target"):
        return [terminator.target]
    return []


class TestStructure:
    def test_every_block_has_terminator(self):
        result = _split([Item, User], "User", "buy_item")
        for block in result.blocks.values():
            assert block.terminator is not None

    def test_all_targets_exist(self):
        result = _split([Counter, Zoo], "Zoo", "loop_while_break")
        for block in result.blocks.values():
            for target in _targets(block):
                assert target in result.blocks

    def test_serializable(self):
        result = _split([Item, User], "User", "buy_item")
        document = result.to_dict()
        assert document["entry"] == "buy_item_0"
        assert set(document["blocks"]) == set(result.block_ids())
