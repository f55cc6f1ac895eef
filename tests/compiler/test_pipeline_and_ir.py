"""End-to-end pipeline + IR serialisation/portability."""

import pytest

from zoo import SHOP_ENTITIES

from repro import compile_program, dataflow_from_json, dataflow_to_json
from repro.compiler import recompile_from_ir
from repro.core.entity import scoped_registry
from repro.ir import EGRESS, INGRESS, StatefulDataflow
from repro.ir.serde import load_dataflow, save_dataflow
from repro.runtimes import LocalRuntime


class TestPipeline:
    def test_operator_per_entity(self, shop_program):
        assert set(shop_program.dataflow.operators) == {"Item", "User"}

    def test_edges_include_routers(self, shop_program):
        targets = shop_program.dataflow.successors(INGRESS)
        assert set(targets) == {"Item", "User"}
        assert EGRESS in shop_program.dataflow.successors("Item")

    def test_call_edges_both_directions(self, shop_program):
        assert "Item" in shop_program.dataflow.successors("User")
        assert "User" in shop_program.dataflow.successors("Item")

    def test_dataflow_has_cycles_for_calls(self, shop_program):
        assert shop_program.dataflow.has_cycles()

    def test_transactional_methods_listed(self, shop_program):
        assert shop_program.dataflow.transactional_methods() == [
            ("User", "buy_item")]

    def test_split_method_count(self, shop_program):
        assert shop_program.dataflow.split_method_count() == 1

    def test_compile_from_registry(self):
        registry = scoped_registry(SHOP_ENTITIES)
        program = compile_program(registry=registry)
        assert set(program.entities) == {"Item", "User"}

    def test_describe_readable(self, shop_program):
        text = shop_program.dataflow.describe()
        assert "operator User" in text
        assert "[split]" in text
        assert "[transactional]" in text
        assert ("    buy_item: 6 block(s) [split] [transactional] "
                "[state-free: buy_item_4]") in text.splitlines()


class TestIrSerde:
    def test_json_roundtrip(self, shop_program):
        document = dataflow_to_json(shop_program.dataflow)
        restored = dataflow_from_json(document)
        assert set(restored.operators) == {"Item", "User"}
        machine = restored.operator("User").machine("buy_item")
        assert machine.entry == "buy_item_0"

    def test_file_roundtrip(self, shop_program, tmp_path):
        path = str(tmp_path / "app.dataflow.json")
        save_dataflow(shop_program.dataflow, path)
        restored = load_dataflow(path)
        assert restored.to_dict() == shop_program.dataflow.to_dict()

    def test_bad_document_rejected(self):
        with pytest.raises(ValueError):
            dataflow_from_json('{"format": "other"}')
        with pytest.raises(ValueError):
            dataflow_from_json(
                '{"format": "stateful-dataflow-ir", "version": 99}')

    def test_unknown_operator_lookup(self):
        with pytest.raises(Exception) as excinfo:
            StatefulDataflow().operator("Ghost")
        assert "Ghost" in str(excinfo.value)


class TestPortability:
    """The IR deploys to a "different system": recompiled from shipped
    source, it must behave identically."""

    def test_recompile_and_run(self, shop_program):
        document = dataflow_to_json(shop_program.dataflow)
        shipped = dataflow_from_json(document)
        program = recompile_from_ir(shipped)
        runtime = LocalRuntime(program)
        apple = runtime.create("Item", "apple", 3)
        runtime.call(apple, "update_stock", 10)
        alice = runtime.create("User", "alice")
        assert runtime.call(alice, "buy_item", 2, apple) is True
        assert runtime.entity_state(alice)["balance"] == 94
        assert runtime.entity_state(apple)["stock"] == 8

    def test_recompiled_preserves_transactional(self, shop_program):
        shipped = dataflow_from_json(dataflow_to_json(shop_program.dataflow))
        program = recompile_from_ir(shipped)
        descriptor = program.entities["User"].descriptor
        assert descriptor.methods["buy_item"].is_transactional

    def test_recompiled_machines_equivalent(self, shop_program):
        shipped = dataflow_from_json(dataflow_to_json(shop_program.dataflow))
        program = recompile_from_ir(shipped)
        original = shop_program.entities["User"].methods["buy_item"].machine
        rebuilt = program.entities["User"].methods["buy_item"].machine
        assert rebuilt.to_dict() == original.to_dict()
