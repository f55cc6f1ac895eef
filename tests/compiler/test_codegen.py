"""Code generation: the resumable function, early returns, materialisation."""

import pytest

from zoo import Counter, Item, User

from repro.compiler import analyze_class, compile_program, materialize_class
from repro.core.errors import CompilationError, InvocationError
from repro.core.entity import entity_source


class TestBlockExecution:
    def test_initial_store_binds_params(self, shop_program):
        method = shop_program.entities["User"].methods["buy_item"]
        store = method.initial_store((3, "item-ref"))
        assert store == {"amount": 3, "item": "item-ref"}

    def test_initial_store_arity_checked(self, shop_program):
        method = shop_program.entities["User"].methods["buy_item"]
        with pytest.raises(InvocationError):
            method.initial_store((1,))

    def test_initial_store_arity_error_names_the_parameters(self,
                                                            shop_program):
        method = shop_program.entities["User"].methods["buy_item"]
        assert method.params == ("amount", "item")
        with pytest.raises(InvocationError) as excinfo:
            method.initial_store((1,))
        assert str(excinfo.value) == (
            "User.buy_item expects 2 argument(s) ['amount', 'item'], got 1")

    def test_run_updates_instance(self, shop_program):
        compiled = shop_program.entities["Item"]
        method = compiled.methods["update_stock"]
        instance = compiled.make_instance(
            {"item_id": "a", "stock": 5, "price_per_unit": 2})
        kind, node, value, target, store = method.run(
            instance, method.entry, {"amount": 3})
        assert instance.stock == 8
        assert (kind, node, value, target) == (
            "return", "update_stock_0", True, None)
        assert store == {"amount": 3}

    def test_user_exception_wrapped(self, shop_program):
        compiled = shop_program.entities["Item"]
        method = compiled.methods["update_stock"]
        instance = compiled.make_instance(
            {"item_id": "a", "stock": 5, "price_per_unit": 2})
        with pytest.raises(InvocationError) as excinfo:
            method.run(instance, method.entry, {"amount": "oops"})
        assert "update_stock" in str(excinfo.value)

    def test_failure_in_resumed_block_is_attributed_and_chained(
            self, shop_program):
        compiled = shop_program.entities["User"]
        method = compiled.methods["buy_item"]
        instance = compiled.make_instance({"username": "u", "balance": 10})
        result_var = method.machine.node(method.entry).terminator.result_var
        with pytest.raises(InvocationError) as excinfo:
            method.run(instance, "buy_item_1",
                       {"amount": 2, "item": "ref", result_var: None})
        cause = excinfo.value.__cause__
        assert isinstance(cause, TypeError)
        assert str(excinfo.value) == (
            f"error while executing User.buy_item_1: {cause!r}")
        assert excinfo.value.cause == repr(cause)

    def test_store_survives_conditionally_undefined_names(self, zoo_program):
        compiled = zoo_program.entities["Zoo"]
        method = compiled.methods["local_only"]
        instance = compiled.make_instance({"zid": "z", "calls": 0})
        kind, _, value, _, store = method.run(instance, method.entry,
                                              {"x": -5})
        # The early return pre-empts the block before `total`/`i` exist.
        assert (kind, value) == ("return", -1)
        assert store == {"x": -5}

    def test_unknown_block_rejected(self, shop_program):
        compiled = shop_program.entities["Item"]
        with pytest.raises(InvocationError, match="no block 'price_9'"):
            compiled.methods["price"].run(compiled.blank_instance(),
                                          "price_9", {})


class TestInstanceBridge:
    def test_make_and_extract_state(self, shop_program):
        compiled = shop_program.entities["User"]
        state = {"username": "bob", "balance": 7}
        instance = compiled.make_instance(state)
        assert compiled.extract_state(instance) == state

    def test_key_of_state(self, shop_program):
        compiled = shop_program.entities["Item"]
        assert compiled.key_of_state(
            {"item_id": "pear", "stock": 0, "price_per_unit": 1}) == "pear"

    def test_blank_instance_skips_init(self, shop_program):
        compiled = shop_program.entities["User"]
        instance = compiled.blank_instance()
        assert not vars(instance)

    def test_unknown_method_rejected(self, shop_program):
        with pytest.raises(InvocationError):
            shop_program.entities["User"].method("does_not_exist")


class TestMaterialisation:
    def test_materialize_from_source(self):
        descriptor = analyze_class(Item)
        cls, namespace = materialize_class(descriptor)
        instance = cls("pear", 4)
        assert instance.price_per_unit == 4
        assert namespace[descriptor.name] is cls

    def test_materialize_with_decorators_in_source(self):
        descriptor = analyze_class(User)
        assert "@" in entity_source(User) or True  # decorators may be absent
        cls, _ = materialize_class(descriptor)
        assert cls.__name__ == "User"

    def test_materialize_requires_source(self):
        descriptor = analyze_class(Item)
        descriptor.source = None
        with pytest.raises(CompilationError):
            materialize_class(descriptor)


class TestModuleGlobals:
    def test_module_helpers_usable_in_blocks(self, tmp_path):
        # An entity whose method uses a module-level helper function.
        module_file = tmp_path / "helpermod.py"
        module_file.write_text(
            "from repro import entity\n"
            "def bonus(x):\n"
            "    return x + 100\n"
            "@entity\n"
            "class Uses:\n"
            "    def __init__(self, uid: str):\n"
            "        self.uid: str = uid\n"
            "        self.total: int = 0\n"
            "    def __key__(self):\n"
            "        return self.uid\n"
            "    def apply(self, x: int) -> int:\n"
            "        self.total = bonus(x)\n"
            "        return self.total\n")
        import sys
        sys.path.insert(0, str(tmp_path))
        try:
            import helpermod

            program = compile_program([helpermod.Uses])
            from repro.runtimes import LocalRuntime

            runtime = LocalRuntime(program)
            ref = runtime.create("Uses", "u1")
            assert runtime.call(ref, "apply", 5) == 105
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("helpermod", None)

    def test_comprehension_over_store_variables(self, tmp_path):
        """Regression guard for exec-scope pitfalls: comprehensions in
        method bodies must see store variables."""
        module_file = tmp_path / "compmod.py"
        module_file.write_text(
            "from repro import entity\n"
            "@entity\n"
            "class Comp:\n"
            "    def __init__(self, cid: str):\n"
            "        self.cid: str = cid\n"
            "    def __key__(self):\n"
            "        return self.cid\n"
            "    def squares(self, n: int) -> int:\n"
            "        values = [i * i for i in range(n)]\n"
            "        scale = 2\n"
            "        scaled = [v * scale for v in values]\n"
            "        return sum(scaled)\n")
        import sys
        sys.path.insert(0, str(tmp_path))
        try:
            import compmod

            program = compile_program([compmod.Comp])
            from repro.runtimes import LocalRuntime

            runtime = LocalRuntime(program)
            ref = runtime.create("Comp", "c1")
            assert runtime.call(ref, "squares", 4) == 2 * (0 + 1 + 4 + 9)
        finally:
            sys.path.remove(str(tmp_path))
            sys.modules.pop("compmod", None)
