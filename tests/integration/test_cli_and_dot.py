"""CLI + Graphviz export."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir.dot import dataflow_to_dot, machine_to_dot

SHOP_MODULE = (
    "from repro import entity, transactional\n"
    "\n"
    "@entity\n"
    "class Item:\n"
    "    def __init__(self, item_id: str, price: int):\n"
    "        self.item_id: str = item_id\n"
    "        self.stock: int = 0\n"
    "        self.price_per_unit: int = price\n"
    "    def __key__(self):\n"
    "        return self.item_id\n"
    "    def price(self) -> int:\n"
    "        return self.price_per_unit\n"
    "    def update_stock(self, amount: int) -> bool:\n"
    "        self.stock += amount\n"
    "        return self.stock >= 0\n")


@pytest.fixture()
def shop_module(tmp_path):
    path = tmp_path / "shopapp.py"
    path.write_text(SHOP_MODULE, encoding="utf-8")
    return path


def _cli(*args, timeout=120, env=None):
    return subprocess.run([sys.executable, "-m", "repro", *map(str, args)],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


class TestCli:
    def test_compile_to_file(self, shop_module, tmp_path):
        out = tmp_path / "app.json"
        completed = _cli("compile", shop_module, "--out", out)
        assert completed.returncode == 0, completed.stderr
        document = json.loads(out.read_text())
        assert document["format"] == "stateful-dataflow-ir"
        assert "Item" in document["dataflow"]["operators"]

    def test_describe(self, shop_module, tmp_path):
        out = tmp_path / "app.json"
        _cli("compile", shop_module, "--out", out)
        completed = _cli("describe", out)
        assert completed.returncode == 0
        assert "operator Item" in completed.stdout

    def test_dot_dataflow(self, shop_module, tmp_path):
        out = tmp_path / "app.json"
        _cli("compile", shop_module, "--out", out)
        completed = _cli("dot", out)
        assert completed.returncode == 0
        assert completed.stdout.startswith("digraph")
        assert "Item" in completed.stdout

    def test_dot_method(self, shop_module, tmp_path):
        out = tmp_path / "app.json"
        _cli("compile", shop_module, "--out", out)
        completed = _cli("dot", out, "--method", "Item.update_stock")
        assert completed.returncode == 0
        assert "update_stock_0" in completed.stdout

    def test_run_create_and_invoke(self, shop_module):
        created = _cli("run", shop_module, "Item", "__init__", "-",
                       '"apple"', "3")
        assert created.returncode == 0, created.stderr
        assert "Item/apple" in created.stdout

    def test_run_error_exit_code(self, shop_module):
        completed = _cli("run", shop_module, "Item", "price", '"ghost"')
        assert completed.returncode == 1
        assert "error" in completed.stderr

    def test_compile_no_entities(self, tmp_path):
        empty = tmp_path / "empty.py"
        empty.write_text("x = 1\n")
        completed = _cli("compile", empty)
        assert completed.returncode != 0


class TestChaosCli:
    def test_plan_generation_is_reproducible(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for out in (first, second):
            completed = _cli("chaos", "plan", "--seed", 11, "--out", out)
            assert completed.returncode == 0, completed.stderr
        assert first.read_text() == second.read_text()
        plan = json.loads(first.read_text())
        assert plan["seed"] == 11
        assert any(event["kind"] == "crash_worker"
                   for event in plan["events"])

    def test_chaos_run_recovers_and_reproduces(self, tmp_path):
        """Acceptance: a seeded plan (worker crash + message drops) on
        StateFlow recovers loss-free, and the printed trace digest is
        identical across reruns of the same seed."""
        plan_path = tmp_path / "plan.json"
        plan = {
            "seed": 13, "name": "acceptance",
            "events": [
                {"kind": "messages", "at_ms": 100.0, "duration_ms": 900.0,
                 "channel": "network",
                 "profile": {"drop_p": 0.05, "delay_p": 0.1,
                             "delay_ms": 10.0}},
                {"kind": "crash_worker", "at_ms": 500.0, "worker": 1},
            ],
        }
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        digests = []
        for _ in range(2):
            completed = _cli("chaos", "run", "--plan", plan_path,
                             "--seed", 13, "--duration-ms", 1500,
                             "--records", 30, timeout=300)
            assert completed.returncode == 0, (
                completed.stdout + completed.stderr)
            assert "serializable, loss-free, exactly-once" in completed.stdout
            assert "recoveries" in completed.stdout
            (digest_line,) = [line for line in completed.stdout.splitlines()
                              if line.startswith("trace digest:")]
            digests.append(digest_line.split()[-1])
        assert digests[0] == digests[1], "same seed must replay identically"

    def test_chaos_run_different_seed_different_digest(self, tmp_path):
        outputs = []
        for seed in (3, 4):
            completed = _cli("chaos", "run", "--seed", seed,
                             "--duration-ms", 1200, "--records", 25,
                             timeout=300)
            assert completed.returncode == 0, (
                completed.stdout + completed.stderr)
            (digest_line,) = [line for line in completed.stdout.splitlines()
                              if line.startswith("trace digest:")]
            outputs.append(digest_line.split()[-1])
        assert outputs[0] != outputs[1]

    def test_chaos_run_resizes_under_a_plan(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        completed = _cli("chaos", "plan", "--seed", 5, "--duration-ms", 1000,
                         "--out", plan_path)
        assert completed.returncode == 0, completed.stderr
        bench_env = {**os.environ, "REPRO_BENCH_DIR": str(tmp_path)}
        completed = _cli("chaos", "run", "--targets", "4,3", "--workers", 2,
                         "--plan", plan_path, "--duration-ms", 1000,
                         "--rps", 60, "--records", 25, timeout=300,
                         env=bench_env)
        assert completed.returncode == 0, completed.stdout + completed.stderr
        assert "recoveries" in completed.stdout
        assert "migration pause" in completed.stdout


class TestDot:
    def test_dataflow_dot_structure(self, shop_program):
        dot = dataflow_to_dot(shop_program.dataflow)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"User" -> "Item"' in dot
        assert "ingress router" in dot

    def test_machine_dot_structure(self, shop_program):
        machine = shop_program.entities["User"].methods["buy_item"].machine
        dot = machine_to_dot(machine)
        assert "buy_item_0" in dot
        assert "call Item.price" in dot
        assert "doublecircle" in dot  # return nodes

    def test_state_free_continuations_are_dotted(self, account_program):
        machine = account_program.entities["Account"].methods[
            "transfer"].machine
        dot = machine_to_dot(machine).splitlines()
        assert [line for line in dot if "style=dotted" in line] == [
            '  "transfer_1" [shape=doublecircle, style=dotted];']
        assert ('  "__legend__" [shape=plaintext, '
                'label="dotted: resumes without entity state"];') in dot

    def test_branch_edges_labelled(self, shop_program):
        machine = shop_program.entities["User"].methods["buy_item"].machine
        dot = machine_to_dot(machine)
        assert 'label="true"' in dot
        assert 'label="false"' in dot
