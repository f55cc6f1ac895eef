"""In-process CLI coverage: drives ``repro.cli.main`` directly (the
subprocess tests in test_cli_and_dot.py check the real entry point; these
make the handler logic visible to the coverage gate)."""

import json
from pathlib import Path

import pytest

from repro.bench.harness import key_paths
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]

SHOP = (
    "from repro import entity\n"
    "@entity\n"
    "class Gadget:\n"
    "    def __init__(self, gid: str):\n"
    "        self.gid: str = gid\n"
    "        self.uses: int = 0\n"
    "    def __key__(self):\n"
    "        return self.gid\n"
    "    def use(self, n: int) -> int:\n"
    "        self.uses += n\n"
    "        return self.uses\n")


@pytest.fixture()
def module_path(tmp_path):
    path = tmp_path / "gadget_app.py"
    path.write_text(SHOP, encoding="utf-8")
    return str(path)


def test_compile_describe_dot_round_trip(module_path, tmp_path, capsys):
    ir_path = str(tmp_path / "app.json")
    assert main(["compile", module_path, "--out", ir_path]) == 0
    assert main(["describe", ir_path]) == 0
    assert main(["dot", ir_path]) == 0
    assert main(["dot", ir_path, "--method", "Gadget.use"]) == 0
    out = capsys.readouterr().out
    assert "Gadget" in out and "digraph" in out


def test_describe_lists_the_state_free_continuations(tmp_path, capsys):
    path = tmp_path / "wallet_app.py"
    path.write_text(
        "from repro import entity\n"
        "@entity\n"
        "class Wallet:\n"
        "    def __init__(self, wid: str):\n"
        "        self.wid: str = wid\n"
        "        self.funds: int = 10\n"
        "    def __key__(self):\n"
        "        return self.wid\n"
        "    def take(self, n: int) -> int:\n"
        "        self.funds -= n\n"
        "        return self.funds\n"
        "    def pay(self, n: int, other: 'Wallet') -> bool:\n"
        "        self.funds += n\n"
        "        left: int = other.take(n)\n"
        "        return left >= 0\n", encoding="utf-8")
    ir_path = str(tmp_path / "app.json")
    assert main(["compile", str(path), "--out", ir_path]) == 0
    capsys.readouterr()
    assert main(["describe", ir_path]) == 0
    assert ("    pay: 2 block(s) [split] [state-free: pay_1]"
            in capsys.readouterr().out.splitlines())


def test_run_create_then_invoke(module_path, capsys):
    assert main(["run", module_path, "Gadget", "__init__", "-",
                 '"g1"']) == 0
    assert main(["run", module_path, "Gadget", "use", '"g1"', "3"]) == 1
    # invoking on a fresh runtime: the entity doesn't exist -> exit 1


def test_run_with_fault_plan(module_path, tmp_path, capsys):
    plan_path = str(tmp_path / "plan.json")
    assert main(["chaos", "plan", "--seed", "3", "--no-process-faults",
                 "--out", plan_path]) == 0
    assert main(["run", module_path, "Gadget", "__init__", "-", '"g2"',
                 "--faults", plan_path]) == 0
    assert "Gadget/g2" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--rescale", "plan.json"],
                                  ["--pipeline-depth", "4"],
                                  ["--spawner", "process"], ["--autoscale"],
                                  ["--durable", "state"]],
                         ids=lambda flag: flag[0])
def test_run_refuses_runtime_flags(module_path, flag, capsys):
    """The Local runtime has no cluster, pipeline, substrate choice or
    snapshots: argparse rejects these flags instead of noting them."""
    with pytest.raises(SystemExit) as exited:
        main(["run", module_path, "Gadget", "__init__", "-", '"g3"', *flag])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("targets", ["4,x", "0", ","])
def test_chaos_run_rejects_bad_targets(targets, capsys):
    with pytest.raises(SystemExit) as exited:
        main(["chaos", "run", "--targets", targets])
    assert exited.value.code == 2
    assert "argument --targets" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--workers", "3"], ["--targets", "4,3"]],
                         ids=lambda flag: flag[0])
def test_chaos_run_deployment_flags_require_stateflow(flag):
    """StateFun has a fixed deployment: no worker count to start from or
    resize to."""
    with pytest.raises(SystemExit, match="requires --system stateflow"):
        main(["chaos", "run", "--system", "statefun", *flag])


def test_chaos_plan_with_rescales(capsys):
    assert main(["chaos", "plan", "--seed", "9", "--rescales", "2"]) == 0
    assert '"rescale"' in capsys.readouterr().out


def test_chaos_plan_to_stdout(capsys):
    assert main(["chaos", "plan", "--seed", "9",
                 "--coordinator-faults"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["seed"] == 9
    assert any(event["kind"] == "crash_coordinator"
               for event in plan["events"])


def test_chaos_run_inprocess(capsys):
    code = main(["chaos", "run", "--seed", "11", "--duration-ms", "1200",
                 "--records", "25", "--rps", "80"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "trace digest:" in out
    assert "serializable, loss-free, exactly-once" in out


def test_chaos_run_plan_on_a_ycsb_workload_inprocess(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan_path = str(tmp_path / "plan.json")
    assert main(["chaos", "plan", "--seed", "5", "--duration-ms", "1000",
                 "--out", plan_path]) == 0
    assert main(["chaos", "run", "--plan", plan_path, "--workload", "A",
                 "--distribution", "zipfian", "--duration-ms", "1000",
                 "--rps", "60", "--records", "25"]) == 0
    out = capsys.readouterr().out
    assert "recoveries" in out and "exactly-once" in out


def test_bench_pipeline_depth_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--duration-ms", "600", "--rps", "80",
                 "--records", "25", "--pipeline-depth", "1"]) == 0
    assert "YCSB" in capsys.readouterr().out


def test_bench_pipeline_depth_requires_stateflow(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--system", "statefun", "--duration-ms", "500",
              "--pipeline-depth", "2"])


def test_chaos_run_pipeline_depth_requires_stateflow(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "run", "--system", "statefun",
              "--pipeline-depth", "2"])


def test_bench_pipeline_cell_rejects_unsupported_flags():
    with pytest.raises(SystemExit):
        main(["bench", "--cell", "pipeline", "--system", "statefun"])
    with pytest.raises(SystemExit):
        main(["bench", "--cell", "pipeline", "--pipeline-depth", "2"])


def test_bench_spawner_matrix_named_in_rejections():
    """Every process-spawner rejection spells out the valid
    cell/spawner matrix instead of just naming the offending flag."""
    with pytest.raises(SystemExit, match="valid combinations"):
        main(["bench", "--spawner", "process", "--system", "statefun"])
    # The simulator-only cells are rejected explicitly (recovery used
    # to silently ignore the spawner).
    with pytest.raises(SystemExit, match="simulator-only"):
        main(["bench", "--spawner", "process", "--cell", "recovery"])
    with pytest.raises(SystemExit, match="simulator-only"):
        main(["bench", "--spawner", "process", "--cell", "autoscale"])


def test_bench_autoscale_flag_rejections():
    with pytest.raises(SystemExit, match="stateflow"):
        main(["bench", "--system", "statefun", "--autoscale"])
    with pytest.raises(SystemExit, match="autoscale"):
        main(["bench", "--cell", "pipeline", "--autoscale"])
    with pytest.raises(SystemExit, match="autoscale"):
        main(["bench", "--cell", "recovery", "--autoscale"])
    with pytest.raises(SystemExit, match="stateflow"):
        main(["bench", "--cell", "autoscale", "--system", "statefun"])
    with pytest.raises(SystemExit, match="pipeline-depth"):
        main(["bench", "--cell", "autoscale", "--pipeline-depth", "2"])


def test_chaos_run_autoscale_requires_stateflow():
    with pytest.raises(SystemExit, match="autoscale"):
        main(["chaos", "run", "--system", "statefun", "--autoscale"])


def test_bench_ycsb_autoscale_flag(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--autoscale", "--duration-ms", "800",
                 "--rps", "120", "--records", "30"]) == 0
    assert "YCSB" in capsys.readouterr().out


def test_bench_pipeline_cell_honours_load_flags(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--cell", "pipeline", "--rps", "2000",
                 "--duration-ms", "250", "--records", "200",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "pipeline speedup" in out
    assert "wrote" in out and "BENCH_pipeline.json" in out
    payload = json.loads((tmp_path / "BENCH_pipeline.json").read_text())
    assert payload["rps"] == 2000.0


def test_bench_views_cell_inprocess(tmp_path, monkeypatch, capsys):
    """A 400-key run holds every gate but the rehydrate floor, which
    binds at 10k keys only (both timings are a few ms here); it has the
    committed file's key paths."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--cell", "views", "--records", "400",
                 "--duration-ms", "800", "--rps", "120"]) == 0
    out = capsys.readouterr().out
    assert "incremental views" in out and "BENCH_views.json" in out
    payload = json.loads((tmp_path / "BENCH_views.json").read_text())
    assert payload["cell"] == "views"
    assert payload["gates"]["zero_mismatches"] is True
    assert payload["gates"]["speedup_ok"] is True
    assert payload["gates"]["rehydrate_floor"] is None
    assert payload["gates"]["rehydrate_ok"] is True
    (leg,) = payload["legs"]
    assert leg["record_count"] == 400
    assert leg["probe_mismatches"] == 0
    assert leg["freshness"]["final_lag"] == 0
    committed = json.loads((ROOT / "BENCH_views.json").read_text())
    assert key_paths(payload) == key_paths(committed)


def test_bench_views_cell_flag_rejections():
    with pytest.raises(SystemExit, match="stateflow"):
        main(["bench", "--cell", "views", "--system", "statefun"])
    with pytest.raises(SystemExit, match="simulator-only"):
        main(["bench", "--cell", "views", "--spawner", "process"])
    with pytest.raises(SystemExit, match="canonical"):
        main(["bench", "--cell", "views", "--pipeline-depth", "1"])
    with pytest.raises(SystemExit, match="autoscale"):
        main(["bench", "--cell", "views", "--autoscale"])
    with pytest.raises(SystemExit, match="workload"):
        main(["bench", "--cell", "views", "--workload", "B"])
