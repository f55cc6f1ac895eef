"""The CLI's flag plumbing: numeric input is checked at the parser, the
shared runtime flags reach the runtime each command builds, and every
``repro bench`` combination the cell table refuses, and every ``repro
chaos run`` flag StateFun cannot honour, fails before any runtime exists
while every one accepted reaches the cell's function as a keyword."""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import pytest

from repro import cli
from repro.cli import main
from repro.faults import FaultPlan, random_plan, staged_plan

HARNESS = importlib.import_module("repro.bench.harness")


@pytest.mark.parametrize("argv", [
    ["bench", "--rps", "0"],
    ["bench", "--rps", "-5"],
    ["bench", "--records", "0"],
    ["chaos", "run", "--records", "0"],
    ["bench", "--duration-ms", "-1"],
    ["bench", "--pipeline-depth", "0"],
    ["bench", "--pipeline-depth", "-3"],
    ["chaos", "run", "--workers", "0"],
    ["chaos", "plan", "--duration-ms", "-10"],
], ids=" ".join)
def test_numeric_input_is_checked_at_the_parser(argv, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "must be a positive number" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


@pytest.fixture()
def built(monkeypatch):
    """Every runtime a command builds, whichever bench module builds it."""
    runtimes = []
    real = HARNESS.build_runtime

    def spy(*args, **kwargs):
        runtimes.append(real(*args, **kwargs))
        return runtimes[-1]

    monkeypatch.setattr(HARNESS, "build_runtime", spy)
    return runtimes


@pytest.mark.parametrize("command", [
    ["bench", "--duration-ms", "600", "--rps", "60", "--records", "20"],
    ["chaos", "run", "--seed", "11", "--duration-ms", "800", "--rps", "60",
     "--records", "20"],
    ["chaos", "run", "--targets", "4,3", "--workers", "2", "--seed", "9",
     "--duration-ms", "1200", "--rps", "60", "--records", "20"],
], ids=["bench --duration-ms", "chaos run", "chaos run --targets"])
def test_shared_flags_reach_the_runtime(command, built, tmp_path,
                                        monkeypatch):
    """``chaos run`` builds on its own coordinator preset: the CLI's
    depth must land on it, not be replaced by it.  Every command's run,
    a resize included, logs its commits and cuts at its preset's base
    cadence under the durability directory."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    state = tmp_path / "state"
    assert main([*command, "--pipeline-depth", "1", "--durable",
                 str(state)]) == 0
    (runtime,) = built
    coordinator = runtime.coordinator
    assert coordinator.config.pipeline_depth == 1
    assert coordinator.snapshots.base_every \
        == coordinator.config.snapshot_base_every
    assert coordinator.changelog.appended > 0
    assert (state / "MANIFEST.json").exists()
    if command[0] != "bench":
        assert runtime.coordinator.config.failure_detect_ms == 200.0
    if "--targets" in command:
        assert (coordinator.rescales, runtime.worker_count) == (2, 3)


def test_chaos_plan_flags_shape_the_plan(capsys):
    assert main(["chaos", "plan", "--seed", "4", "--workers", "1",
                 "--intensity", "heavy"]) == 0
    plan = FaultPlan.from_json(capsys.readouterr().out)
    assert plan.name == "random-heavy-4"
    crashes = [event for event in plan.events
               if event.kind == "crash_worker"]
    assert crashes and all(event.worker == 0 for event in crashes)
    assert plan.to_dict() == random_plan(4, duration_ms=3_000.0, workers=1,
                                         intensity="heavy").to_dict()


# ---------------------------------------------------------------------------
# repro bench: the cell table, exhaustively
# ---------------------------------------------------------------------------

#: dest -> (argv after the flag name, the keyword value the cell's
#: function must receive).
FLAG_VALUES = {
    "workload": (["B"], "B"),
    "distribution": (["uniform"], "uniform"),
    "seed": (["7"], 7),
    "rps": (["77"], 77.0),
    "duration_ms": (["500"], 500.0),
    "records": (["30"], 30),
    "pipeline_depth": (["3"], 3),
    "autoscale": ([], True),
    "durability_dir": (["state"], "state"),
}


def _refused(cell: str, system: str, spawner: str, dest: str) -> bool:
    spec = cli.BENCH_CELLS[cell]
    return (spawner not in spec.spawners
            or (spawner == "process" and system != "stateflow")
            or system not in spec.systems
            or (system != "stateflow" and dest in cli.STATEFLOW_ONLY)
            or dest in spec.refuses)


CASES = list(itertools.product(cli.BENCH_CELLS, ("stateflow", "statefun"),
                               ("simulator", "process"), FLAG_VALUES))

#: Verdicts written down independently of the table (True = refused), so
#: an edit to the table that changes what the CLI accepts fails here.
PINNED = {
    ("pipeline", "stateflow", "simulator", "autoscale"): True,
    ("recovery", "stateflow", "simulator", "durability_dir"): True,
    ("autoscale", "stateflow", "simulator", "rps"): True,
    ("autoscale", "stateflow", "simulator", "workload"): True,
    ("recovery", "stateflow", "simulator", "distribution"): True,
    ("views", "stateflow", "simulator", "pipeline_depth"): True,
    ("ycsb", "statefun", "simulator", "pipeline_depth"): True,
    ("recovery", "stateflow", "process", "seed"): True,
    ("ycsb", "stateflow", "process", "pipeline_depth"): False,
    ("ycsb", "statefun", "simulator", "workload"): False,
    ("pipeline", "stateflow", "simulator", "workload"): False,
    ("pipeline", "stateflow", "process", "records"): False,
    ("recovery", "stateflow", "simulator", "records"): False,
    ("paper", "stateflow", "simulator", "duration_ms"): True,
    ("paper", "statefun", "simulator", "seed"): True,
    ("paper", "stateflow", "simulator", "seed"): False,
}


@pytest.fixture()
def runners(monkeypatch):
    """Every cell's function records the keywords it was called with and
    returns a passing artifact; no runtime may be built."""
    calls = []

    def refuse_runtime(*args, **kwargs):
        raise AssertionError("a runtime was built")

    def recorder(name):
        def run(**flags):
            calls.append((name, flags))
            return {"cell": name, "ok": True}
        return run

    for name, cell in cli.BENCH_CELLS.items():
        module = f"repro.bench.{cell.module}"
        monkeypatch.setattr(f"{module}.run_{name}_cell", recorder(name))
        monkeypatch.setattr(f"{module}.summarize", lambda artifact: "")
    monkeypatch.setattr(HARNESS, "build_runtime", refuse_runtime)
    return calls


def _check_verdict(cell, system, spawner, dest, refused, runners):
    values, expected = FLAG_VALUES[dest]
    argv = ["bench", "--cell", cell, "--system", system, "--spawner",
            spawner, cli.RUNTIME_FLAGS[dest][0], *values]
    if refused:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code not in (0, None)
        assert runners == []
        return
    assert main(argv) == 0
    # Every flag given, and no other, reaches the cell's function.
    given = {dest: expected}
    if system != "stateflow":
        given["system"] = system
    if spawner != "simulator":
        given["spawner"] = spawner
    assert runners == [(cell, given)]


@pytest.mark.parametrize("cell,system,spawner,dest", CASES,
                         ids=["-".join(case) for case in CASES])
def test_bench_cell_table(cell, system, spawner, dest, runners):
    _check_verdict(cell, system, spawner, dest,
                   _refused(cell, system, spawner, dest), runners)


@pytest.mark.parametrize("case,refused", PINNED.items(),
                         ids=["-".join(case) for case in PINNED])
def test_pinned_bench_verdicts(case, refused, runners):
    _check_verdict(*case, refused, runners)


#: The cell choice keywords, beside the flags of :data:`FLAG_VALUES`.
CHOICE_VALUES = {"system": "statefun", "spawner": "process"}

SIGNATURE_CASES = list(itertools.product(cli.BENCH_CELLS,
                                         [*FLAG_VALUES, *CHOICE_VALUES]))


def _passed_on(cell: str, dest: str) -> bool:
    """Whether ``_cmd_bench`` can hand *dest* to the cell's function."""
    spec = cli.BENCH_CELLS[cell]
    if dest in CHOICE_VALUES:
        return len(getattr(spec, f"{dest}s")) > 1
    return any(not _refused(cell, system, spawner, dest)
               for system in spec.systems for spawner in spec.spawners)


@pytest.mark.parametrize("cell,dest", SIGNATURE_CASES,
                         ids=["-".join(case) for case in SIGNATURE_CASES])
def test_cell_function_takes_what_the_table_passes(cell, dest):
    """The ``runners`` fixture stands in for every cell's function, so
    this is what ties the table to the real one: a keyword the table can
    pass binds to ``run_<cell>_cell``'s signature, and a flag the table
    always refuses is not one of its parameters."""
    module = importlib.import_module(
        f"repro.bench.{cli.BENCH_CELLS[cell].module}")
    signature = inspect.signature(getattr(module, f"run_{cell}_cell"))
    if _passed_on(cell, dest):
        value = (CHOICE_VALUES[dest] if dest in CHOICE_VALUES
                 else FLAG_VALUES[dest][1])
        signature.bind(**{dest: value})
    else:
        assert dest not in signature.parameters


def test_bench_takes_no_fault_plan(runners, tmp_path, capsys):
    """A fault plan runs through ``chaos run --plan`` only."""
    plan = tmp_path / "plan.json"
    random_plan(3, duration_ms=1_000.0).to_json(plan)
    with pytest.raises(SystemExit) as exited:
        main(["bench", "--faults", str(plan)])
    assert exited.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert runners == []


@pytest.mark.parametrize("source", ["targets", "plan"])
def test_chaos_run_refuses_two_scaling_authorities(source, runners,
                                                    tmp_path):
    """Resizes from ``--targets`` or from the plan's ``rescale`` events
    and the autoscaler would drive the same rescale barrier."""
    resizes = tmp_path / "resizes.json"
    staged_plan((3,)).to_json(resizes)
    argv = (["--targets", "4,3"] if source == "targets"
            else ["--plan", str(resizes)])
    with pytest.raises(SystemExit, match="scaling authority"):
        main(["chaos", "run", "--autoscale", *argv])


# ---------------------------------------------------------------------------
# repro chaos run: its flags, exhaustively
# ---------------------------------------------------------------------------

#: dest -> (argv after the flag name, the keyword value
#: ``run_chaos_cell`` must receive).
CHAOS_VALUES = {
    "workload": (["B"], "B"),
    "distribution": (["zipfian"], "zipfian"),
    "rps": (["77"], 77.0),
    "duration_ms": (["500"], 500.0),
    "records": (["30"], 30),
    "seed": (["7"], 7),
    "workers": (["3"], 3),
    "targets": (["4,2"], [4, 2]),
    "pipeline_depth": (["3"], 3),
    "autoscale": ([], True),
    "durability_dir": (["state"], "state"),
}

CHAOS_CASES = list(itertools.product(("stateflow", "statefun"),
                                     CHAOS_VALUES))

#: ``chaos run`` verdicts written down independently of ``STATEFLOW_ONLY``
#: (True = refused).
CHAOS_PINNED = {
    ("statefun", "workers"): True,
    ("statefun", "targets"): True,
    ("statefun", "durability_dir"): True,
    ("statefun", "seed"): False,
    ("stateflow", "targets"): False,
}


class _Ran(Exception):
    """Raised by the stand-in runner once it has recorded its call."""


@pytest.fixture()
def chaos_calls(monkeypatch):
    """``run_chaos_cell`` records what it was called with and runs
    nothing."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise _Ran

    monkeypatch.setattr("repro.bench.chaos.run_chaos_cell", record)
    return calls


def _check_chaos_verdict(system, dest, refused, calls):
    values, expected = CHAOS_VALUES[dest]
    argv = ["chaos", "run", "--system", system, cli.RUNTIME_FLAGS[dest][0],
            *values]
    if refused:
        with pytest.raises(SystemExit, match="requires --system stateflow"):
            main(argv)
        assert calls == []
        return
    with pytest.raises(_Ran):
        main(argv)
    # Every flag given, and no other, reaches the cell's function.
    given = {dest: expected, "plan": None}
    if system != "stateflow":
        given["system"] = system
    assert calls == [((), given)]


def test_chaos_table_covers_every_chaos_run_flag():
    args = cli.build_parser().parse_args(["chaos", "run"])
    assert set(args.flag_defaults) == {"system", *CHAOS_VALUES}


@pytest.mark.parametrize("system,dest", CHAOS_CASES,
                         ids=["-".join(case) for case in CHAOS_CASES])
def test_chaos_run_flag_table(system, dest, chaos_calls):
    _check_chaos_verdict(system, dest, (system != "stateflow"
                                        and dest in cli.STATEFLOW_ONLY),
                         chaos_calls)


@pytest.mark.parametrize("case,refused", CHAOS_PINNED.items(),
                         ids=["-".join(case) for case in CHAOS_PINNED])
def test_pinned_chaos_run_verdicts(case, refused, chaos_calls):
    _check_chaos_verdict(*case, refused, chaos_calls)


def test_spawner_matrix_is_generated_from_the_table():
    for spawner in ("simulator", "process"):
        cells = "/".join(name for name, cell in cli.BENCH_CELLS.items()
                         if spawner in cell.spawners)
        assert f"--spawner {spawner} runs --cell {cells}" in cli.SPAWNER_MATRIX


def test_ycsb_overrides_reach_run_ycsb_cell(monkeypatch, tmp_path):
    """The ycsb cell hands the runtime flags on as one overrides
    mapping."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    seen = []

    def fake_cell(*args, runtime_overrides, **kwargs):
        seen.append(runtime_overrides)
        return HARNESS.ExperimentRow("stateflow", "A", "zipfian", 1.0, 1.0,
                                     1.0, 1.0, 1, 1, 0)

    monkeypatch.setattr(HARNESS, "ycsb_row", fake_cell)
    assert main(["bench", "--pipeline-depth", "1", "--autoscale",
                 "--durable", "state"]) == 0
    assert seen == [{"pipeline_depth": 1, "autoscale": True,
                     "durability_dir": "state"}]
    assert json.loads((tmp_path / "BENCH_ycsb.json").read_text())["rows"]
