"""The CLI's flag plumbing: numeric input is checked at the parser, the
shared runtime flags reach the runtime each command builds, and every
``repro bench`` combination the cell table refuses fails before any
runtime exists while every one it accepts reaches its runner."""

from __future__ import annotations

import importlib
import itertools
import json
from dataclasses import replace

import pytest

from repro import cli
from repro.cli import main
from repro.faults import FaultPlan, random_plan, staged_plan

HARNESS, CHAOS, RESCALE = (importlib.import_module(f"repro.bench.{name}")
                           for name in ("harness", "chaos", "rescale"))


@pytest.mark.parametrize("argv", [
    ["bench", "--rps", "0"],
    ["bench", "--rps", "-5"],
    ["bench", "--records", "0"],
    ["chaos", "run", "--records", "0"],
    ["bench", "--duration-ms", "-1"],
    ["bench", "--pipeline-depth", "0"],
    ["bench", "--pipeline-depth", "-3"],
    ["rescale", "run", "--workers", "0"],
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

    for module in (HARNESS, CHAOS, RESCALE):
        monkeypatch.setattr(module, "build_runtime", spy)
    return runtimes


@pytest.mark.parametrize("command", [
    ["bench", "--duration-ms", "600", "--rps", "60", "--records", "20"],
    ["chaos", "run", "--seed", "11", "--duration-ms", "800", "--rps", "60",
     "--records", "20"],
    ["rescale", "run", "--seed", "9", "--duration-ms", "1200", "--rps",
     "60", "--records", "20"],
], ids=lambda argv: " ".join(argv[:2]))
def test_shared_flags_reach_the_runtime(command, built, tmp_path,
                                        monkeypatch):
    """``chaos run`` and ``rescale run`` build on their own coordinator
    preset: the CLI's depth must land on it, not be replaced by it.
    ``rescale run`` takes no durability directory.  Every command's run
    logs its commits and cuts at its preset's base cadence."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    state = tmp_path / "state"
    durable = [] if command[0] == "rescale" else ["--durable", str(state)]
    assert main([*command, "--pipeline-depth", "1", *durable]) == 0
    (runtime,) = built
    coordinator = runtime.coordinator
    assert coordinator.config.pipeline_depth == 1
    assert coordinator.snapshots.base_every \
        == coordinator.config.snapshot_base_every
    assert coordinator.changelog.appended > 0
    assert (state / "MANIFEST.json").exists() == bool(durable)
    if command[0] != "bench":
        assert runtime.coordinator.config.failure_detect_ms == 200.0


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

#: dest -> (argv after the flag name, the value the runner must see).
#: Plans are written per test; ``None`` marks them.  ``resizes`` is a
#: plan of ``rescale`` events: it rides ``--faults`` (see ``VIA``).
FLAG_VALUES = {
    "workload": (["B"], "B"),
    "seed": (["7"], 7),
    "rps": (["77"], 77.0),
    "duration_ms": (["500"], 500.0),
    "records": (["30"], 30),
    "fault_plan": (None, None),
    "resizes": (None, None),
    "pipeline_depth": (["3"], 3),
    "autoscale": ([], True),
    "durability_dir": (["state"], "state"),
    "rps_sweep": (["40,80"], "40,80"),
}

#: Table rows that are not a dest of their own -> the dest they ride.
VIA = {"resizes": "fault_plan"}


def _refused(cell: str, system: str, spawner: str, dest: str) -> bool:
    dest = VIA.get(dest, dest)
    spec = cli.BENCH_CELLS[cell]
    process = spawner == "process"
    return (spawner not in spec.spawners
            or (process and (system != "stateflow"
                             or dest in cli.PROCESS_REFUSES))
            or system not in spec.systems
            or (system != "stateflow" and dest in cli.STATEFLOW_ONLY)
            or dest in spec.refuses)


CASES = list(itertools.product(cli.BENCH_CELLS, ("stateflow", "statefun"),
                               ("simulator", "process"), FLAG_VALUES))

#: Verdicts written down independently of the table (True = refused), so
#: an edit to the table that changes what the CLI accepts fails here.
PINNED = {
    ("pipeline", "stateflow", "simulator", "fault_plan"): True,
    ("recovery", "stateflow", "simulator", "durability_dir"): True,
    ("autoscale", "stateflow", "simulator", "rps"): True,
    ("views", "stateflow", "simulator", "pipeline_depth"): True,
    ("ycsb", "statefun", "simulator", "pipeline_depth"): True,
    ("ycsb", "stateflow", "process", "fault_plan"): True,
    ("recovery", "stateflow", "process", "seed"): True,
    ("ycsb", "stateflow", "process", "pipeline_depth"): False,
    ("ycsb", "statefun", "simulator", "fault_plan"): False,
    ("ycsb", "stateflow", "simulator", "resizes"): False,
    ("ycsb", "statefun", "simulator", "resizes"): False,
    ("ycsb", "stateflow", "process", "resizes"): True,
    ("pipeline", "stateflow", "process", "records"): False,
    ("recovery", "stateflow", "simulator", "records"): False,
    ("paper", "stateflow", "simulator", "duration_ms"): True,
    ("paper", "statefun", "simulator", "seed"): True,
    ("paper", "stateflow", "simulator", "seed"): False,
}


@pytest.fixture()
def runners(monkeypatch):
    """Every cell runner records what it was called with; no runtime may
    be built."""
    calls = []

    def refuse_runtime(*args, **kwargs):
        raise AssertionError("a runtime was built")

    for module in (HARNESS, CHAOS, RESCALE):
        monkeypatch.setattr(module, "build_runtime", refuse_runtime)
    for name, cell in cli.BENCH_CELLS.items():
        monkeypatch.setitem(cli.BENCH_CELLS, name, replace(
            cell, run=lambda args, name=name: calls.append((name, args)) or 0))
    return calls


@pytest.fixture()
def plans(tmp_path):
    faults, resizes = tmp_path / "faults.json", tmp_path / "resizes.json"
    random_plan(3, duration_ms=1_000.0).to_json(faults)
    staged_plan((3,)).to_json(resizes)
    return {"fault_plan": ([str(faults)], FaultPlan.from_json(faults)),
            "resizes": ([str(resizes)], FaultPlan.from_json(resizes))}


def _check_verdict(cell, system, spawner, dest, refused, runners, plans):
    values, expected = plans.get(dest) or FLAG_VALUES[dest]
    dest = VIA.get(dest, dest)
    argv = ["bench", "--cell", cell, "--system", system, "--spawner",
            spawner, cli.RUNTIME_FLAGS[dest][0], *values]
    if refused:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code not in (0, None)
        assert runners == []
        return
    assert main(argv) == 0
    ((ran, args),) = runners
    assert (ran, args.system, args.spawner) == (cell, system, spawner)
    assert getattr(args, dest) == expected


@pytest.mark.parametrize("cell,system,spawner,dest", CASES,
                         ids=["-".join(case) for case in CASES])
def test_bench_cell_table(cell, system, spawner, dest, runners, plans):
    _check_verdict(cell, system, spawner, dest,
                   _refused(cell, system, spawner, dest), runners, plans)


@pytest.mark.parametrize("case,refused", PINNED.items(),
                         ids=["-".join(case) for case in PINNED])
def test_pinned_bench_verdicts(case, refused, runners, plans):
    _check_verdict(*case, refused, runners, plans)


@pytest.mark.parametrize("cell", list(cli.BENCH_CELLS))
def test_bench_refuses_two_scaling_authorities(cell, runners, plans):
    with pytest.raises(SystemExit, match="scaling authority"):
        main(["bench", "--cell", cell, "--autoscale", "--faults",
              *plans["resizes"][0]])
    assert runners == []


def test_spawner_matrix_is_generated_from_the_table():
    for spawner in ("simulator", "process"):
        cells = "/".join(name for name, cell in cli.BENCH_CELLS.items()
                         if spawner in cell.spawners)
        assert f"--spawner {spawner} runs --cell {cells}" in cli.SPAWNER_MATRIX


def test_ycsb_overrides_reach_run_ycsb_cell(monkeypatch, tmp_path, plans):
    """The ycsb runner hands the parsed flags on as one overrides
    mapping."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    seen = []

    def fake_cell(*args, runtime_overrides, **kwargs):
        seen.append(runtime_overrides)
        return HARNESS.ExperimentRow("stateflow", "A", "zipfian", 1.0, 1.0,
                                     1.0, 1.0, 1, 1, 0)

    monkeypatch.setattr("repro.bench.run_ycsb_cell", fake_cell)
    assert main(["bench", "--faults", *plans["fault_plan"][0],
                 "--pipeline-depth", "1", "--autoscale", "--durable",
                 "state"]) == 0
    assert seen == [{"fault_plan": plans["fault_plan"][1],
                     "pipeline_depth": 1, "autoscale": True,
                     "durability_dir": "state"}]
    assert json.loads((tmp_path / "BENCH_ycsb.json").read_text())["rows"]
