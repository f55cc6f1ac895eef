"""The census of settable values: every value a user can set has a row
naming who sets it to something other than its default.

A settable value is a field of one of :data:`CONFIGS`, a (subcommand,
option) pair of ``repro.cli.build_parser()``, or an environment variable
read under ``src/``.  A row names a caller outside ``tests/``:

- ``preset`` — a ``src/`` preset sets it (the process preset, a bench
  cell's coordinator config, ...);
- ``cli`` — a CLI flag sets it (the flag has its own row);
- ``perf`` — a ledger workload under ``perf/`` sets it;
- ``ci`` — a CI command line sets it;
- ``paper`` — it is an axis of a named paper figure or ablation;
- ``test`` — only a test sets it, and that test reaches behaviour no
  default run reaches (the row says which).

The test fails when a value has no row, when a row names a value that no
longer exists, and when the cited file does not mention the value.  A
value no caller sets is a constant: delete it instead of adding a row.
Modelled costs are not settable values: the kernel picks their profile
(:mod:`repro.substrates.costs`).
"""

from __future__ import annotations

import argparse
import re
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

from repro.cli import build_parser
from repro.control import AutoscalePolicy
from repro.runtimes.stateflow import CoordinatorConfig, StateflowConfig
from repro.runtimes.statefun import StatefunConfig
from repro.substrates.kafka import KafkaConfig
from repro.substrates.network import NetworkConfig

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = (StateflowConfig, CoordinatorConfig, StatefunConfig, KafkaConfig,
           NetworkConfig, AutoscalePolicy)
CI = ".github/workflows/ci.yml"
HARNESS = "src/repro/bench/harness.py"
PAPER = "src/repro/bench/paper.py"
COSTS = "src/repro/substrates/costs.py"
CHAOS = "src/repro/bench/chaos.py"
RECOVERY = "src/repro/bench/recovery.py"
CLI_TESTS = "tests/integration/test_cli_inprocess.py"
FLAG_TESTS = "tests/integration/test_cli_flags.py"
KINDS = {"preset", "cli", "perf", "ci", "paper", "test"}


class Row(NamedTuple):
    kind: str
    path: str
    #: What the cited file must contain; ``None`` = the value's own name.
    needle: str | None
    why: str


def preset(path, needle, why):
    return Row("preset", path, needle, why)


def ci(why=""):
    return Row("ci", CI, None, why)


def paper(path, needle, why):
    return Row("paper", path, needle, why)


def by_test(path, needle, why):
    return Row("test", path, needle, why)


FIG3 = paper(PAPER, "FIG3_CELLS",
             "Figure 3's axes: YCSB workload x key distribution, and the "
             "StateFun baseline")
FIG4 = paper(PAPER, "FIG4_RATES", "Figure 4's input-rate axis")
ABL_TXN_KEYS = paper(PAPER, "record_count=64",
                     "ABL-TXN's contention axis (64 hot keys vs the "
                     "paper's 1000)")
PROFILES = "the cost profiles: the simulator's numbers, and all zero"
TIGHT_POLICY = ("a tighter policy decides within a short test; the "
                "default needs the autoscale cell's long ramp")

ROWS: dict[tuple[str, str], Row] = {
    # -- StateflowConfig --------------------------------------------------
    ("StateflowConfig", "workers"): preset(
        "src/repro/bench/pipeline.py", "workers=workers",
        "the saturating pipeline cell runs 32 workers"),
    ("StateflowConfig", "spawner"): preset(HARNESS, '"spawner": "process"',
                                           "the process preset"),
    ("StateflowConfig", "channel_mode"): paper(
        PAPER, None, "ABL-COMM: Kafka loop-backs instead of direct channels"),
    ("StateflowConfig", "state_slots"): preset(
        "src/repro/bench/pipeline.py", "state_slots=state_slots",
        "the saturating pipeline cell shards 128 slots"),
    ("StateflowConfig", "durability_dir"): Row(
        "perf", "perf/workloads.py", None, "sim-durable"),
    ("StateflowConfig", "coordinator"): preset(
        CHAOS, "chaos_coordinator_config()", "the chaos preset"),
    ("StateflowConfig", "fault_plan"): preset(CHAOS, None,
                                              "every chaos cell"),
    ("StateflowConfig", "autoscale"): Row(
        "cli", "src/repro/cli.py", '"autoscale": ("--autoscale"',
        "--autoscale"),
    ("StateflowConfig", "autoscale_policy"): preset(
        "src/repro/bench/autoscale.py", None, "the autoscale cell"),
    # -- CoordinatorConfig ------------------------------------------------
    ("CoordinatorConfig", "batch_interval_ms"): by_test(
        "tests/runtimes/test_snapshot_channel_state.py",
        "batch_interval_ms=50.0",
        "a wide admission window, so a cut must carry pending requests"),
    ("CoordinatorConfig", "max_batch_size"): preset(HARNESS, None,
                                                    "the process preset"),
    ("CoordinatorConfig", "epoch_interval_ms"): by_test(
        "tests/runtimes/test_snapshot_channel_state.py",
        "epoch_interval_ms=10_000.0",
        "committed replies still buffered when the coordinator crashes"),
    ("CoordinatorConfig", "snapshot_interval_ms"): preset(
        CHAOS, None, "the chaos preset cuts often"),
    ("CoordinatorConfig", "failure_detect_ms"): preset(
        CHAOS, None, "the chaos preset detects failures fast"),
    ("CoordinatorConfig", "release_txn_outputs_at_epoch"): preset(
        HARNESS, None, "the process preset releases replies at commit"),
    ("CoordinatorConfig", "pipeline_depth"): preset(
        "src/repro/bench/pipeline.py", "pipeline_depth=depth",
        "the pipeline cell sweeps depths 1/2/4"),
    ("CoordinatorConfig", "snapshot_base_every"): preset(
        RECOVERY, None, "the recovery preset"),
    ("CoordinatorConfig", "snapshot_footprints"): preset(
        RECOVERY, None, "the recovery preset measures every cut"),
    ("CoordinatorConfig", "restore_cost_ms_per_key"): preset(
        RECOVERY, None, "the recovery preset prices restores per key"),
    # -- StatefunConfig ---------------------------------------------------
    ("StatefunConfig", "function_cores"): by_test(
        "tests/runtimes/test_resource_accounting.py", "function_cores=6",
        "a wider remote-function pool raises StateFun's capacity"),
    ("StatefunConfig", "strict_transactions"): by_test(
        "tests/runtimes/test_statefun_runtime.py",
        "strict_transactions=True",
        "@transactional methods refused instead of run unguarded"),
    ("StatefunConfig", "fault_plan"): preset(
        CHAOS, None, "StateFun under chaos: drops it cannot recover"),
    # -- KafkaConfig / NetworkConfig --------------------------------------
    ("KafkaConfig", "produce_latency"): preset(COSTS, None, PROFILES),
    ("KafkaConfig", "fetch_latency"): preset(COSTS, None, PROFILES),
    ("KafkaConfig", "broker_cpu_ms"): preset(COSTS, None, PROFILES),
    ("NetworkConfig", "intra_cluster"): preset(COSTS, None, PROFILES),
    ("NetworkConfig", "rpc_hop"): preset(COSTS, None, PROFILES),
    # -- AutoscalePolicy --------------------------------------------------
    **{("AutoscalePolicy", name): by_test(
        "tests/integration/test_autoscale.py", f"{name}=", TIGHT_POLICY)
       for name in ("sample_interval_ms", "high_txns_per_worker_s",
                    "low_txns_per_worker_s", "saturated_samples",
                    "idle_samples", "cooldown_ms", "max_workers",
                    "target_txns_per_worker_s")},
    # -- repro compile / dot / run ----------------------------------------
    ("repro compile", "--out"): by_test(CLI_TESTS, None,
                                          "the IR written to a file"),
    ("repro dot", "--method"): by_test(
        CLI_TESTS, None, "one method's state machine, not the dataflow"),
    ("repro run", "--faults"): by_test(
        CLI_TESTS, None, "the Local runtime under a plan's reordering"),
    # -- repro bench ------------------------------------------------------
    ("repro bench", "--system"): FIG3,
    ("repro bench", "--workload"): ci(),
    ("repro bench", "--distribution"): ci(),
    ("repro bench", "--rps"): ci(),
    ("repro bench", "--duration-ms"): ci(),
    ("repro bench", "--records"): ci(),
    ("repro bench", "--seed"): by_test(
        CLI_TESTS, '"--seed", "3"', "an independent sample of a cell"),
    ("repro bench", "--pipeline-depth"): by_test(
        CLI_TESTS, None, "serial batches on the ycsb cell"),
    ("repro bench", "--spawner"): ci(),
    ("repro bench", "--autoscale"): by_test(
        CLI_TESTS, None, "the controller on the ycsb cell"),
    ("repro bench", "--durable"): by_test(
        FLAG_TESTS, None, "the ycsb cell persisted under DIR"),
    ("repro bench", "--cell"): ci(),
    # -- repro chaos ------------------------------------------------------
    ("repro chaos plan", "--seed"): ci(),
    ("repro chaos plan", "--duration-ms"): ci(),
    ("repro chaos plan", "--workers"): by_test(
        FLAG_TESTS, None, "a plan for a smaller cluster"),
    ("repro chaos plan", "--intensity"): by_test(
        FLAG_TESTS, None, "a denser or sparser fault schedule"),
    ("repro chaos plan", "--no-process-faults"): by_test(
        CLI_TESTS, None, "the message-only plan the Local runtime takes"),
    ("repro chaos plan", "--coordinator-faults"): ci(),
    ("repro chaos plan", "--rescales"): ci(),
    ("repro chaos plan", "--out"): ci(),
    ("repro chaos run", "--plan"): ci(),
    ("repro chaos run", "--system"): FIG3,
    ("repro chaos run", "--workload"): FIG3,
    ("repro chaos run", "--distribution"): FIG3,
    ("repro chaos run", "--rps"): FIG4,
    ("repro chaos run", "--duration-ms"): ci(),
    ("repro chaos run", "--records"): ABL_TXN_KEYS,
    ("repro chaos run", "--seed"): ci(),
    ("repro chaos run", "--workers"): ci(),
    ("repro chaos run", "--targets"): ci(),
    ("repro chaos run", "--pipeline-depth"): ci(),
    ("repro chaos run", "--autoscale"): by_test(
        "tests/integration/test_autoscale.py", "autoscale=True",
        "the controller's decisions under injected failures"),
    ("repro chaos run", "--durable"): ci(),
    # -- environment ------------------------------------------------------
    ("env", "REPRO_BENCH_DIR"): by_test(
        "tests/conftest.py", None,
        "artifacts kept out of the working tree"),
}


def _cli_options(parser: argparse.ArgumentParser,
                 command: str = "repro") -> set[tuple[str, str]]:
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                options |= _cli_options(sub, f"{command} {name}")
        elif action.option_strings and action.dest != "help":
            options.add((command, max(action.option_strings, key=len)))
    return options


#: A literal variable name passed to an environment read.
_ENV_READ = re.compile(
    r"""(?:environ\.get|getenv|environ\[)\(?\s*["']([A-Z0-9_]+)["']""")


def _env_reads() -> set[tuple[str, str]]:
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        text = path.read_text(encoding="utf-8")
        names |= {("env", name) for name in _ENV_READ.findall(text)}
    return names


def settable_values() -> set[tuple[str, str]]:
    values = {(cls.__name__, field.name) for cls in CONFIGS
              for field in fields(cls)}
    return values | _cli_options(build_parser()) | _env_reads()


def test_every_settable_value_has_a_row():
    missing = sorted(settable_values() - ROWS.keys())
    assert not missing, (
        f"values without a census row (name the caller that sets them, "
        f"or make them constants): {missing}")


def test_every_row_names_a_value_that_exists():
    stale = sorted(ROWS.keys() - settable_values())
    assert not stale, f"census rows for values that are gone: {stale}"


def test_every_row_cites_a_file_that_sets_the_value():
    ci_lines = (ROOT / CI).read_text(encoding="utf-8").splitlines()
    for (owner, name), row in ROWS.items():
        assert row.kind in KINDS, (owner, name, row.kind)
        assert row.why or row.kind == "ci", (owner, name)
        assert (row.kind == "test") == row.path.startswith("tests/"), (
            owner, name, row.path)
        needle = row.needle or name
        if row.kind == "ci":
            command = owner.removeprefix("repro ")
            assert any(f"repro {command} " in line
                       and re.search(rf"{re.escape(needle)}(\s|$)", line)
                       for line in ci_lines), (owner, name)
            continue
        text = (ROOT / row.path).read_text(encoding="utf-8")
        assert needle in text, f"{row.path} never mentions {needle!r}"


def test_the_count_only_falls():
    """The census started from 138 values (71 fields, 64 options, 3
    variables); a change that adds a value adds its row and raises this
    bound in the same diff."""
    assert len(settable_values()) <= 72
