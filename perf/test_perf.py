"""Tier-1 smoke test of the perf ledger.

Runs the whole set at ``--smoke`` size (tiny inputs, 2 reps, probes on)
and checks the plumbing, not the numbers: the declaration is well
formed, every declared metric comes out under its declared name and
unit on every workload, nothing undeclared comes out, and the run
leaves the repository's committed ``BENCH_*.json`` artifacts alone.
Everything it writes goes under ``tmp_path``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declaration() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_declaration_is_well_formed():
    declared = declaration()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["perf"]
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in declared[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(name) for name in names)
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in declared["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_smoke_set_emits_exactly_the_declared_metrics(tmp_path):
    artifacts = {path.name: path.read_bytes()
                 for path in ROOT.glob("BENCH_*.json")}
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [*RUN, "--smoke", "--seed", "7", "--out", str(out),
         "--scratch", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    declared = declaration()
    workloads = [workload["name"] for workload in declared["workloads"]]
    wanted = {0: {m["name"] for m in declared["end_to_end"]},
              1: {m["name"] for m in declared["per_layer"]}}
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert ledger["fingerprint"]["schema"] == 1
    seen = set()
    for run in ledger["runs"]:
        assert run["correct"], run["problems"]
        assert run["failed"] == 0 and run["attempted"] >= 1
        assert set(run["metrics"]) == wanted[run["trace"]], run["workload"]
        if run["trace"] == 0:
            # End-to-end metrics are defined, and never 0, everywhere.
            assert all(value > 0 for value in run["metrics"].values())
            if run["workload"].startswith("sim-"):
                assert len({rep["digest"] for rep in run["reps"]}) == 1
        seen.add((run["workload"], run["trace"]))
    assert seen == {(name, trace) for name in workloads for trace in (0, 1)}
    # Every printed metric line is `workload metric value unit`, with
    # the declared unit.
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    for line in done.stdout.splitlines():
        workload, metric, value, unit = line.split("#")[0].split()[:4]
        assert workload in workloads and NAME.fullmatch(metric)
        assert metric == "PROBLEM" or unit == units[metric], line
    # ROADMAP 1c: tests have been rewriting committed bench artifacts.
    assert {path.name: path.read_bytes()
            for path in ROOT.glob("BENCH_*.json")} == artifacts
    assert not [path for path in tmp_path.rglob("*")
                if path.is_dir() and path.name.startswith("durable-")]


def test_one_run_prints_the_contract_line(tmp_path):
    """`--workload W --trace 0` ends with one JSON object holding
    exactly the end-to-end metrics as numbers with their units."""
    done = subprocess.run(
        [*RUN, "--workload", "sim-point", "--seed", "3", "--seconds", "1",
         "--trace", "0", "--smoke", "--scratch", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in declaration()["end_to_end"]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == declared
    assert all(isinstance(entry["value"], float) and entry["value"] > 0
               for entry in result["metrics"].values())
