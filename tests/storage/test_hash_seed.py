"""One seed, one set of bytes: a durability directory does not depend on
the interpreter's string hash.

Two subprocesses run the same small durable chaos run (the CI smoke
plan's shape — worker crashes, message faults and a coordinator
fail-over — cut to 600 ms) under ``PYTHONHASHSEED`` 1 and 2, with views
registered so every base carries a view sidecar.  The two directories
must be equal file for file, byte for byte: changelog segments, cut
files, the ledger and the manifest.  Any ``set`` iterated on the way to
the log, a cut or a sidecar (string tuples hash differently per
process) shows up here as a differing file.
"""

import filecmp
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

_CHILD = """
import sys
from repro.bench import run_chaos_cell
from repro.faults import random_plan
from repro.query import QueryEngine, ViewSpec
from repro.runtimes.stateflow import StateflowRuntime

start = StateflowRuntime.start


def start_with_views(self):
    start(self)
    if self.views.names():
        return  # start() is idempotent; register once
    engine = QueryEngine(self)
    for spec in [
            ViewSpec("total", "Account", "sum", field="balance"),
            ViewSpec("top3", "Account", "top_k", field="balance", k=3),
            ViewSpec("per-account", "Account", "count",
                     group_by="account_id"),
            ViewSpec("by-window", "Account", "count", window_ms=400.0)]:
        engine.register_view(spec)


StateflowRuntime.start = start_with_views
report = run_chaos_cell(
    duration_ms=600.0, seed=7,
    plan=random_plan(7, duration_ms=600.0, coordinator_faults=True),
    durability_dir=sys.argv[1])
assert report["ok"], report["problems"]
"""


def _files(root: Path) -> list[str]:
    return sorted(str(path.relative_to(root))
                  for path in root.rglob("*") if path.is_file())


def test_two_hash_seeds_write_identical_directories(tmp_path):
    runs = []
    for hash_seed in ("1", "2"):
        directory = tmp_path / f"hash-{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC,
                   REPRO_BENCH_DIR=str(tmp_path))
        runs.append((directory, subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(directory)], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)))
    for _, process in runs:
        output, _ = process.communicate(timeout=60)
        assert process.returncode == 0, output
    (first, _), (second, _) = runs
    names = _files(first)
    assert any(name.startswith("changelog/") for name in names)
    assert any(name.startswith("snapshots/cut-") for name in names)
    assert names == _files(second)
    _, mismatch, errors = filecmp.cmpfiles(first, second, names,
                                           shallow=False)
    assert mismatch == errors == [], (
        f"files whose bytes depend on PYTHONHASHSEED: {mismatch + errors}")
