"""Committed ``BENCH_<cell>.json`` files against fresh runs of their
producers: a key the code no longer writes, or a value it no longer
computes, fails here instead of lingering in the repository."""

import json
from pathlib import Path

from repro.bench import (
    run_autoscale_bench,
    run_recovery_cell,
    write_bench_artifact,
)

ROOT = Path(__file__).resolve().parents[2]


def test_the_autoscale_cell_writes_the_committed_artifact(tmp_path):
    """``repro bench --cell autoscale`` at its defaults, byte for byte."""
    artifact, _scaled, _fixed = run_autoscale_bench(seed=42)
    assert artifact["gates"]["closed_loop_proven"], artifact["gates"]
    written = write_bench_artifact("autoscale", artifact, directory=tmp_path)
    assert written.read_bytes() == (ROOT / "BENCH_autoscale.json").read_bytes()


def test_a_small_recovery_cell_has_the_committed_artifacts_shape():
    """One small state size (the full sweep runs in CI's recovery and
    durability jobs): the cell holds, and its top-level and per-row keys
    are the committed file's."""
    report = run_recovery_cell(record_counts=(200,), duration_ms=500.0,
                               drain_ms=2_000.0)
    assert report.ok, report.problems
    fresh = report.as_artifact()
    committed = json.loads(
        (ROOT / "BENCH_recovery.json").read_text(encoding="utf-8"))
    assert sorted(fresh) == sorted(committed)
    assert {tuple(sorted(row)) for row in fresh["rows"]} == {
        tuple(sorted(row)) for row in committed["rows"]}
