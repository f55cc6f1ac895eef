"""The pipeline bench cell: depth sweep plumbing, artifact shape, and
exactly-once completion at every depth.  (The full-size speedup
acceptance run lives in `repro bench --cell pipeline` / CI, where the
cell saturates a 32-worker deployment; here we only check the machinery
on a small, fast load.)"""

import json
from pathlib import Path

import pytest

from repro.bench import pipeline
from repro.bench.pipeline import run_pipeline_cell

ROOT = Path(__file__).resolve().parents[2]


def test_pipeline_cell_sweeps_depths_and_reports():
    artifact = run_pipeline_cell(seed=7, rps=4_000.0, duration_ms=300.0,
                                 records=300)
    rows = artifact["rows"]
    assert [row["depth"] for row in rows] == [1, 2, 4]
    for row in rows:
        assert row["completed"] == row["sent"], (
            f"depth {row['depth']} lost replies")
        assert row["errors"] == 0
        assert row["throughput_txn_s"] > 0
        assert row["batches"] > 0
        assert row["mode"] == "simulator"
    assert rows[1]["depth_hist"].get("2", 0) > 0, (
        "the depth-2 run never actually pipelined")
    assert artifact["speedup_depth2_over_depth1"] > 0.9, (
        "depth 2 must not be slower than the serial baseline")
    assert isinstance(artifact["mean_latency_improved"], bool)
    # Pipelining must change timing, never results: the simulator sweep
    # carries a per-depth reply digest and they must agree.
    assert set(artifact["reply_digests"]) == {"1", "2", "4"}
    assert artifact["replies_identical"] is True
    assert artifact["ok"] is True
    assert (artifact["cell"], artifact["mode"], artifact["rps"],
            artifact["workers"]) == ("pipeline", "simulator", 4_000.0, 32)
    # The simulator-only artifact has the committed file's keys, at the
    # top level and in every row.
    committed = json.loads(
        (ROOT / "BENCH_pipeline.json").read_text(encoding="utf-8"))
    assert sorted(artifact) == sorted(committed)
    assert {tuple(sorted(row)) for row in rows} == {
        tuple(sorted(row)) for row in committed["rows"]}


def test_load_flags_reach_every_leg(monkeypatch):
    """A load flag given with ``--spawner process`` sets the wall-clock
    leg's load as well as the simulator leg's; a flag not given keeps
    each leg's own."""
    legs = {}

    def sweep(mode, *, seed, depths, **load):
        legs[mode] = load
        leg = {"rows": [], "speedup_depth2_over_depth1": 1.0,
               "mean_latency_improved": True}
        if mode == "simulator":
            leg.update(reply_digests={}, replies_identical=True)
        return leg

    monkeypatch.setattr(pipeline, "_sweep", sweep)
    artifact = run_pipeline_cell(spawner="process", rps=77.0, records=30)
    for mode, leg in legs.items():
        assert (leg["rps"], leg["records"]) == (77.0, 30), mode
        assert leg["workload"] == pipeline.LEGS[mode]["workload"], mode
    assert sorted(legs) == ["simulator", "wallclock"]
    assert artifact["wallclock"]["rps"] == 77.0


@pytest.mark.slow
def test_pipeline_bench_combined_artifact_with_wallclock():
    """The merged artifact carries both row sets: the simulator section
    gated on identical replies, the wallclock section on real speedup
    (the ≥1.2x target binding only on ≥4 cores, None below)."""
    artifact = run_pipeline_cell(spawner="process", seed=7, rps=300.0,
                                 duration_ms=1_500.0, records=500)
    modes = [row["mode"] for row in artifact["rows"]]
    assert modes.count("simulator") == 3 and modes.count("wallclock") == 2
    assert artifact["simulator"]["replies_identical"] is True
    wall = artifact["wallclock"]
    assert wall["cpu_count"] >= 1
    assert isinstance(wall["mean_latency_improved"], bool)
    assert wall["meets_speedup_target"] in (True, False, None)
    if wall["cpu_count"] < 4:
        assert wall["meets_speedup_target"] is None
    for row in artifact["rows"]:
        assert row["completed"] == row["sent"]
        assert row["errors"] == 0
