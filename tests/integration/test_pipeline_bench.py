"""The pipeline bench cell: depth sweep plumbing, artifact shape, and
exactly-once completion at every depth.  (The full-size speedup
acceptance run lives in `repro bench --cell pipeline` / CI, where the
cell saturates a 32-worker deployment; here we only check the machinery
on a small, fast configuration.)"""

import pytest

from repro.bench import run_pipeline_bench, run_pipeline_cell


def test_pipeline_cell_sweeps_depths_and_reports():
    report = run_pipeline_cell(
        depths=(1, 2), rps=4_000.0, duration_ms=300.0, record_count=300,
        workers=8, state_slots=64, seed=7, drain_ms=30_000.0)
    assert [row.depth for row in report.rows] == [1, 2]
    for row in report.rows:
        assert row.completed == row.sent, (
            f"depth {row.depth} lost replies")
        assert row.errors == 0
        assert row.throughput_txn_s > 0
        assert row.batches > 0
    piped = report.rows[1]
    assert piped.depth_hist.get(2, 0) > 0, (
        "the depth-2 run never actually pipelined")
    assert report.speedup > 0.9, (
        "depth 2 must not be slower than the serial baseline: "
        f"{report.speedup:.2f}")

    artifact = report.as_artifact()
    assert artifact["cell"] == "pipeline"
    assert artifact["mode"] == "simulator"
    assert len(artifact["rows"]) == 2
    assert all(row["mode"] == "simulator" for row in artifact["rows"])
    assert artifact["rows"][1]["depth_hist"]
    assert "speedup_depth2_over_depth1" in artifact
    assert isinstance(artifact["mean_latency_improved"], bool)
    # Pipelining must change timing, never results: the simulator sweep
    # carries a per-depth reply digest and they must agree.
    assert set(artifact["reply_digests"]) == {"1", "2"}
    assert artifact["replies_identical"] is True
    assert report.replies_identical


def test_pipeline_cell_depth1_only_has_nan_speedup():
    report = run_pipeline_cell(
        depths=(1,), rps=1_000.0, duration_ms=200.0, record_count=100,
        workers=4, state_slots=16, seed=7, drain_ms=20_000.0)
    assert report.speedup != report.speedup  # NaN: nothing to compare
    assert not report.mean_latency_improved


def test_pipeline_bench_simulator_only_artifact():
    artifact, sim_report, wall_report = run_pipeline_bench(
        seed=7, include_wallclock=False,
        simulator_kwargs=dict(depths=(1, 2), rps=2_000.0,
                              duration_ms=200.0, record_count=200,
                              workers=8, state_slots=64,
                              drain_ms=20_000.0))
    assert wall_report is None
    assert "wallclock" not in artifact
    assert artifact["simulator"]["replies_identical"] is True
    assert sim_report.mode == "simulator"


@pytest.mark.slow
def test_pipeline_bench_combined_artifact_with_wallclock():
    """The merged artifact carries both row sets: the simulator section
    gated on identical replies, the wallclock section on real speedup
    (the ≥1.2x target binding only on ≥4 cores, None below)."""
    artifact, sim_report, wall_report = run_pipeline_bench(
        seed=7,
        simulator_kwargs=dict(depths=(1, 2), rps=2_000.0,
                              duration_ms=200.0, record_count=200,
                              workers=8, state_slots=64,
                              drain_ms=20_000.0),
        wallclock_kwargs=dict(depths=(1, 2), rps=300.0,
                              duration_ms=1_500.0, record_count=500,
                              workers=2, state_slots=32,
                              drain_ms=20_000.0))
    assert wall_report is not None and wall_report.mode == "wallclock"
    modes = [row["mode"] for row in artifact["rows"]]
    assert modes.count("simulator") == 2 and modes.count("wallclock") == 2
    assert artifact["simulator"]["replies_identical"] is True
    wall = artifact["wallclock"]
    assert wall["cpu_count"] >= 1
    assert isinstance(wall["mean_latency_improved"], bool)
    assert wall["meets_speedup_target"] in (True, False, None)
    if wall["cpu_count"] < 4:
        assert wall["meets_speedup_target"] is None
    for row in wall_report.rows:
        assert row.completed == row.sent
        assert row.errors == 0
