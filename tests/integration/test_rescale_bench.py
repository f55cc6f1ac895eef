"""The rescale bench cell (migration pause + post-rescale throughput)
and the ``BENCH_<cell>.json`` artifact persistence the perf trajectory
depends on."""

import json

from repro.bench import (
    run_rescale_cell,
    write_bench_artifact,
)
from repro.cli import main
from repro.faults import FaultEvent, FaultPlan
from repro.rescale import staged_plan


def test_rescale_cell_measures_migration_and_stays_correct():
    report = run_rescale_cell(rps=100.0, duration_ms=2_000.0,
                              record_count=40, seed=21)
    assert report.ok, report.problems
    assert report.rescales == 2
    assert report.final_workers == 3
    assert len(report.pauses_ms) == 2
    assert all(pause > 0 for pause in report.pauses_ms)
    assert report.mean_pause_ms > 0
    assert report.max_pause_ms >= report.mean_pause_ms
    assert report.slots_moved > 0 and report.keys_moved > 0
    # The cluster keeps serving on the new topology.
    assert report.post_throughput_rps > 0
    assert report.row.completed == report.row.sent
    assert report.row.extra["rescales"] == 2

    rerun = run_rescale_cell(rps=100.0, duration_ms=2_000.0,
                             record_count=40, seed=21)
    assert rerun.trace_digest == report.trace_digest


def test_rescale_cell_history_is_independent_of_pipeline_depth():
    """The rescale smoke's history at depth 1 and 2: the resize and the
    pipeline change when batches commit, never what commits."""
    digests = set()
    for depth in (1, 2):
        report = run_rescale_cell(rps=90.0, duration_ms=1_500.0,
                                  record_count=30, seed=33,
                                  pipeline_depth=depth)
        assert report.ok, (depth, report.problems)
        assert report.rescales == 2
        digests.add(report.trace_digest)
    assert len(digests) == 1


def test_rescale_cell_under_chaos():
    """A worker crash layered over the resize: invariants hold, and the
    run still reports its migration metrics."""
    fault_plan = FaultPlan(seed=3, events=[
        FaultEvent(kind="crash_worker", at_ms=700.0, worker=1)])
    report = run_rescale_cell(rps=90.0, duration_ms=2_000.0,
                              record_count=30, seed=7,
                              fault_plan=fault_plan)
    assert report.ok, report.problems
    assert report.rescales >= 2


def test_cell_elides_duplicate_targets():
    """A step targeting the current worker count is a no-op: it commits
    no rescale, and the verifier still accepts the final topology
    because the cluster is already there."""
    plan = staged_plan((3, 3), start_ms=500.0, interval_ms=400.0)
    report = run_rescale_cell(rps=80.0, duration_ms=1_500.0,
                              record_count=20, seed=5, plan=plan)
    assert report.ok, report.problems
    assert report.final_workers == 3
    assert report.rescales == 1  # the duplicate target was elided


# ---------------------------------------------------------------------------
# BENCH_<cell>.json persistence
# ---------------------------------------------------------------------------


def test_write_bench_artifact_round_trips(tmp_path):
    path = write_bench_artifact("demo", {"cell": "demo", "rows": [1, 2]},
                                directory=tmp_path)
    assert path == tmp_path / "BENCH_demo.json"
    assert json.loads(path.read_text()) == {"cell": "demo", "rows": [1, 2]}


def test_write_bench_artifact_honours_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
    path = write_bench_artifact("env", {"cell": "env"})
    assert path == tmp_path / "out" / "BENCH_env.json"
    assert path.exists()


def test_cli_bench_writes_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--duration-ms", "800", "--records", "20",
                 "--rps", "60"]) == 0
    payload = json.loads((tmp_path / "BENCH_ycsb.json").read_text())
    assert payload["cell"] == "ycsb"
    assert payload["rows"][0]["system"] == "stateflow"
    assert "BENCH_ycsb.json" in capsys.readouterr().out


def test_cli_rescale_run_writes_artifact(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["rescale", "run", "--duration-ms", "1500",
                 "--records", "20", "--rps", "80", "--seed", "9"]) == 0
    payload = json.loads((tmp_path / "BENCH_rescale.json").read_text())
    assert payload["cell"] == "rescale"
    assert payload["rescales"] == 2
    assert payload["mean_pause_ms"] > 0
    assert payload["problems"] == []
    out = capsys.readouterr().out
    assert "exactly-once across rescales" in out


def test_cli_rescale_plan_and_run_from_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan_path = tmp_path / "plan.json"
    assert main(["rescale", "plan", "--targets", "4,2",
                 "--start-ms", "400", "--interval-ms", "500",
                 "--out", str(plan_path)]) == 0
    assert main(["rescale", "run", "--plan", str(plan_path),
                 "--duration-ms", "1500", "--records", "20",
                 "--rps", "80"]) == 0
    payload = json.loads((tmp_path / "BENCH_rescale.json").read_text())
    assert payload["final_workers"] == 2
    assert "4 -> 2" in capsys.readouterr().out


def test_cli_chaos_run_writes_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    main(["chaos", "run", "--seed", "7", "--duration-ms", "1200",
          "--records", "20", "--rps", "80"])
    payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
    assert payload["cell"] == "chaos"
    assert "trace_digest" in payload


def test_cli_bench_rejects_rescale_on_statefun(tmp_path):
    plan_path = tmp_path / "plan.json"
    staged_plan((2,)).to_json(plan_path)
    import pytest
    with pytest.raises(SystemExit, match="stateflow"):
        main(["bench", "--system", "statefun", "--rescale",
              str(plan_path)])


def test_cli_bench_accepts_rescale_plan(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan_path = tmp_path / "plan.json"
    staged_plan((3,), start_ms=300.0).to_json(plan_path)
    assert main(["bench", "--rescale", str(plan_path),
                 "--duration-ms", "800", "--records", "20",
                 "--rps", "60"]) == 0
