"""Resizes through the chaos cell (migration pause + post-rescale
throughput), the committed chaos and rescale artifacts, and the
``BENCH_<cell>.json`` persistence the perf trajectory depends on."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    run_chaos_cell,
    write_bench_artifact,
)
from repro.cli import main
from repro.faults import FaultEvent, FaultPlan, staged_plan

ROOT = Path(__file__).resolve().parents[2]

#: The CI rescale smoke's committed trace digest.
RESCALE_DIGEST = ("8ec7b576a928ef00ca481ac60c379bdca337e5d6c473273e3a53178d"
                  "7e3cbade")


def _resize(**kwargs):
    """A 2 -> 4 -> 3 resize at the old rescale cell's load size."""
    return run_chaos_cell(**{"workers": 2, "targets": (4, 3),
                             "records": 60, **kwargs})


def test_rescale_cell_measures_migration_and_stays_correct():
    report = _resize(rps=100.0, duration_ms=2_000.0, records=40, seed=21)
    assert report["ok"], report["problems"]
    assert report["rescales"] == 2
    assert report["final_workers"] == 3
    assert len(report["pauses_ms"]) == 2
    assert all(pause > 0 for pause in report["pauses_ms"])
    assert report["mean_pause_ms"] > 0
    assert report["max_pause_ms"] >= report["mean_pause_ms"]
    assert report["slots_moved"] > 0 and report["keys_moved"] > 0
    # The cluster keeps serving on the new topology.
    assert report["post_throughput_rps"] > 0
    assert report["row"]["completed"] == report["row"]["sent"]

    rerun = _resize(rps=100.0, duration_ms=2_000.0, records=40, seed=21)
    assert rerun["trace_digest"] == report["trace_digest"]


def _chaos_plan(tmp_path, *argv: str) -> str:
    path = str(tmp_path / "plan.json")
    assert main(["chaos", "plan", *argv, "--out", path]) == 0
    return path


#: The CI rescale smoke's ``chaos run`` options, after ``--plan``.
RESCALE_SMOKE = ["--targets", "4,3", "--workers", "2", "--seed", "11",
                 "--duration-ms", "2500", "--rps", "150", "--records", "60"]


def test_the_rescale_smoke_writes_the_committed_artifact(tmp_path,
                                                         monkeypatch):
    """The CI rescale smoke's command line — a staged 2 -> 4 -> 3 ahead
    of ``chaos plan --seed 11 --duration-ms 2500 --rescales 1`` — writes
    the committed ``BENCH_rescale.json`` byte for byte: a merged
    schedule that drops the chaos plan's seed or moves a resize fails
    here."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan = _chaos_plan(tmp_path, "--seed", "11", "--duration-ms", "2500",
                       "--rescales", "1")
    assert main(["chaos", "run", *RESCALE_SMOKE, "--plan", plan]) == 0
    assert (tmp_path / "BENCH_chaos.json").read_bytes() \
        == (ROOT / "BENCH_rescale.json").read_bytes()


def test_the_chaos_smoke_writes_the_committed_artifact(tmp_path,
                                                       monkeypatch):
    """The CI chaos smoke's two commands write the committed
    ``BENCH_chaos.json`` byte for byte."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan = _chaos_plan(tmp_path, "--seed", "7", "--duration-ms", "2000",
                       "--coordinator-faults")
    assert main(["chaos", "run", "--plan", plan, "--seed", "7",
                 "--duration-ms", "2000"]) == 0
    assert (tmp_path / "BENCH_chaos.json").read_bytes() \
        == (ROOT / "BENCH_chaos.json").read_bytes()


def test_a_resize_on_disk_commits_what_memory_commits(tmp_path,
                                                      monkeypatch):
    """The rescale smoke in memory, with ``--durable DIR`` and on a cold
    rerun over DIR: one committed history."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan = _chaos_plan(tmp_path, "--seed", "11", "--duration-ms", "2500",
                       "--rescales", "1")
    state = str(tmp_path / "state")
    for durable in ([], ["--durable", state], ["--durable", state]):
        assert main(["chaos", "run", *RESCALE_SMOKE, "--plan", plan,
                     *durable]) == 0
        payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
        assert payload["trace_digest"] == RESCALE_DIGEST, durable
        assert payload["rescales"] == 3
    assert (tmp_path / "state" / "MANIFEST.json").exists()


def test_rescale_cell_history_is_independent_of_pipeline_depth():
    """The rescale smoke's history at depth 1 and 2: the resize and the
    pipeline change when batches commit, never what commits."""
    digests = set()
    for depth in (1, 2):
        report = _resize(rps=90.0, duration_ms=1_500.0, records=30,
                         seed=33, pipeline_depth=depth)
        assert report["ok"], (depth, report["problems"])
        assert report["rescales"] == 2
        digests.add(report["trace_digest"])
    assert len(digests) == 1


def test_rescale_cell_under_chaos():
    """A worker crash layered over the resize: invariants hold, and the
    run still reports its migration metrics."""
    fault_plan = FaultPlan(seed=3, events=[
        FaultEvent(kind="crash_worker", at_ms=700.0, worker=1)])
    report = _resize(rps=90.0, duration_ms=2_000.0, records=30,
                     seed=7, plan=fault_plan)
    assert report["ok"], report["problems"]
    assert report["rescales"] >= 2
    assert report["recoveries"] >= 1


def test_cell_elides_duplicate_targets():
    """A step targeting the current worker count is a no-op: it commits
    no rescale, and the verifier still accepts the final topology
    because the cluster is already there."""
    report = _resize(rps=80.0, duration_ms=1_500.0, records=20,
                     seed=5, targets=(3, 3))
    assert report["ok"], report["problems"]
    assert report["final_workers"] == 3
    assert report["rescales"] == 1  # the duplicate target was elided


# ---------------------------------------------------------------------------
# BENCH_<cell>.json persistence
# ---------------------------------------------------------------------------


def test_write_bench_artifact_round_trips(tmp_path, monkeypatch):
    """The artifact records its command, and its wall-clock fields (none
    unless the payload names some, each of which must exist)."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    path = write_bench_artifact("demo", {"cell": "demo", "rows": [1, 2]},
                                "repro demo")
    assert path == tmp_path / "BENCH_demo.json"
    assert json.loads(path.read_text()) == {
        "cell": "demo", "rows": [1, 2], "command": "repro demo",
        "wall_clock": []}
    with pytest.raises(ValueError, match="wall_clock"):
        write_bench_artifact("demo", {"wall_clock": ["rows[].ms"]},
                             "repro demo")


def test_write_bench_artifact_honours_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "out"))
    path = write_bench_artifact("env", {"cell": "env"}, "repro env")
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


def test_cli_chaos_run_with_targets_writes_artifact(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["chaos", "run", "--targets", "4,3", "--workers", "2",
                 "--duration-ms", "1500", "--records", "20", "--rps", "80",
                 "--seed", "9"]) == 0
    payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
    assert payload["cell"] == "chaos"
    assert payload["plan"] == "staged-4-3"
    assert payload["rescales"] == 2
    assert payload["mean_pause_ms"] > 0
    assert payload["problems"] == []
    out = capsys.readouterr().out
    assert "exactly-once across rescales" in out


def test_cli_chaos_run_to_chosen_targets(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["chaos", "run", "--targets", "4,2", "--workers", "2",
                 "--duration-ms", "1500", "--records", "20",
                 "--rps", "80"]) == 0
    payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
    assert payload["final_workers"] == 2
    assert "2 -> 4 -> 2" in capsys.readouterr().out


def test_cli_chaos_run_writes_artifact(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    main(["chaos", "run", "--seed", "7", "--duration-ms", "1200",
          "--records", "20", "--rps", "80"])
    payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
    assert payload["cell"] == "chaos"
    assert "trace_digest" in payload


@pytest.mark.parametrize("workload,distribution",
                         [("A", "zipfian"), ("B", "uniform")])
def test_cli_chaos_run_resizes_a_ycsb_cell_from_a_plan(
        workload, distribution, tmp_path, monkeypatch):
    """``chaos run --plan`` carries resizes on any YCSB workload: a plan
    of ``rescale`` events resizes the cell mid-run, and the run lands
    on its target."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    plan_path = tmp_path / "plan.json"
    staged_plan((3,), start_ms=300.0).to_json(plan_path)
    assert main(["chaos", "run", "--plan", str(plan_path),
                 "--workload", workload, "--distribution", distribution,
                 "--duration-ms", "800", "--records", "20",
                 "--rps", "60"]) == 0
    payload = json.loads((tmp_path / "BENCH_chaos.json").read_text())
    assert (payload["rescales"], payload["final_workers"]) == (1, 3)
    assert payload["row"]["workload"] == workload
