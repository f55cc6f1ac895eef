"""Committed ``BENCH_<cell>.json`` files against fresh runs of their
producers: a key the code no longer writes, or a value it no longer
computes, fails here instead of lingering in the repository.  Every
committed artifact names the command that wrote it, and a CI job runs
that command and diffs the result with :func:`~repro.bench.harness.
drift`."""

import json
import shlex
from pathlib import Path

import pytest

from repro.bench.harness import drift, key_paths
from repro.cli import build_parser, main, recorded_command

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"


def _ci_commands() -> set[str]:
    """Every ``python -m repro`` command line of the CI workflow, as an
    artifact records it."""
    commands = set()
    for line in CI.read_text(encoding="utf-8").splitlines():
        _, found, rest = line.partition("python -m repro ")
        if found:
            commands.add(recorded_command(shlex.split(rest.split("|")[0])))
    return commands


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_a_ci_job_regenerates_every_committed_artifact(path):
    """An artifact no CI job rewrites and diffs could go stale unseen."""
    artifact = json.loads(path.read_text(encoding="utf-8"))
    assert artifact["ok"] is True
    assert set(artifact["wall_clock"]) <= key_paths(artifact)
    assert artifact["command"] in _ci_commands(), (
        f"no CI job runs {artifact['command']!r}")


def test_recorded_commands_name_no_path():
    assert recorded_command(
        ["chaos", "run", "--plan", "/tmp/p.json", "--seed", "7",
         "--durable=/tmp/state"]) == (
        "repro chaos run --plan PLAN_JSON --seed 7 --durable=DIR")
    # A prefix of a path flag would record the path: it is refused.
    assert build_parser().parse_args(
        ["bench", "--durable", "/tmp/state"]).durability_dir == "/tmp/state"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["chaos", "run", "--pla", "/tmp/p.json"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--durab", "/tmp/state"])


def test_drift_skips_only_the_wall_clock_fields():
    committed = {"rows": [{"ms": 1.0, "n": 2}], "wall_clock": ["rows[].ms"]}
    assert drift(committed, {**committed, "rows": [{"ms": 9.0, "n": 2}]}) \
        == []
    assert drift(committed, {**committed, "rows": [{"ms": 1.0, "n": 3}]}) \
        == ["rows[0].n: committed 2, fresh 3"]
    assert drift(committed, {**committed, "rows": [{"ms": 1.0}]}) \
        == ["rows[0].n: only in committed"]
    # A key dropped from one list item is caught although another item
    # still has it.
    mixed = {"rows": [{"a": 1}, {"a": 1, "b": 2}], "wall_clock": []}
    assert drift(mixed, {**mixed, "rows": [{"a": 1, "b": 2}, {"a": 1}]}) \
        == ["rows[0].b: only in fresh", "rows[1].b: only in committed"]
    # Below a wall-clock path the values may move, the keys may not.
    timed = {"m": {"rows": [{"ms": 1.0}]}, "wall_clock": ["m"]}
    assert drift(timed, {**timed, "m": {"rows": [{"ms": 2.0}] * 2}}) == []
    assert drift(timed, {**timed, "m": {"rows": [{"us": 1.0}] * 2}}) \
        == ["m.rows[].ms: only in committed", "m.rows[].us: only in fresh"]


def test_the_autoscale_cell_writes_the_committed_artifact(tmp_path,
                                                          monkeypatch):
    """``repro bench --cell autoscale`` at its defaults, byte for byte."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--cell", "autoscale"]) == 0
    written = tmp_path / "BENCH_autoscale.json"
    assert written.read_bytes() == (ROOT / "BENCH_autoscale.json").read_bytes()


def test_a_small_recovery_cell_has_the_committed_artifacts_shape(
        tmp_path, monkeypatch):
    """One small state size (the full sweep runs in CI's recovery and
    durability jobs): the cell holds, and it writes the committed file's
    key paths but for the ones named after a state size."""
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--cell", "recovery", "--records", "200",
                 "--duration-ms", "500"]) == 0

    def shape(path: Path) -> set[str]:
        return {key for key in key_paths(json.loads(path.read_text()))
                if not key.startswith(("bytes_ratios.", "digests_match."))}

    assert shape(tmp_path / "BENCH_recovery.json") \
        == shape(ROOT / "BENCH_recovery.json")
