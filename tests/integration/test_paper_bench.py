"""The paper cell (``repro bench --cell paper``): a fresh run of each
section is diffed against the committed ``BENCH_paper.json``, and a
failed gate fails the cell."""

import json
from pathlib import Path

import pytest

from repro.bench import paper
from repro.bench.harness import drift, key_paths
from repro.bench.overhead import OverheadRow
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((ROOT / "BENCH_paper.json").read_text(encoding="utf-8"))


def _fresh(name: str) -> dict:
    """One section, run now and passed through JSON as the artifact is."""
    return json.loads(json.dumps(paper.SECTIONS[name](COMMITTED["seed"])))


def test_the_committed_artifact_has_every_section_and_holds():
    sections = COMMITTED["sections"]
    assert sorted(sections) == sorted(paper.SECTIONS)
    assert {name: section["clock"] for name, section in sections.items()} == {
        "figure3": "modelled", "figure4": "modelled", "abl_comm": "modelled",
        "abl_txn": "modelled", "abl_split": "measured",
        "overhead": "measured"}
    assert COMMITTED["ok"]
    assert all(section["ok"] and not section["problems"]
               for section in sections.values())


@pytest.mark.parametrize("name", ["figure3", "abl_comm", "abl_txn"])
def test_a_modelled_section_equals_the_committed_one(name):
    """Virtual time: the same seed gives the same bytes.  Figure 4 (about
    23 s) is diffed by CI's paper job instead."""
    assert drift(COMMITTED["sections"][name], _fresh(name)) == []


@pytest.mark.parametrize("name", ["abl_split", "overhead"])
def test_a_measured_section_keeps_its_keys_and_verdict(name):
    fresh, committed = _fresh(name), COMMITTED["sections"][name]
    assert key_paths(fresh) == key_paths(committed)
    assert fresh["ok"] == committed["ok"], fresh["problems"]


def test_a_planted_violation_fails_the_cell(tmp_path, monkeypatch):
    """Split bookkeeping at 2 % of the total breaks the <1 % claim: the
    cell records the problem and exits non-zero."""
    def planted(state_kbs, operations):
        return [OverheadRow(state_kb=kb, operations=operations,
                            total_ms=100.0,
                            component_ms={"state_serde": kb / 10,
                                          "split_instrumentation": 2.0})
                for kb in state_kbs]

    monkeypatch.setattr(paper, "run_overhead_breakdown", planted)
    monkeypatch.setattr(paper, "SECTIONS",
                        {"overhead": paper.SECTIONS["overhead"]})
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert main(["bench", "--cell", "paper"]) == 1
    artifact = json.loads((tmp_path / "BENCH_paper.json").read_text())
    overhead = artifact["sections"]["overhead"]
    assert not artifact["ok"] and not overhead["ok"]
    assert len(overhead["problems"]) == 4
    assert all("<1%" in problem for problem in overhead["problems"])
