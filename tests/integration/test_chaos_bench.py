"""The chaos bench cell: recovery/availability metrics and the
reproducibility contract at the harness level."""

from repro.bench import run_chaos_cell
from repro.faults import FaultEvent, FaultPlan, MessageFaultProfile


def _plan() -> FaultPlan:
    return FaultPlan(seed=21, name="bench-chaos", events=[
        FaultEvent(kind="messages", at_ms=200.0, duration_ms=800.0,
                   channel="all",
                   profile=MessageFaultProfile(drop_p=0.04, duplicate_p=0.04,
                                               delay_p=0.15, delay_ms=15.0)),
        FaultEvent(kind="crash_worker", at_ms=600.0, worker=2),
    ])


def test_chaos_cell_measures_recovery_and_stays_correct():
    report = run_chaos_cell(rps=100.0, duration_ms=1_500.0,
                            records=30, seed=21, plan=_plan())
    assert report["ok"], report["problems"]
    assert report["recoveries"] >= 1
    assert report["fault_stats"]["worker_crashes"] == 1
    # A crash happened: the outage metric must be a real, positive gap.
    assert report["recovery_time_ms"] > 0
    assert 0.0 < report["availability"] <= 1.0
    assert report["row"]["completed"] == report["row"]["sent"]

    rerun = run_chaos_cell(rps=100.0, duration_ms=1_500.0,
                           records=30, seed=21, plan=_plan())
    assert rerun["trace_digest"] == report["trace_digest"]


def test_chaos_cell_with_a_random_plan_is_loss_free():
    """The chaos smoke the CI job runs: no plan given, so the cell draws
    ``random_plan(seed)`` (coordinator faults included) and must still
    recover loss-free."""
    report = run_chaos_cell(rps=90.0, duration_ms=1_200.0,
                            records=25, seed=33)
    assert report["ok"], report["problems"]


def test_chaos_cell_history_is_independent_of_pipeline_depth():
    """The CI chaos smoke runs at depth 1 and 2 and pins one digest:
    pipelining changes when batches commit, never what commits."""
    digests = set()
    for depth in (1, 2):
        report = run_chaos_cell(rps=90.0, duration_ms=1_200.0,
                                records=25, seed=33, pipeline_depth=depth)
        assert report["ok"], (depth, report["problems"])
        assert report["recoveries"] >= 1
        digests.add(report["trace_digest"])
    assert len(digests) == 1
