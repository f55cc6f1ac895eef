"""Pipelined-epoch benchmark: committed-txn throughput vs pipeline depth.

``run_pipeline_cell`` sweeps ``pipeline_depth`` over a YCSB-A/zipfian
cell and reports, per depth, the *sustained committed-transaction
throughput* — completed requests divided by the time the last reply
landed, so a backlog that drains slowly is charged honestly — plus
latency percentiles and the coordinator's pipeline telemetry (in-flight
depth histogram, commit-region stall time, cross-batch stale aborts).

The sweep runs on either execution substrate, and the two substrates
answer **different questions**:

- ``spawner="simulator"`` (default): single-threaded virtual time.
  Depth changes scheduling, never results — the meaningful gate is that
  every depth produces *byte-identical replies* (``reply_digests`` /
  ``replies_identical``).  A virtual-time "speedup" is a statement
  about the cost model, not the hardware, and is reported but not
  gated.
- ``spawner="process"``: real worker processes on the wall clock.  This
  is the substrate where a depth-2-over-depth-1 speedup is allowed to
  mean something; the artifact's ``wallclock`` section carries the
  speedup, ``mean_latency_improved``, and ``cpu_count``.  Both
  wall-clock acceptance gates (the ≥1.2× throughput target and the
  latency improvement) only bind on ≥``MIN_CORES`` cores — on fewer
  there is no parallel hardware to win on (total CPU is conserved, so
  pipelining merely reorders it) and the numbers are reported, not
  gated.

``repro bench --cell pipeline`` runs the simulator sweep, adds a
wall-clock sweep (``run_pipeline_bench``), and persists both row sets
in one ``BENCH_pipeline.json``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any

from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .harness import build_runtime, process_stateflow_overrides, ycsb_program

#: Wall-clock acceptance target: depth-2 committed-txn throughput over
#: depth-1, binding only when the host has at least MIN_CORES cores.
SPEEDUP_TARGET = 1.2
MIN_CORES = 4


@dataclass(slots=True)
class PipelineRow:
    """One (pipeline_depth) point of the sweep."""

    depth: int
    throughput_txn_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    sent: int
    completed: int
    errors: int
    batches: int
    stall_ms: float
    aborts_stale: int
    depth_hist: dict[int, int] = field(default_factory=dict)
    #: Which substrate produced the row: "simulator" or "wallclock".
    mode: str = "simulator"

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "depth": self.depth,
            "throughput_txn_s": round(self.throughput_txn_s, 1),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "mean_ms": round(self.mean_ms, 2),
            "sent": self.sent,
            "completed": self.completed,
            "errors": self.errors,
            "batches": self.batches,
            "stall_ms": round(self.stall_ms, 2),
            "aborts_stale": self.aborts_stale,
            "depth_hist": {str(k): v
                           for k, v in sorted(self.depth_hist.items())},
        }


@dataclass(slots=True)
class PipelineReport:
    """One substrate's sweep: per-depth rows plus the headline ratios."""

    rows: list[PipelineRow]
    workload: str
    distribution: str
    workers: int
    rps: float
    mode: str = "simulator"
    #: Order-independent digest of each depth's reply stream (simulator
    #: sweeps): pipelining must change timing, never results.
    reply_digests: dict[int, str] = field(default_factory=dict)

    def _row(self, depth: int) -> PipelineRow | None:
        for row in self.rows:
            if row.depth == depth:
                return row
        return None

    @property
    def speedup(self) -> float:
        """Committed-txn throughput, depth 2 over depth 1."""
        base, piped = self._row(1), self._row(2)
        if base is None or piped is None or base.throughput_txn_s == 0:
            return float("nan")
        return piped.throughput_txn_s / base.throughput_txn_s

    @property
    def mean_latency_improved(self) -> bool:
        base, piped = self._row(1), self._row(2)
        if base is None or piped is None:
            return False
        return piped.mean_ms < base.mean_ms

    @property
    def replies_identical(self) -> bool:
        """Every swept depth produced byte-identical replies (vacuously
        true with fewer than two digests)."""
        return len(set(self.reply_digests.values())) <= 1

    def as_artifact(self) -> dict[str, Any]:
        artifact = {
            "cell": "pipeline",
            "workload": self.workload,
            "distribution": self.distribution,
            "workers": self.workers,
            "rps": self.rps,
            "mode": self.mode,
            "rows": [row.as_dict() for row in self.rows],
            "speedup_depth2_over_depth1": round(self.speedup, 3),
            "mean_latency_improved": self.mean_latency_improved,
        }
        if self.mode == "simulator":
            artifact["reply_digests"] = {
                str(depth): digest
                for depth, digest in sorted(self.reply_digests.items())}
            artifact["replies_identical"] = self.replies_identical
        else:
            artifact["cpu_count"] = os.cpu_count() or 1
        return artifact

    def summary(self) -> str:
        lines = [f"[{self.mode}] pipeline speedup (depth 2 vs 1): "
                 f"{self.speedup:.2f}x committed-txn throughput"]
        base, piped = self._row(1), self._row(2)
        if base is not None and piped is not None:
            lines.append(f"mean latency: {base.mean_ms:.1f} ms -> "
                         f"{piped.mean_ms:.1f} ms")
        if self.mode == "simulator" and len(self.reply_digests) > 1:
            lines.append("replies identical across depths: "
                         f"{self.replies_identical}")
        return "\n".join(lines)


def _reply_digest(replies: list[tuple]) -> str:
    """Digest of a run's deduplicated reply stream, order-independent
    (arrival order varies with scheduling; content must not)."""
    return hashlib.sha256(
        repr(sorted(replies, key=repr)).encode()).hexdigest()


def run_pipeline_cell(*, depths: tuple[int, ...] = (1, 2, 4),
                      workload_name: str = "A",
                      distribution: str = "zipfian",
                      rps: float = 36_000.0, duration_ms: float = 1_000.0,
                      record_count: int = 50_000, workers: int = 32,
                      state_slots: int = 128, seed: int = 42,
                      drain_ms: float = 60_000.0,
                      spawner: str = "simulator") -> PipelineReport:
    """Sweep ``pipeline_depth`` over one YCSB cell on one substrate."""
    program = ycsb_program()
    wallclock = spawner != "simulator"
    rows: list[PipelineRow] = []
    digests: dict[int, str] = {}
    for depth in depths:
        overrides: dict[str, Any] = dict(
            workers=workers, state_slots=state_slots, pipeline_depth=depth)
        if wallclock:
            overrides = process_stateflow_overrides(**overrides)
        runtime = build_runtime("stateflow", program, seed=seed, **overrides)
        workload = YcsbWorkload(workload_name, record_count=record_count,
                                distribution=distribution, seed=seed + 1)
        runtime.preload(Account, workload.dataset_rows())
        replies: list[tuple] = []
        runtime.reply_tap = (lambda reply, sink=replies: sink.append(
            (reply.request_id, repr(reply.payload), reply.error)))
        runtime.start()
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
            drain_ms=drain_ms, seed=seed + 2,
            stop_when_drained=wallclock))
        result = driver.run()
        # Sustained throughput: completed work over the time the last
        # reply actually landed (the drain is charged, not hidden).
        last_reply_ms = max((s.at_ms for s in runtime.metrics.samples),
                            default=duration_ms)
        stats = runtime.coordinator.stats
        rows.append(PipelineRow(
            depth=depth,
            throughput_txn_s=result.completed / (last_reply_ms / 1000.0),
            p50_ms=result.percentile(50), p99_ms=result.percentile(99),
            mean_ms=result.mean(), sent=result.sent,
            completed=result.completed, errors=result.errors,
            batches=stats.batches, stall_ms=stats.stall_ms,
            aborts_stale=stats.aborts_stale,
            depth_hist=dict(stats.depth_hist),
            mode="wallclock" if wallclock else "simulator"))
        if not wallclock:
            digests[depth] = _reply_digest(replies)
        runtime.close()
    return PipelineReport(rows=rows, workload=workload_name,
                          distribution=distribution, workers=workers, rps=rps,
                          mode="wallclock" if wallclock else "simulator",
                          reply_digests=digests)


def run_pipeline_bench(*, seed: int = 42,
                       simulator_kwargs: dict[str, Any] | None = None,
                       wallclock_kwargs: dict[str, Any] | None = None,
                       include_wallclock: bool = True,
                       ) -> tuple[dict[str, Any], PipelineReport,
                                  PipelineReport | None]:
    """The full pipeline bench: a saturating simulator sweep plus a
    wall-clock process-substrate sweep, merged into one artifact.

    Returns ``(artifact, simulator_report, wallclock_report)`` — the
    wall-clock report is ``None`` when ``include_wallclock`` is off.
    """
    sim_args: dict[str, Any] = dict(depths=(1, 2, 4), seed=seed)
    sim_args.update(simulator_kwargs or {})
    sim_report = run_pipeline_cell(**sim_args)

    wall_report: PipelineReport | None = None
    if include_wallclock:
        wall_args: dict[str, Any] = dict(
            depths=(1, 2), spawner="process", seed=seed,
            # Real seconds now, and a different cell than the simulator
            # firehose: transfers (workload T) run in the execute phase
            # — the work depth 2 actually overlaps with the predecessor's
            # commit — where workload A's single-key ops execute inside
            # the ordered commit region and pipeline nothing.  The rate
            # saturates the deployment so the depth comparison measures
            # capacity, not idle path length, and the keyspace is wide
            # enough that cross-batch stale aborts stay rare (the sweep
            # measures pipelining, not conflict handling).
            workload_name="T", distribution="uniform",
            rps=2_400.0, duration_ms=4_000.0, record_count=8_000,
            workers=4, state_slots=64, drain_ms=30_000.0)
        wall_args.update(wallclock_kwargs or {})
        wall_report = run_pipeline_cell(**wall_args)

    artifact = sim_report.as_artifact()
    if wall_report is not None:
        cpu_count = os.cpu_count() or 1
        artifact["rows"] = ([row.as_dict() for row in sim_report.rows]
                            + [row.as_dict() for row in wall_report.rows])
        artifact["wallclock"] = {
            "workload": wall_report.workload,
            "distribution": wall_report.distribution,
            "rps": wall_report.rps,
            "workers": wall_report.workers,
            "cpu_count": cpu_count,
            "speedup_depth2_over_depth1": round(wall_report.speedup, 3),
            "mean_latency_improved": wall_report.mean_latency_improved,
            # The ≥1.2x throughput target only binds with real parallel
            # hardware; on fewer cores it is reported as None ("not
            # applicable"), never as a vacuous pass.
            "meets_speedup_target": (
                bool(wall_report.speedup >= SPEEDUP_TARGET)
                if cpu_count >= MIN_CORES else None),
        }
    artifact["simulator"] = {
        "rps": sim_report.rps,
        "speedup_depth2_over_depth1": round(sim_report.speedup, 3),
        "mean_latency_improved": sim_report.mean_latency_improved,
        "reply_digests": {str(d): h for d, h
                          in sorted(sim_report.reply_digests.items())},
        "replies_identical": sim_report.replies_identical,
    }
    return artifact, sim_report, wall_report
