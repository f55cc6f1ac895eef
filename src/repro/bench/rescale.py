"""Elastic-rescale benchmarking: what does a live resize cost?

``run_rescale_cell`` drives one (workload, rescale-plan, seed) cell on
the StateFlow runtime — optionally under a fault plan as well (rescale
under chaos) — and returns a :class:`RescaleReport`:

- ``pauses_ms`` — per-rescale migration pause (batching barred from the
  RESCALE barrier to routing-table commit), from the coordinator's
  ``rescale_log``;
- ``slots_moved`` / ``keys_moved`` — how much state actually migrated
  (the minimal-movement property keeps this a fraction of the store);
- ``pre_throughput_rps`` / ``post_throughput_rps`` — completed replies
  per second before the first rescale began vs after the last one
  committed, over the load window: elasticity is only useful if the
  cluster keeps serving at speed on the new topology;
- ``trace_digest`` — the same reproducibility fingerprint as the chaos
  cells: reruns of one (seed, plan) pair must match byte for byte;
- ``problems`` — violated invariants (lost/duplicated replies, broken
  conservation, wrong final worker count), empty on a correct run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..faults import FaultPlan
from ..rescale import RescalePlan, staged_plan
from ..runtimes.state import materialize_snapshot
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .chaos import (chaos_coordinator_config, trace_state_digest,
                    verify_history)
from .harness import ExperimentRow, build_runtime, ycsb_program


@dataclass(slots=True)
class RescaleReport:
    """One rescale cell's outcome (see module docstring)."""

    row: ExperimentRow
    plan_name: str
    rescales: int
    pauses_ms: list[float]
    slots_moved: int
    keys_moved: int
    pre_throughput_rps: float
    post_throughput_rps: float
    final_workers: int
    trace_digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def mean_pause_ms(self) -> float:
        return (sum(self.pauses_ms) / len(self.pauses_ms)
                if self.pauses_ms else 0.0)

    @property
    def max_pause_ms(self) -> float:
        return max(self.pauses_ms) if self.pauses_ms else 0.0

    def as_artifact(self) -> dict[str, Any]:
        """JSON-ready payload for ``BENCH_rescale.json`` persistence."""
        return {
            "cell": "rescale",
            "row": self.row.as_dict(),
            "plan": self.plan_name,
            "rescales": self.rescales,
            "pauses_ms": [round(p, 3) for p in self.pauses_ms],
            "mean_pause_ms": round(self.mean_pause_ms, 3),
            "max_pause_ms": round(self.max_pause_ms, 3),
            "slots_moved": self.slots_moved,
            "keys_moved": self.keys_moved,
            "pre_throughput_rps": round(self.pre_throughput_rps, 2),
            "post_throughput_rps": round(self.post_throughput_rps, 2),
            "final_workers": self.final_workers,
            "trace_digest": self.trace_digest,
            "problems": list(self.problems),
        }

    def summary(self) -> str:
        lines = [
            f"plan:              {self.plan_name}",
            f"rescales:          {self.rescales} "
            f"(final topology: {self.final_workers} workers)",
            f"migration pause:   mean {self.mean_pause_ms:.2f} ms, "
            f"max {self.max_pause_ms:.2f} ms",
            f"state migrated:    {self.slots_moved} slots / "
            f"{self.keys_moved} keys",
            f"throughput:        {self.pre_throughput_rps:.1f} rps before "
            f"-> {self.post_throughput_rps:.1f} rps after",
            f"trace digest:      {self.trace_digest}",
        ]
        if self.problems:
            lines.append("PROBLEMS:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        else:
            lines.append("verdict:           serializable, loss-free, "
                         "exactly-once across rescales")
        return "\n".join(lines)


def run_rescale_cell(workload_name: str = "T",
                     distribution: str = "uniform", *,
                     workers: int = 2,
                     plan: RescalePlan | None = None,
                     rps: float = 150.0, duration_ms: float = 4_000.0,
                     record_count: int = 60, seed: int = 42,
                     fault_plan: FaultPlan | None = None,
                     pipeline_depth: int | None = None,
                     snapshot_mode: str | None = None,
                     changelog: bool | None = None,
                     drain_ms: float = 30_000.0) -> RescaleReport:
    """Run one rescale cell; ``plan=None`` uses the canonical
    2 -> 4 -> 3 staged plan spread across the load window.

    Every submitted request must complete exactly once and the final
    committed history must satisfy the serial oracle — violations land
    in ``problems`` rather than raising, so the CLI can report them.
    """
    if plan is None:
        plan = staged_plan((workers * 2, max(workers * 2 - 1, 1)),
                           start_ms=duration_ms * 0.3,
                           interval_ms=duration_ms * 0.3)
    runtime = build_runtime(
        "stateflow", ycsb_program(), seed=seed,
        workers=workers,
        rescale_plan=plan, fault_plan=fault_plan,
        pipeline_depth=pipeline_depth,
        snapshot_mode=snapshot_mode, changelog=changelog,
        coordinator=chaos_coordinator_config())

    trace: list[tuple] = []
    completions: list[float] = []

    def tap(reply) -> None:
        trace.append((reply.request_id, repr(reply.payload), reply.error))
        completions.append(runtime.sim.now)

    runtime.reply_tap = tap
    workload = YcsbWorkload(workload_name, record_count=record_count,
                            distribution=distribution, seed=seed + 1,
                            initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=drain_ms, seed=seed + 2))
    started_at = runtime.sim.now
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + drain_ms)
    completed, errors = driver.completed, driver.errors

    coordinator = runtime.coordinator
    load_end = started_at + duration_ms

    # -- migration pauses & throughput around the rescale window ---------
    pauses = [record.pause_ms for record in coordinator.rescale_log]
    first_started = (coordinator.rescale_log[0].started_at_ms
                     if coordinator.rescale_log else load_end)
    last_committed = (coordinator.rescale_log[-1].committed_at_ms
                      if coordinator.rescale_log else load_end)

    def window_rps(begin: float, end: float) -> float:
        span_s = (end - begin) / 1000.0
        if span_s <= 0:
            return 0.0
        return sum(1 for at in completions if begin <= at < end) / span_s

    pre_rps = window_rps(started_at, first_started)
    if last_committed < load_end:
        post_rps = window_rps(last_committed, load_end)
    else:
        # Recovery pushed the last commit past the load window (chaos
        # runs): measure over the drain completions instead of a
        # degenerate sliver that would report ~0 for a healthy cluster.
        tail_end = (completions[-1] + 1.0 if completions
                    else last_committed + 1.0)
        post_rps = window_rps(last_committed,
                              max(tail_end, last_committed + 1.0))

    # -- invariants ------------------------------------------------------
    state = materialize_snapshot(runtime.committed.snapshot())
    problems = verify_history(sent=result.sent, completed=completed,
                              trace=trace, state=state, workload=workload,
                              workload_name=workload_name)
    if fault_plan is None and plan.steps:
        # Fault-free runs must land exactly on the plan's final target;
        # under chaos a step can legitimately be lost to a coordinator
        # crash, so only the invariants above apply.
        wanted = plan.steps[-1].workers
        if runtime.worker_count != wanted:
            problems.append(f"final topology is {runtime.worker_count} "
                            f"workers, plan targeted {wanted}")

    extra = {
        "rescales": coordinator.rescales,
        "mean_pause_ms": round(sum(pauses) / len(pauses), 3) if pauses else 0.0,
        "keys_moved": coordinator.keys_migrated,
        "final_workers": runtime.worker_count,
        # Incremental snapshots: slots shipped as base+delta fragments
        # vs full copies, and the delta volume that crossed the wire.
        "migration_delta_slots": runtime.migration_delta_slots,
        "migration_full_slots": runtime.migration_full_slots,
        "migration_delta_keys": runtime.migration_delta_keys,
    }
    row = ExperimentRow(
        system="stateflow", workload=workload_name,
        distribution=distribution, rps=rps,
        p50_ms=result.percentile(50), p99_ms=result.percentile(99),
        mean_ms=result.mean(), sent=result.sent,
        completed=completed, errors=errors, extra=extra)
    return RescaleReport(
        row=row, plan_name=plan.name or "rescale",
        rescales=coordinator.rescales, pauses_ms=pauses,
        slots_moved=coordinator.slots_migrated,
        keys_moved=coordinator.keys_migrated,
        pre_throughput_rps=pre_rps, post_throughput_rps=post_rps,
        final_workers=runtime.worker_count,
        trace_digest=trace_state_digest(trace, state), problems=problems)
