"""Chaos benchmarking: run a workload under a fault plan and measure
what the paper only claims — recovery and elastic-scaling behaviour.

``run_chaos_cell`` drives one (workload, fault-plan, seed) cell on a
simulated runtime and returns a :class:`ChaosReport`: the usual
latency/throughput row plus

- ``recoveries`` / ``failovers`` — how often the snapshot-replay path ran;
- ``recovery_time_ms`` — mean client-visible outage after a process
  fault: time from each injected disruption (crash, partition,
  coordinator kill) to the next completed reply;
- ``availability`` — fraction of ``bucket_ms`` buckets of the load
  window in which at least one reply completed (1.0 = no client-visible
  blackout);
- ``pauses_ms`` — per-rescale migration pause (batching barred from the
  RESCALE barrier to routing-table commit), from the coordinator's
  ``rescale_log``; ``slots_moved`` / ``keys_moved`` — how much state
  migrated;
- ``pre_throughput_rps`` / ``post_throughput_rps`` — completed replies
  per second before the first rescale began vs after the last one
  committed, over the load window (both the whole window when no resize
  committed);
- ``trace_digest`` — SHA-256 over the deduplicated reply trace and the
  final committed state: two runs with the same seeds and plan must
  produce the same digest (the reproducibility contract);
- ``problems`` — violated invariants (lost/duplicated replies, broken
  conservation, a wrong final worker count), empty on a correct run.

A resize is one more plan event: ``targets`` stages one per entry ahead
of the plan's own events (:func:`~repro.faults.staged_plan`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..faults import FaultPlan, random_plan, staged_plan
from ..runtimes.state import materialize_snapshot
from ..runtimes.stateflow.coordinator import CoordinatorConfig
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .harness import ExperimentRow, build_runtime, ycsb_program


def chaos_coordinator_config() -> CoordinatorConfig:
    """Chaos cells detect failures fast so short runs exercise many
    recovery cycles (the defaults are tuned for steady-state latency)."""
    return CoordinatorConfig(snapshot_interval_ms=250.0,
                             failure_detect_ms=200.0)


@dataclass(slots=True)
class ChaosReport:
    """One chaos cell's outcome (see module docstring)."""

    row: ExperimentRow
    plan_name: str
    recoveries: int
    failovers: int
    recovery_time_ms: float
    availability: float
    fault_stats: dict[str, int]
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
        """JSON-ready payload for ``BENCH_chaos.json`` persistence."""
        return {
            "cell": "chaos",
            "row": self.row.as_dict(),
            "plan": self.plan_name,
            "recoveries": self.recoveries,
            "failovers": self.failovers,
            "recovery_time_ms": round(self.recovery_time_ms, 2),
            "availability": round(self.availability, 3),
            "fault_stats": self.fault_stats,
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
            f"plan:             {self.plan_name}",
            f"recoveries:       {self.recoveries} "
            f"(+{self.failovers} coordinator failovers)",
            f"recovery time:    {self.recovery_time_ms:.1f} ms (mean, "
            f"disruption -> next completed reply)",
            f"availability:     {self.availability:.3f}",
            f"faults injected:  "
            + (", ".join(f"{k}={v}" for k, v in self.fault_stats.items()
                         if v) or "none"),
        ]
        if self.rescales:
            lines += [
                f"rescales:         {self.rescales} "
                f"(final topology: {self.final_workers} workers)",
                f"migration pause:  mean {self.mean_pause_ms:.2f} ms, "
                f"max {self.max_pause_ms:.2f} ms",
                f"state migrated:   {self.slots_moved} slots / "
                f"{self.keys_moved} keys",
                f"throughput:       {self.pre_throughput_rps:.1f} rps "
                f"before -> {self.post_throughput_rps:.1f} rps after",
            ]
        lines.append(f"trace digest:     {self.trace_digest}")
        if self.problems:
            lines.append("PROBLEMS:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        else:
            lines.append("verdict:          serializable, loss-free, "
                         "exactly-once"
                         + (" across rescales" if self.rescales else ""))
        return "\n".join(lines)


def trace_state_digest(trace: list[tuple], state: dict) -> str:
    """SHA-256 over (reply trace, final committed state): the
    reproducibility fingerprint of a chaos cell — identical across reruns
    of the same (seed, plan) pair."""
    blob = repr((sorted(trace),
                 sorted(state.items(), key=repr))).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()



def verify_history(*, sent: int, completed: int, trace: list[tuple],
                   state: dict, workload, workload_name: str) -> list[str]:
    """The serial-order oracle of a chaos cell:
    exactly-once completion (no loss, no duplication) plus the
    workload's state invariants (conservation and non-negative balances
    for YCSB-T).  Returns the violations; an empty list is a pass."""
    problems: list[str] = []
    if completed < sent:
        problems.append(f"lost replies: {sent - completed} "
                        f"of {sent} requests never completed")
    request_ids = [entry[0] for entry in trace]
    if len(request_ids) != len(set(request_ids)):
        problems.append("duplicated replies: a client observed the same "
                        "request id twice")
    if workload_name == "T":
        total = sum(entry["balance"] for (entity, _), entry in state.items()
                    if entity == "Account")
        expected = workload.total_balance()
        if total != expected:
            problems.append(f"conservation violated: balances sum to "
                            f"{total}, expected {expected}")
    negatives = [key for (kind, key), entry in state.items()
                 if kind == "Account" and entry.get("balance", 0) < 0]
    if negatives:
        problems.append(f"negative balances (non-serializable history): "
                        f"{negatives[:5]}")
    return problems


def run_chaos_cell(system: str = "stateflow", workload_name: str = "T",
                   distribution: str = "uniform", *, rps: float = 120.0,
                   duration_ms: float = 3_000.0, record_count: int = 50,
                   seed: int = 42, workers: int = 5,
                   plan: FaultPlan | None = None,
                   targets: Sequence[int] = (),
                   runtime_overrides: dict[str, Any] | None = None,
                   drain_ms: float = 30_000.0,
                   bucket_ms: float = 250.0) -> ChaosReport:
    """Run one chaos cell on *workers* StateFlow workers (StateFun has a
    fixed deployment).

    *targets* stages one resize per entry, spread across the load window
    ahead of *plan*'s events, under its seed; with neither, the plan is
    ``random_plan(seed)``.  *runtime_overrides* is the
    :func:`~repro.bench.harness.build_runtime` mapping
    (``--pipeline-depth``, ``--autoscale``, ``--durable`` on the CLI);
    StateFlow runs it over :func:`chaos_coordinator_config`.  Under
    ``autoscale`` the controller's decisions must compose with, and
    survive, the injected failures.

    The run window is ``duration_ms`` of load plus ``drain_ms`` of
    settling; every submitted request must complete exactly once within
    it (StateFlow's exactly-once contract — violations land in
    ``problems`` rather than raising, so the CLI can report them)."""
    program = ycsb_program()
    if targets:
        plan = staged_plan(targets, start_ms=duration_ms * 0.3,
                           interval_ms=duration_ms * 0.3, faults=plan)
    elif plan is None:
        plan = random_plan(seed, duration_ms=duration_ms, workers=workers,
                           coordinator_faults=(system == "stateflow"))
        if system != "stateflow":
            # Only StateFlow recovers drops and dedups duplicated log
            # records; a *default* plan for the other systems must be
            # perturbation-only (delays) or a healthy run would flunk
            # its own verifier.  Pass an explicit plan to demonstrate
            # the violations instead.
            for event in plan.events:
                if event.kind == "messages":
                    event.profile.drop_p = 0.0
                    event.profile.duplicate_p = 0.0
    overrides: dict[str, Any] = {"fault_plan": plan}
    if system == "stateflow":
        overrides["coordinator"] = chaos_coordinator_config()
        overrides["workers"] = workers
    overrides.update(runtime_overrides or {})
    runtime = build_runtime(system, program, seed=seed, **overrides)

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
    if hasattr(runtime, "start"):
        runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=drain_ms, seed=seed + 2))
    started_at = runtime.sim.now
    result = driver.run()
    # A deep recovery can outlast the driver's own drain; give it one
    # more window, then read the *live* driver counters (the LoadResult
    # ones were frozen when run() returned).
    runtime.sim.run(until=runtime.sim.now + drain_ms)
    completed, errors = driver.completed, driver.errors

    coordinator = getattr(runtime, "coordinator", None)
    injector = runtime.faults
    assert injector is not None
    load_end = started_at + duration_ms

    # -- recovery time: disruption -> next client-visible completion ----
    recovery_times = []
    for disrupted_at in injector.stats.disruption_times_ms:
        later = [at for at in completions if at > disrupted_at]
        if later:
            recovery_times.append(min(later) - disrupted_at)
    recovery_time = (sum(recovery_times) / len(recovery_times)
                     if recovery_times else 0.0)

    # -- availability over the load window ------------------------------
    buckets = max(int(duration_ms // bucket_ms), 1)
    hit = set()
    for at in completions:
        index = int((at - started_at) // bucket_ms)
        if 0 <= index < buckets:
            hit.add(index)
    availability = len(hit) / buckets

    # -- migration pauses & throughput around the rescale window ---------
    rescale_log = coordinator.rescale_log if coordinator else []
    pauses = [record.pause_ms for record in rescale_log]

    def window_rps(begin: float, end: float) -> float:
        span_s = (end - begin) / 1000.0
        if span_s <= 0:
            return 0.0
        return sum(1 for at in completions if begin <= at < end) / span_s

    if rescale_log:
        pre_rps = window_rps(started_at, rescale_log[0].started_at_ms)
        last_committed = rescale_log[-1].committed_at_ms
        # Recovery can push the last commit past the load window: then
        # measure over the drain completions instead of a degenerate
        # sliver that would report ~0 for a healthy cluster.
        post_end = load_end if last_committed < load_end else max(
            completions[-1] + 1.0 if completions else 0.0,
            last_committed + 1.0)
        post_rps = window_rps(last_committed, post_end)
    else:
        # One topology throughout: before and after are the load window.
        pre_rps = post_rps = window_rps(started_at, load_end)

    # -- invariants ------------------------------------------------------
    state = materialize_snapshot(runtime.committed.snapshot()) \
        if hasattr(runtime, "committed") else {
            key: runtime.state.get(*key) for key in runtime.state.keys()}
    problems = verify_history(sent=result.sent, completed=completed,
                              trace=trace, state=state, workload=workload,
                              workload_name=workload_name)
    final_workers = runtime.worker_count if coordinator else 0
    if coordinator and plan.events and all(
            event.kind == "rescale" for event in plan.events):
        # A resize-only run must land exactly on the last target; under
        # chaos a resize can legitimately be lost to a coordinator
        # crash, so only the invariants above apply.
        wanted = sorted(plan.events,
                        key=lambda event: event.at_ms)[-1].target_workers
        if final_workers != wanted:
            problems.append(f"final topology is {final_workers} "
                            f"workers, plan targeted {wanted}")

    rescales = coordinator.rescales if coordinator else 0
    keys_moved = coordinator.keys_migrated if coordinator else 0
    extra = {
        "recoveries": coordinator.recoveries if coordinator else 0,
        "recovery_time_ms": round(recovery_time, 2),
        "availability": round(availability, 3),
        "msg_dropped": injector.stats.dropped,
        "kafka_dup": injector.stats.kafka_duplicated,
        "rescales": rescales,
        "mean_pause_ms": round(sum(pauses) / len(pauses), 3) if pauses else 0.0,
        "keys_moved": keys_moved,
        "final_workers": final_workers,
    }
    row = ExperimentRow(
        system=system, workload=workload_name, distribution=distribution,
        rps=rps, p50_ms=result.percentile(50), p99_ms=result.percentile(99),
        mean_ms=result.mean(), sent=result.sent,
        completed=completed, errors=errors, extra=extra)
    return ChaosReport(
        row=row, plan_name=plan.name or f"seed-{plan.seed}",
        recoveries=coordinator.recoveries if coordinator else 0,
        failovers=coordinator.failovers if coordinator else 0,
        recovery_time_ms=recovery_time, availability=availability,
        fault_stats=injector.stats.as_dict(), rescales=rescales,
        pauses_ms=pauses,
        slots_moved=coordinator.slots_migrated if coordinator else 0,
        keys_moved=keys_moved, pre_throughput_rps=pre_rps,
        post_throughput_rps=post_rps, final_workers=final_workers,
        trace_digest=trace_state_digest(trace, state), problems=problems)
