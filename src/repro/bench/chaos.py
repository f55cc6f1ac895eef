"""Chaos benchmarking: run a workload under a fault plan and measure
what the paper only claims — recovery behaviour.

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
- ``trace_digest`` — SHA-256 over the deduplicated reply trace and the
  final committed state: two runs with the same seeds and plan must
  produce the same digest (the reproducibility contract);
- ``problems`` — violated invariants (lost/duplicated replies, broken
  conservation), empty on a correct run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

from ..faults import FaultPlan, random_plan
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
    trace_digest: str
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

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
            f"trace digest:     {self.trace_digest}",
        ]
        if self.problems:
            lines.append("PROBLEMS:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        else:
            lines.append("verdict:          serializable, loss-free, "
                         "exactly-once")
        return "\n".join(lines)


def trace_state_digest(trace: list[tuple], state: dict) -> str:
    """SHA-256 over (reply trace, final committed state): the
    reproducibility fingerprint shared by the chaos and rescale cells —
    identical across reruns of the same (seed, plan) pair."""
    blob = repr((sorted(trace),
                 sorted(state.items(), key=repr))).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


_digest = trace_state_digest


def verify_history(*, sent: int, completed: int, trace: list[tuple],
                   state: dict, workload, workload_name: str) -> list[str]:
    """The shared serial-order oracle of the chaos and rescale cells:
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
                   seed: int = 42, plan: FaultPlan | None = None,
                   pipeline_depth: int | None = None,
                   snapshot_mode: str | None = None,
                   changelog: bool | None = None,
                   autoscale: bool = False,
                   durability_dir: str | None = None,
                   drain_ms: float = 30_000.0,
                   bucket_ms: float = 250.0) -> ChaosReport:
    """Run one chaos cell; ``plan=None`` generates ``random_plan(seed)``.

    The run window is ``duration_ms`` of load plus ``drain_ms`` of
    settling; every submitted request must complete exactly once within
    it (StateFlow's exactly-once contract — violations land in
    ``problems`` rather than raising, so the CLI can report them)."""
    program = ycsb_program()
    workers = 5
    if plan is None:
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
        if pipeline_depth is not None:
            overrides["pipeline_depth"] = pipeline_depth
        if snapshot_mode is not None:
            overrides["snapshot_mode"] = snapshot_mode
        if changelog is not None:
            overrides["changelog"] = changelog
        if autoscale:
            # Chaos under a closed loop: the controller's decisions must
            # compose with (and survive) the injected failures.
            overrides["autoscale"] = True
        if durability_dir is not None:
            overrides["durability_dir"] = durability_dir
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

    # -- invariants ------------------------------------------------------
    state = materialize_snapshot(runtime.committed.snapshot()) \
        if hasattr(runtime, "committed") else {
            key: runtime.state.get(*key) for key in runtime.state.keys()}
    problems = verify_history(sent=result.sent, completed=completed,
                              trace=trace, state=state, workload=workload,
                              workload_name=workload_name)

    extra = {
        "recoveries": coordinator.recoveries if coordinator else 0,
        "recovery_time_ms": round(recovery_time, 2),
        "availability": round(availability, 3),
        "msg_dropped": injector.stats.dropped,
        "kafka_dup": injector.stats.kafka_duplicated,
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
        fault_stats=injector.stats.as_dict(),
        trace_digest=_digest(trace, state), problems=problems)
