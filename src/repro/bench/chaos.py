"""Chaos benchmarking: run a workload under a fault plan and measure
what the paper only claims — recovery and elastic-scaling behaviour.

``run_chaos_cell`` drives one (workload, fault-plan, seed) cell on a
simulated runtime and returns the ``BENCH_chaos.json`` payload: the
usual latency/throughput ``row`` plus

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
  conservation, a wrong final worker count), empty on a correct run,
  and ``ok`` when there are none.

A resize is one more plan event: ``targets`` stages one per entry ahead
of the plan's own events (:func:`~repro.faults.staged_plan`).
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

from ..faults import FaultPlan, random_plan, staged_plan
from ..runtimes.state import materialize_snapshot
from ..runtimes.stateflow.coordinator import CoordinatorConfig
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from . import harness
from .harness import ExperimentRow, format_table, ycsb_program


def chaos_coordinator_config() -> CoordinatorConfig:
    """Chaos cells detect failures fast so short runs exercise many
    recovery cycles (the defaults are tuned for steady-state latency)."""
    return CoordinatorConfig(snapshot_interval_ms=250.0,
                             failure_detect_ms=200.0)


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


def run_chaos_cell(*, system: str = "stateflow", workload: str = "T",
                   distribution: str = "uniform", rps: float = 120.0,
                   duration_ms: float = 3_000.0, records: int = 50,
                   seed: int = 42, workers: int = 5,
                   plan: FaultPlan | None = None,
                   targets: Sequence[int] = (),
                   drain_ms: float = 30_000.0, bucket_ms: float = 250.0,
                   **overrides: Any) -> dict[str, Any]:
    """Run one chaos cell on *workers* StateFlow workers (StateFun has a
    fixed deployment) and return its ``BENCH_chaos.json`` payload.

    *targets* stages one resize per entry, spread across the load window
    ahead of *plan*'s events, under its seed; with neither, the plan is
    ``random_plan(seed)``.  *overrides* are
    :func:`~repro.bench.harness.build_runtime` overrides
    (``pipeline_depth``, ``autoscale``, ``durability_dir`` on the CLI);
    StateFlow runs them over :func:`chaos_coordinator_config`.  Under
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
    deployment: dict[str, Any] = {"fault_plan": plan}
    if system == "stateflow":
        deployment["coordinator"] = chaos_coordinator_config()
        deployment["workers"] = workers
    runtime = harness.build_runtime(system, program, seed=seed,
                                    **{**deployment, **overrides})

    trace: list[tuple] = []
    completions: list[float] = []

    def tap(reply) -> None:
        trace.append((reply.request_id, repr(reply.payload), reply.error))
        completions.append(runtime.sim.now)

    runtime.reply_tap = tap
    ycsb = YcsbWorkload(workload, record_count=records,
                        distribution=distribution, seed=seed + 1,
                        initial_balance=1_000)
    runtime.preload(Account, ycsb.dataset_rows())
    if hasattr(runtime, "start"):
        runtime.start()
    driver = WorkloadDriver(runtime, ycsb, DriverConfig(
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
        return (sum(1 for at in completions if begin <= at < end) / span_s
                if span_s > 0 else 0.0)

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
                              trace=trace, state=state, workload=ycsb,
                              workload_name=workload)
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

    row = ExperimentRow(
        system=system, workload=workload, distribution=distribution,
        rps=rps, p50_ms=result.percentile(50), p99_ms=result.percentile(99),
        mean_ms=result.mean(), sent=result.sent,
        completed=completed, errors=errors)
    return {
        "cell": "chaos",
        "row": row.as_dict(),
        "plan": plan.name or f"seed-{plan.seed}",
        "seed": seed,
        "workers": workers,
        "targets": list(targets),
        "recoveries": coordinator.recoveries if coordinator else 0,
        "failovers": coordinator.failovers if coordinator else 0,
        "recovery_time_ms": round(recovery_time, 2),
        "availability": round(availability, 3),
        "fault_stats": injector.stats.as_dict(),
        "rescales": coordinator.rescales if coordinator else 0,
        "pauses_ms": [round(pause, 3) for pause in pauses],
        "mean_pause_ms": round(sum(pauses) / len(pauses), 3) if pauses
        else 0.0,
        "max_pause_ms": round(max(pauses), 3) if pauses else 0.0,
        "slots_moved": coordinator.slots_migrated if coordinator else 0,
        "keys_moved": coordinator.keys_migrated if coordinator else 0,
        "pre_throughput_rps": round(pre_rps, 2),
        "post_throughput_rps": round(post_rps, 2),
        "final_workers": final_workers,
        "trace_digest": trace_state_digest(trace, state),
        "problems": problems,
        "ok": not problems,
    }


def summarize(artifact: dict[str, Any]) -> str:
    row = artifact["row"]
    title = (f"chaos {row['workload']}/{row['distribution']} on "
             f"{row['system']}")
    if artifact["targets"]:
        title += ", " + " -> ".join(
            map(str, [artifact["workers"], *artifact["targets"]]))
    columns = ["system", "workload", "rps", "p50_ms", "p99_ms", "completed",
               "errors", "recoveries", "recovery_time_ms", "availability"]
    rescales = artifact["rescales"]
    if rescales:
        columns += ["rescales", "mean_pause_ms", "final_workers"]
    lines = [
        format_table([{**row, **artifact}],
                     f"{title} (seed {artifact['seed']})", columns=columns),
        "",
        f"plan:             {artifact['plan']}",
        f"recoveries:       {artifact['recoveries']} "
        f"(+{artifact['failovers']} coordinator failovers)",
        f"faults injected:  "
        + (", ".join(f"{k}={v}" for k, v in artifact["fault_stats"].items()
                     if v) or "none"),
    ]
    if rescales:
        lines += [
            f"migration pause:  mean {artifact['mean_pause_ms']:.2f} ms, "
            f"max {artifact['max_pause_ms']:.2f} ms",
            f"state migrated:   {artifact['slots_moved']} slots / "
            f"{artifact['keys_moved']} keys",
            f"throughput:       {artifact['pre_throughput_rps']:.1f} rps "
            f"before -> {artifact['post_throughput_rps']:.1f} rps after",
        ]
    lines.append(f"trace digest:     {artifact['trace_digest']}")
    if artifact["problems"]:
        lines.append("PROBLEMS:")
        lines.extend(f"  - {problem}" for problem in artifact["problems"])
    else:
        lines.append("verdict:          serializable, loss-free, "
                     "exactly-once"
                     + (" across rescales" if rescales else ""))
    return "\n".join(lines)
