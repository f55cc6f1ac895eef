"""Closed-loop autoscale benchmark: a zipfian ramp the cluster must
survive by resizing itself.

The cell drives one YCSB-A runtime through a fixed sequence of phases
that ramp both the arrival rate and the zipfian skew (s = 0.99 -> 1.3 —
by the end the hottest key carries ~25 % of traffic).  The final phase
deliberately exceeds the starting deployment's capacity (each worker
spends the simulator cost profile's ``exec_service_ms`` of CPU per
event, :data:`repro.substrates.costs.MODELLED`), so a fixed-size
cluster drowns: its backlog grows without bound and its tail latency
blows through the SLO.  With ``--autoscale`` the
:class:`~repro.control.AutoscaleController` must notice the saturation
from its windowed commit-rate/queue metrics and pull the cluster up the
worker curve on its own — no plan schedules a resize.

The headline gate is the **post-scale p99**: tail latency over the
replies that landed after the controller's last rescale committed.  The
autoscaled run must bring it under ``SLO_P99_MS`` while the fixed
baseline (same seeds, same ramp, no controller) violates it, and the
controller must have issued at least ``MIN_RESCALES`` autonomous
rescales — together these prove the loop is closed: observe -> decide ->
rescale -> observe the improvement.

Everything runs on the virtual-time simulator, so the committed
``BENCH_autoscale.json`` is byte-identical across reruns of the same
seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..control import AutoscalePolicy
from ..control.policy import (HIGH_QUEUE_DEPTH, HOT_KEY_SHARE,
                              HOT_SLOT_SHARE, MIN_WORKERS)
from ..substrates.simulation import percentile
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from . import harness

#: Tail-latency SLO the autoscaled run must restore (and the fixed
#: baseline must violate) over the post-scale window.
SLO_P99_MS = 100.0
#: Minimum autonomous rescales for the loop to count as closed.
MIN_RESCALES = 2


@dataclass(slots=True)
class RampPhase:
    """One step of the ramp: arrival rate + zipfian skew for a while."""

    rps: float
    theta: float
    duration_ms: float


#: The ramp: mild zipfian at a comfortable rate, then both the rate and
#: the skew climb until two workers are hopeless.
RAMP: tuple[RampPhase, ...] = (
    RampPhase(rps=1_500.0, theta=0.99, duration_ms=1_200.0),
    RampPhase(rps=4_000.0, theta=1.1, duration_ms=1_200.0),
    RampPhase(rps=7_000.0, theta=1.3, duration_ms=1_800.0),
)


#: The fixed deployment both runs start from.
WORKERS = 2
STATE_SLOTS = 64
RECORDS = 2_000
DRAIN_MS = 30_000.0


def _run_ramp(autoscale: bool, seed: int) -> dict[str, Any]:
    """Run the ramp once, with or without the controller; the run's
    entry in the artifact's ``runs``."""
    overrides: dict[str, Any] = dict(workers=WORKERS, state_slots=STATE_SLOTS)
    if autoscale:
        overrides["autoscale_policy"] = AutoscalePolicy()
    runtime = harness.build_runtime("stateflow", harness.ycsb_program(),
                                    seed=seed, **overrides)
    runtime.preload(Account, YcsbWorkload(
        "A", record_count=RECORDS, distribution="zipfian",
        seed=seed + 1).dataset_rows())
    runtime.start()

    rows: list[dict[str, Any]] = []
    sent = errors = 0
    final_phase_start = 0.0
    for index, phase in enumerate(RAMP):
        # Same per-phase workload/driver seeds in both modes: the fixed
        # baseline sees the identical request stream.
        workload = YcsbWorkload(
            "A", record_count=RECORDS, distribution="zipfian",
            seed=seed + 1 + index, theta=phase.theta)
        final_phase_start = runtime.sim.now
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=phase.rps, duration_ms=phase.duration_ms, warmup_ms=0.0,
            drain_ms=0.0, seed=seed + 100 + index))
        result = driver.run()
        sent += result.sent
        errors += result.errors
        rows.append({
            "phase": index, "rps": phase.rps, "theta": phase.theta,
            "duration_ms": phase.duration_ms, "sent": result.sent,
            "completed": result.completed, "errors": result.errors,
            "p50_ms": round(result.percentile(50), 2),
            "p99_ms": round(result.percentile(99), 2),
            "mean_ms": round(result.mean(), 2),
            "workers_at_end": runtime.worker_count,
            "rescales_so_far": runtime.coordinator.rescales,
        })
    # Drain the backlog (a saturated fixed run carries thousands of
    # queued requests past the ramp's end).
    deadline = runtime.sim.now + DRAIN_MS
    while (runtime.sim.now < deadline
           and len(runtime.metrics.samples) < sent):
        runtime.sim.run(until=min(runtime.sim.now + 500.0, deadline))

    coordinator = runtime.coordinator
    stats = coordinator.stats
    # Tail window: after the controller's last rescale committed (the
    # capacity it chose), or the final phase for a fixed run.  An
    # autoscaled run that never rescaled is judged like the baseline.
    rescale_commits = [record.committed_at_ms
                       for record in coordinator.rescale_log]
    cutoff = max([final_phase_start] + rescale_commits)
    tail = [s.value_ms for s in runtime.metrics.samples if s.at_ms >= cutoff]
    completed = len(runtime.metrics.samples)

    problems: list[str] = []
    if completed != sent:
        problems.append(f"lost replies: sent {sent}, "
                        f"completed {completed}")
    if errors:
        problems.append(f"{errors} errored requests")

    controller = runtime.autoscaler
    run = {
        "mode": "autoscale" if autoscale else "fixed",
        "rows": rows, "sent": sent, "completed": completed,
        "errors": errors,
        # p99 over replies landing after the tail cutoff.
        "tail_p99_ms": round(percentile(tail, 99), 2),
        "tail_cutoff_ms": round(cutoff, 2),
        "tail_samples": len(tail),
        "workers_final": runtime.worker_count,
        "rescales": coordinator.rescales,
        "rescale_events": [{
            "started_at_ms": round(record.started_at_ms, 3),
            "committed_at_ms": round(record.committed_at_ms, 3),
            "from_workers": record.from_workers,
            "to_workers": record.to_workers,
            "slots_moved": record.slots_moved,
            "keys_moved": record.keys_moved,
        } for record in coordinator.rescale_log],
        "decisions": ([d.as_dict() for d in controller.decision_log]
                      if controller is not None else []),
        "hot_keys": (sorted(f"{entity}/{key}"
                            for entity, key in controller.hot_keys)
                     if controller is not None else []),
        "single_key_hot": stats.single_key_hot,
        "single_key_total": stats.single_key,
        "problems": problems,
    }
    runtime.close()
    return run


def run_autoscale_cell(*, seed: int = 42) -> dict[str, Any]:
    """The ``BENCH_autoscale.json`` payload: the autoscaled run, the
    fixed baseline, and the gates."""
    scaled = _run_ramp(True, seed)
    fixed = _run_ramp(False, seed)
    policy = AutoscalePolicy()
    gates = {
        "min_rescales": MIN_RESCALES,
        "slo_p99_ms": SLO_P99_MS,
        "autonomous_rescales": scaled["rescales"],
        "enough_rescales": scaled["rescales"] >= MIN_RESCALES,
        "autoscale_tail_p99_ms": scaled["tail_p99_ms"],
        "autoscale_meets_slo": bool(scaled["tail_p99_ms"] <= SLO_P99_MS),
        "fixed_tail_p99_ms": fixed["tail_p99_ms"],
        "fixed_violates_slo": bool(fixed["tail_p99_ms"] > SLO_P99_MS),
    }
    gates["closed_loop_proven"] = bool(
        gates["enough_rescales"] and gates["autoscale_meets_slo"]
        and gates["fixed_violates_slo"]
        and not scaled["problems"] and not fixed["problems"])
    return {
        "cell": "autoscale",
        "workload": "A",
        "distribution": "zipfian",
        "seed": seed,
        "workers_initial": WORKERS,
        "ramp": [{"rps": phase.rps, "theta": phase.theta,
                  "duration_ms": phase.duration_ms} for phase in RAMP],
        "policy": {
            "sample_interval_ms": policy.sample_interval_ms,
            "high_txns_per_worker_s": policy.high_txns_per_worker_s,
            "low_txns_per_worker_s": policy.low_txns_per_worker_s,
            "high_queue_depth": HIGH_QUEUE_DEPTH,
            "saturated_samples": policy.saturated_samples,
            "idle_samples": policy.idle_samples,
            "cooldown_ms": policy.cooldown_ms,
            "min_workers": MIN_WORKERS,
            "max_workers": policy.max_workers,
            "target_txns_per_worker_s": policy.target_txns_per_worker_s,
            "hot_slot_share": HOT_SLOT_SHARE,
            "hot_key_share": HOT_KEY_SHARE,
        },
        "runs": {"autoscale": scaled, "fixed": fixed},
        "gates": gates,
        "ok": gates["closed_loop_proven"],
    }


def summarize(artifact: dict[str, Any]) -> str:
    gates = artifact["gates"]
    scaled = artifact["runs"]["autoscale"]
    fixed = artifact["runs"]["fixed"]
    title = (f"autoscale ramp: YCSB A/zipfian (theta "
             f"{artifact['ramp'][0]['theta']} -> "
             f"{artifact['ramp'][-1]['theta']})")
    lines = [title, "-" * len(title),
             "mode       phase  rps    theta  p99_ms   workers  rescales"]
    for mode, run in artifact["runs"].items():
        for row in run["rows"]:
            lines.append(
                f"{mode:<9}  {row['phase']:<5}  {row['rps']:<5.0f}  "
                f"{row['theta']:<5}  {row['p99_ms']:<7.1f}  "
                f"{row['workers_at_end']:<7}  {row['rescales_so_far']}")
    lines += [
        "",
        f"autoscale ramp: {scaled['workers_final']} workers after "
        f"{gates['autonomous_rescales']} autonomous rescales "
        f"(started at {artifact['workers_initial']})",
        f"post-scale p99: {gates['autoscale_tail_p99_ms']} ms "
        f"(SLO {gates['slo_p99_ms']} ms) vs fixed baseline "
        f"{gates['fixed_tail_p99_ms']} ms",
        f"hot keys tracked: {len(scaled['hot_keys'])}; "
        f"fast-path txns on hot keys: {scaled['single_key_hot']}"
        f"/{scaled['single_key_total']}",
        f"closed loop proven: {gates['closed_loop_proven']}",
    ]
    if fixed["problems"] or scaled["problems"]:
        lines.append(f"problems: {scaled['problems'] + fixed['problems']}")
    return "\n".join(lines)
