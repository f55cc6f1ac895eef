"""Closed-loop autoscale benchmark: a zipfian ramp the cluster must
survive by resizing itself.

The cell drives one YCSB-A runtime through a fixed sequence of phases
that ramp both the arrival rate and the zipfian skew (s = 0.99 -> 1.3 —
by the end the hottest key carries ~25 % of traffic).  The final phase
deliberately exceeds the starting deployment's capacity (each worker
spends ``exec_service_ms`` of CPU per event), so a fixed-size cluster
drowns: its backlog grows without bound and its tail latency blows
through the SLO.  With ``--autoscale`` the
:class:`~repro.control.AutoscaleController` must notice the saturation
from its windowed commit-rate/queue metrics and pull the cluster up the
worker curve on its own — no declarative rescale plan exists.

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

from dataclasses import dataclass, field
from typing import Any

from ..control import AutoscalePolicy
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .harness import build_runtime, ycsb_program

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


#: The default ramp: mild zipfian at a comfortable rate, then both the
#: rate and the skew climb until two workers are hopeless.
DEFAULT_RAMP: tuple[RampPhase, ...] = (
    RampPhase(rps=1_500.0, theta=0.99, duration_ms=1_200.0),
    RampPhase(rps=4_000.0, theta=1.1, duration_ms=1_200.0),
    RampPhase(rps=7_000.0, theta=1.3, duration_ms=1_800.0),
)


@dataclass(slots=True)
class AutoscalePhaseRow:
    """Per-phase results of one run."""

    phase: int
    rps: float
    theta: float
    duration_ms: float
    sent: int
    completed: int
    errors: int
    p50_ms: float
    p99_ms: float
    mean_ms: float
    workers_at_end: int
    rescales_so_far: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "phase": self.phase, "rps": self.rps, "theta": self.theta,
            "duration_ms": self.duration_ms, "sent": self.sent,
            "completed": self.completed, "errors": self.errors,
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "mean_ms": round(self.mean_ms, 2),
            "workers_at_end": self.workers_at_end,
            "rescales_so_far": self.rescales_so_far,
        }


@dataclass(slots=True)
class AutoscaleRunReport:
    """One complete ramp on one runtime (autoscaled or fixed)."""

    mode: str  # "autoscale" | "fixed"
    rows: list[AutoscalePhaseRow]
    sent: int
    completed: int
    errors: int
    #: p99 over replies landing after the tail cutoff (the last rescale
    #: commit for autoscaled runs, the final phase start for fixed).
    tail_p99_ms: float
    tail_cutoff_ms: float
    tail_samples: int
    workers_final: int
    rescales: int
    rescale_events: list[dict[str, Any]] = field(default_factory=list)
    decisions: list[dict[str, Any]] = field(default_factory=list)
    hot_keys: list[str] = field(default_factory=list)
    single_key_hot: int = 0
    single_key_total: int = 0
    problems: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "rows": [row.as_dict() for row in self.rows],
            "sent": self.sent, "completed": self.completed,
            "errors": self.errors,
            "tail_p99_ms": round(self.tail_p99_ms, 2),
            "tail_cutoff_ms": round(self.tail_cutoff_ms, 2),
            "tail_samples": self.tail_samples,
            "workers_final": self.workers_final,
            "rescales": self.rescales,
            "rescale_events": self.rescale_events,
            "decisions": self.decisions,
            "hot_keys": self.hot_keys,
            "single_key_hot": self.single_key_hot,
            "single_key_total": self.single_key_total,
            "problems": self.problems,
        }


def _percentile(values: list[float], pct: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def run_autoscale_cell(*, autoscale: bool,
                       ramp: tuple[RampPhase, ...] = DEFAULT_RAMP,
                       workers: int = 2, state_slots: int = 64,
                       record_count: int = 2_000, seed: int = 42,
                       policy: AutoscalePolicy | None = None,
                       drain_ms: float = 30_000.0) -> AutoscaleRunReport:
    """Run the ramp once, with or without the controller."""
    overrides: dict[str, Any] = dict(workers=workers, state_slots=state_slots)
    if autoscale:
        overrides["autoscale_policy"] = policy or AutoscalePolicy()
    runtime = build_runtime("stateflow", ycsb_program(), seed=seed,
                            **overrides)
    runtime.preload(Account, YcsbWorkload(
        "A", record_count=record_count, distribution="zipfian",
        seed=seed + 1).dataset_rows())
    runtime.start()

    rows: list[AutoscalePhaseRow] = []
    sent = completed = errors = 0
    final_phase_start = 0.0
    for index, phase in enumerate(ramp):
        # Same per-phase workload/driver seeds in both modes: the fixed
        # baseline sees the identical request stream.
        workload = YcsbWorkload(
            "A", record_count=record_count, distribution="zipfian",
            seed=seed + 1 + index, theta=phase.theta)
        final_phase_start = runtime.sim.now
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=phase.rps, duration_ms=phase.duration_ms, warmup_ms=0.0,
            drain_ms=0.0, seed=seed + 100 + index))
        result = driver.run()
        sent += result.sent
        completed += result.completed
        errors += result.errors
        rows.append(AutoscalePhaseRow(
            phase=index, rps=phase.rps, theta=phase.theta,
            duration_ms=phase.duration_ms, sent=result.sent,
            completed=result.completed, errors=result.errors,
            p50_ms=result.percentile(50), p99_ms=result.percentile(99),
            mean_ms=result.mean(),
            workers_at_end=runtime.worker_count,
            rescales_so_far=runtime.coordinator.rescales))
    # Drain the backlog (a saturated fixed run carries thousands of
    # queued requests past the ramp's end).
    deadline = runtime.sim.now + drain_ms
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
    all_completed = len(runtime.metrics.samples)

    problems: list[str] = []
    if all_completed != sent:
        problems.append(f"lost replies: sent {sent}, "
                        f"completed {all_completed}")
    if errors:
        problems.append(f"{errors} errored requests")

    controller = runtime.autoscaler
    report = AutoscaleRunReport(
        mode="autoscale" if autoscale else "fixed",
        rows=rows, sent=sent, completed=all_completed, errors=errors,
        tail_p99_ms=_percentile(tail, 99), tail_cutoff_ms=cutoff,
        tail_samples=len(tail),
        workers_final=runtime.worker_count,
        rescales=coordinator.rescales,
        rescale_events=[{
            "started_at_ms": round(record.started_at_ms, 3),
            "committed_at_ms": round(record.committed_at_ms, 3),
            "from_workers": record.from_workers,
            "to_workers": record.to_workers,
            "slots_moved": record.slots_moved,
            "keys_moved": record.keys_moved,
        } for record in coordinator.rescale_log],
        decisions=([d.as_dict() for d in controller.decision_log]
                   if controller is not None else []),
        hot_keys=(sorted(f"{entity}/{key}"
                         for entity, key in controller.hot_keys)
                  if controller is not None else []),
        single_key_hot=stats.single_key_hot,
        single_key_total=stats.single_key,
        problems=problems)
    runtime.close()
    return report


def run_autoscale_bench(*, seed: int = 42,
                        ramp: tuple[RampPhase, ...] = DEFAULT_RAMP,
                        workers: int = 2,
                        policy: AutoscalePolicy | None = None,
                        slo_p99_ms: float = SLO_P99_MS,
                        ) -> tuple[dict[str, Any], AutoscaleRunReport,
                                   AutoscaleRunReport]:
    """The full cell: autoscaled run + fixed baseline + the gates.

    Returns ``(artifact, autoscaled_report, fixed_report)``.
    """
    scaled = run_autoscale_cell(autoscale=True, ramp=ramp, workers=workers,
                                seed=seed, policy=policy)
    fixed = run_autoscale_cell(autoscale=False, ramp=ramp, workers=workers,
                               seed=seed)
    used_policy = policy or AutoscalePolicy()
    gates = {
        "min_rescales": MIN_RESCALES,
        "slo_p99_ms": slo_p99_ms,
        "autonomous_rescales": scaled.rescales,
        "enough_rescales": scaled.rescales >= MIN_RESCALES,
        "autoscale_tail_p99_ms": round(scaled.tail_p99_ms, 2),
        "autoscale_meets_slo": bool(scaled.tail_p99_ms <= slo_p99_ms),
        "fixed_tail_p99_ms": round(fixed.tail_p99_ms, 2),
        "fixed_violates_slo": bool(fixed.tail_p99_ms > slo_p99_ms),
    }
    gates["closed_loop_proven"] = bool(
        gates["enough_rescales"] and gates["autoscale_meets_slo"]
        and gates["fixed_violates_slo"]
        and not scaled.problems and not fixed.problems)
    artifact = {
        "cell": "autoscale",
        "workload": "A",
        "distribution": "zipfian",
        "seed": seed,
        "workers_initial": workers,
        "ramp": [{"rps": phase.rps, "theta": phase.theta,
                  "duration_ms": phase.duration_ms} for phase in ramp],
        "policy": {
            "sample_interval_ms": used_policy.sample_interval_ms,
            "high_txns_per_worker_s": used_policy.high_txns_per_worker_s,
            "low_txns_per_worker_s": used_policy.low_txns_per_worker_s,
            "high_queue_depth": used_policy.high_queue_depth,
            "saturated_samples": used_policy.saturated_samples,
            "idle_samples": used_policy.idle_samples,
            "cooldown_ms": used_policy.cooldown_ms,
            "min_workers": used_policy.min_workers,
            "max_workers": used_policy.max_workers,
            "target_txns_per_worker_s":
                used_policy.target_txns_per_worker_s,
            "hot_slot_share": used_policy.hot_slot_share,
            "hot_key_share": used_policy.hot_key_share,
        },
        "runs": {
            "autoscale": scaled.as_dict(),
            "fixed": fixed.as_dict(),
        },
        "gates": gates,
    }
    return artifact, scaled, fixed


def format_autoscale_summary(artifact: dict[str, Any]) -> str:
    gates = artifact["gates"]
    scaled = artifact["runs"]["autoscale"]
    fixed = artifact["runs"]["fixed"]
    lines = [
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
