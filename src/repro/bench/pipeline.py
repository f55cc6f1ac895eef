"""Pipelined-epoch benchmark: committed-txn throughput vs pipeline depth.

``run_pipeline_cell`` sweeps ``pipeline_depth`` over a YCSB cell and
reports, per depth, the *sustained committed-transaction throughput* —
completed requests divided by the time the last reply landed, so a
backlog that drains slowly is charged honestly — plus latency
percentiles and the coordinator's pipeline telemetry (in-flight depth
histogram, commit-region stall time, cross-batch stale aborts).

The cell runs one leg per substrate, and the two legs answer
**different questions**:

- the simulator leg (always): a saturating YCSB-A/zipfian firehose in
  single-threaded virtual time.  Depth changes scheduling, never
  results — the meaningful gate is that every depth produces
  *byte-identical replies* (``reply_digests`` / ``replies_identical``).
  A virtual-time "speedup" is a statement about the cost model, not the
  hardware, and is reported but not gated.
- the wall-clock leg (``spawner="process"``): real worker processes.
  This is the substrate where a depth-2-over-depth-1 speedup is allowed
  to mean something; the artifact's ``wallclock`` section carries the
  speedup, ``mean_latency_improved``, and ``cpu_count``.  Both
  wall-clock acceptance gates (the ≥1.2× throughput target and the
  latency improvement) only bind on ≥``MIN_CORES`` cores — on fewer
  there is no parallel hardware to win on (total CPU is conserved, so
  pipelining merely reorders it) and the numbers are reported, not
  gated.

The load flags (workload, distribution, rps, duration, records) set the
load of every leg; a flag not given keeps each leg's own (:data:`LEGS`).
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from . import harness

#: Wall-clock acceptance target: depth-2 committed-txn throughput over
#: depth-1, binding only when the host has at least MIN_CORES cores.
SPEEDUP_TARGET = 1.2
MIN_CORES = 4

#: Each leg's deployment and default load, by the substrate it runs on.
LEGS: dict[str, dict[str, Any]] = {
    "simulator": dict(depths=(1, 2, 4), workload="A", distribution="zipfian",
                      rps=36_000.0, duration_ms=1_000.0, records=50_000,
                      workers=32, state_slots=128, drain_ms=60_000.0),
    # Real seconds now, and a different cell than the simulator
    # firehose: transfers (workload T) run in the execute phase — the
    # work depth 2 actually overlaps with the predecessor's commit —
    # where workload A's single-key ops execute inside the ordered
    # commit region and pipeline nothing.  The rate saturates the
    # deployment so the depth comparison measures capacity, not idle
    # path length, and the keyspace is wide enough that cross-batch
    # stale aborts stay rare (the sweep measures pipelining, not
    # conflict handling).
    "wallclock": dict(depths=(1, 2), workload="T", distribution="uniform",
                      rps=2_400.0, duration_ms=4_000.0, records=8_000,
                      workers=4, state_slots=64, drain_ms=30_000.0),
}


def _reply_digest(replies: list[tuple]) -> str:
    """Digest of a run's deduplicated reply stream, order-independent
    (arrival order varies with scheduling; content must not)."""
    return hashlib.sha256(
        repr(sorted(replies, key=repr)).encode()).hexdigest()


def _sweep(mode: str, *, seed: int, depths: tuple[int, ...], workload: str,
           distribution: str, rps: float, duration_ms: float, records: int,
           workers: int, state_slots: int,
           drain_ms: float) -> dict[str, Any]:
    """One leg: sweep ``pipeline_depth`` on one substrate; its rows and
    the headline ratios (depth 2 over depth 1)."""
    program = harness.ycsb_program()
    wallclock = mode == "wallclock"
    rows: list[dict[str, Any]] = []
    throughput: dict[int, float] = {}
    mean_ms: dict[int, float] = {}
    digests: dict[int, str] = {}
    for depth in depths:
        overrides: dict[str, Any] = dict(
            workers=workers, state_slots=state_slots, pipeline_depth=depth)
        if wallclock:
            overrides = harness.process_stateflow_overrides(**overrides)
        runtime = harness.build_runtime("stateflow", program, seed=seed,
                                        **overrides)
        try:
            ycsb = YcsbWorkload(workload, record_count=records,
                                distribution=distribution, seed=seed + 1)
            runtime.preload(Account, ycsb.dataset_rows())
            replies: list[tuple] = []
            runtime.reply_tap = (lambda reply, sink=replies: sink.append(
                (reply.request_id, repr(reply.payload), reply.error)))
            runtime.start()
            driver = WorkloadDriver(runtime, ycsb, DriverConfig(
                rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
                drain_ms=drain_ms, seed=seed + 2,
                stop_when_drained=wallclock))
            result = driver.run()
        finally:
            runtime.close()
        # Sustained throughput: completed work over the time the last
        # reply actually landed (the drain is charged, not hidden).
        last_reply_ms = max((s.at_ms for s in runtime.metrics.samples),
                            default=duration_ms)
        stats = runtime.coordinator.stats
        throughput[depth] = result.completed / (last_reply_ms / 1000.0)
        mean_ms[depth] = result.mean()
        rows.append({
            "mode": mode,
            "depth": depth,
            "throughput_txn_s": round(throughput[depth], 1),
            "p50_ms": round(result.percentile(50), 2),
            "p99_ms": round(result.percentile(99), 2),
            "mean_ms": round(mean_ms[depth], 2),
            "sent": result.sent,
            "completed": result.completed,
            "errors": result.errors,
            "batches": stats.batches,
            "stall_ms": round(stats.stall_ms, 2),
            "aborts_stale": stats.aborts_stale,
            "depth_hist": {str(k): v
                           for k, v in sorted(stats.depth_hist.items())},
        })
        if not wallclock:
            digests[depth] = _reply_digest(replies)
    leg: dict[str, Any] = {
        "rows": rows,
        "speedup_depth2_over_depth1": round(
            throughput[2] / throughput[1] if throughput[1] else float("nan"),
            3),
        "mean_latency_improved": mean_ms[2] < mean_ms[1],
    }
    if not wallclock:
        leg["reply_digests"] = {str(depth): digest
                                for depth, digest in sorted(digests.items())}
        # Pipelining must change timing, never results.
        leg["replies_identical"] = len(set(digests.values())) <= 1
    return leg


def run_pipeline_cell(*, spawner: str = "simulator", seed: int = 42,
                      **load: Any) -> dict[str, Any]:
    """The ``BENCH_pipeline.json`` payload: the simulator leg, plus the
    wall-clock leg when *spawner* is ``"process"``.  *load* holds the
    load flags given (``workload``, ``distribution``, ``rps``,
    ``duration_ms``, ``records``); they apply to every leg."""
    sim_leg = {**LEGS["simulator"], **load}
    sim = _sweep("simulator", seed=seed, **sim_leg)
    artifact: dict[str, Any] = {
        "cell": "pipeline",
        "workload": sim_leg["workload"],
        "distribution": sim_leg["distribution"],
        "workers": sim_leg["workers"],
        "rps": sim_leg["rps"],
        "mode": "simulator",
        **sim,
    }
    ok = sim["replies_identical"]
    if spawner == "process":
        wall_leg = {**LEGS["wallclock"], **load}
        wall = _sweep("wallclock", seed=seed, **wall_leg)
        cpu_count = os.cpu_count() or 1
        speedup = wall["speedup_depth2_over_depth1"]
        artifact["rows"] = sim["rows"] + wall["rows"]
        artifact["wallclock"] = {
            "workload": wall_leg["workload"],
            "distribution": wall_leg["distribution"],
            "rps": wall_leg["rps"],
            "workers": wall_leg["workers"],
            "cpu_count": cpu_count,
            "speedup_depth2_over_depth1": speedup,
            "mean_latency_improved": wall["mean_latency_improved"],
            # The ≥1.2x throughput target only binds with real parallel
            # hardware; on fewer cores it is reported as None ("not
            # applicable"), never as a vacuous pass.
            "meets_speedup_target": (bool(speedup >= SPEEDUP_TARGET)
                                     if cpu_count >= MIN_CORES else None),
        }
        ok = ok and artifact["wallclock"]["meets_speedup_target"] is not False
        artifact["wall_clock"] = ["rows", "wallclock"]
    artifact["ok"] = ok
    return artifact


def summarize(artifact: dict[str, Any]) -> str:
    title = (f"pipeline sweep: YCSB {artifact['workload']}/"
             f"{artifact['distribution']}, {artifact['workers']} workers")
    lines = [title, "-" * len(title),
             "mode       depth  txn/s     mean_ms  p99_ms   batches  stall_ms"]
    for row in artifact["rows"]:
        lines.append(f"{row['mode']:<9}  {row['depth']:<5}  "
                     f"{row['throughput_txn_s']:<8.0f}  "
                     f"{row['mean_ms']:<7.1f}  {row['p99_ms']:<7.1f}  "
                     f"{row['batches']:<7}  {row['stall_ms']:.1f}")
    lines.append("")
    wall = artifact.get("wallclock")
    for mode, leg in (("simulator", artifact), ("wallclock", wall)):
        if leg is None:
            continue
        means = {row["depth"]: row["mean_ms"] for row in artifact["rows"]
                 if row["mode"] == mode}
        lines += [f"[{mode}] pipeline speedup (depth 2 vs 1): "
                  f"{leg['speedup_depth2_over_depth1']:.2f}x committed-txn "
                  f"throughput",
                  f"mean latency: {means[1]:.1f} ms -> {means[2]:.1f} ms"]
    lines.append("replies identical across depths: "
                 f"{artifact['replies_identical']}")
    if wall is not None:
        lines.append(f"meets the {SPEEDUP_TARGET}x target on "
                     f"{wall['cpu_count']} cores: "
                     f"{wall['meets_speedup_target']}")
    return "\n".join(lines)
