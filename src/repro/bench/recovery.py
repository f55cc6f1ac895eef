"""Recovery benchmarking: what do snapshots and recovery actually cost?

``run_recovery_cell`` sweeps (state size x base cadence) on the
StateFlow runtime and returns the ``BENCH_recovery.json`` payload:

- per-cut capture volume (``mean_keys_per_cut`` / ``mean_bytes_per_cut``
  from the snapshot store's cut ledger, the initial preload-covering
  base excluded so the numbers describe steady state);
- ``recovery_ms`` — the coordinator's pause for one injected fail-over
  at each state size (restore work is modelled per restored key, so the
  curve grows with state);
- changelog volume (records and bytes), reported *net of rewinds*: a
  recovery drops the rolled-back suffix, which must not be
  double-counted as retained volume.  Bytes are a ``repr`` estimate a
  subscriber of the log tallies (:func:`tally_changelog_bytes`), so
  only this cell pays for it;
- the cadence sweep: ``bytes_ratio`` per state size (mean bytes/cut at
  the preset's ``snapshot_base_every`` over mean bytes/cut at
  ``snapshot_base_every=1``, where every cut is a base) with the
  acceptance gate *preset <= 0.25x every-cut-a-base at >= 10k keys*;
- ``digests_match`` — both cadences must produce byte-identical reply
  traces and final state for the same (seed, fail-over) run: the
  durability path must be observationally invisible;
- a **disk leg** (``disk`` in the artifact): the preset-cadence run at
  the largest state size repeated with ``durability_dir`` set, measuring
  what real files cost — bytes on disk, fsync count and wall time, and
  the cold-start time to reopen the stores from disk and resolve the
  latest recoverable cut, against the in-memory resolve time.  The
  disk run's trace digest must equal the in-memory run's
  (persistence is a pure side effect), and the cold-reopened stores
  must resolve the exact state the dying process would have restored.
  Wall-clock fields in the disk leg vary between machines; everything
  else in the artifact stays deterministic.

The matched runs share one seed and one injected coordinator fail-over,
so any divergence is a correctness bug, not noise.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from ..runtimes.state import materialize_snapshot
from ..runtimes.stateflow.coordinator import CoordinatorConfig
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .chaos import trace_state_digest
from . import harness

#: The acceptance gate: cuts at the preset's cadence must capture at
#: most this fraction of the bytes of cuts that are all bases, at the
#: gated state size.
GATE_MAX_RATIO = 0.25
GATE_RECORDS = 10_000
#: The sweep's baseline cadence: every cut a base.
EVERY_CUT_A_BASE = 1
#: Virtual time each run gets after its load stops.
DRAIN_MS = 20_000.0


def recovery_coordinator_config() -> CoordinatorConfig:
    """Frequent cuts + per-key restore cost so a short run produces a
    meaningful capture ledger and a state-size-dependent recovery time.
    Both cadences of the sweep run under it, so the two runs of a pair
    stay trace-identical."""
    return CoordinatorConfig(snapshot_interval_ms=250.0,
                             failure_detect_ms=200.0,
                             snapshot_base_every=6,
                             snapshot_footprints=True,
                             restore_cost_ms_per_key=0.0005)


def tally_changelog_bytes(changelog: Any) -> Callable[[], int]:
    """Subscribe a byte tally to *changelog*: the returned reader sums
    the ``repr`` estimate of the latest record published at each seq up
    to the head — the surviving timeline, since a rewind to ``S``
    drops the seqs past ``S`` and the log publishes them again."""
    sizes: dict[int, int] = {}

    def tally(seq: int, writes: dict, at_ms: float) -> None:
        sizes[seq] = sum(len(repr(key)) + len(repr(state))
                         for key, state in writes.items())

    changelog.subscribe(tally)
    return lambda: sum(size for seq, size in sizes.items()
                       if seq <= changelog.head_seq)


def _run_one(base_every: int, records: int, *, seed: int,
             rps: float, duration_ms: float, durability_dir: str | None = None
             ) -> tuple[dict[str, Any], float, Any]:
    """One run: its artifact row, its unrounded mean bytes per cut (the
    ratios divide these) and the runtime."""
    runtime = harness.build_runtime(
        "stateflow", harness.ycsb_program(), seed=seed,
        durability_dir=durability_dir,
        coordinator=recovery_coordinator_config(),
        snapshot_base_every=base_every)
    trace: list[tuple] = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error))
    changelog_bytes = tally_changelog_bytes(runtime.coordinator.changelog)
    workload = YcsbWorkload("A", record_count=records,
                            distribution="uniform", seed=seed + 1)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    # One injected fail-over mid-run: the recovery-time sample.
    runtime.fail_coordinator(at_ms=duration_ms * 0.6,
                             failover_after_ms=50.0)
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=DRAIN_MS, seed=seed + 2))
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + DRAIN_MS)

    coordinator = runtime.coordinator
    # Steady-state capture volume: skip the initial base (it covers the
    # preload, which both cadences pay identically and exactly once).
    cuts = [cut for cut in coordinator.snapshots.cut_log
            if cut.snapshot_id > 0]
    count = max(len(cuts), 1)
    bytes_per_cut = sum(cut.bytes for cut in cuts) / count
    recovery_times = [resumed - started
                      for started, resumed in coordinator.recovery_log]
    state = materialize_snapshot(runtime.committed.snapshot())
    changelog = coordinator.changelog
    row = {
        "base_every": base_every, "records": records, "cuts": len(cuts),
        "base_cuts": sum(1 for cut in cuts if cut.kind == "base"),
        # Position cuts (the artifact keeps the historical column name).
        "delta_cuts": sum(1 for cut in cuts if cut.kind == "position"),
        "mean_keys_per_cut": round(sum(cut.keys for cut in cuts) / count, 1),
        "mean_bytes_per_cut": round(bytes_per_cut, 1),
        "total_bytes": sum(cut.bytes for cut in cuts),
        # Net of rewinds: the injected recovery rolls back the orphaned
        # suffix, which must not be double-counted as retained volume.
        "changelog_records": changelog.appended - changelog.rewound,
        "changelog_bytes": changelog_bytes(),
        "recoveries": coordinator.recoveries,
        "recovery_ms": round(sum(recovery_times) / len(recovery_times)
                             if recovery_times else 0.0, 2),
        "completed": driver.completed, "sent": result.sent,
        "trace_digest": trace_state_digest(trace, state),
    }
    return row, bytes_per_cut, runtime


def _disk_leg(memory_row: dict[str, Any], *, seed: int, rps: float,
              duration_ms: float) -> tuple[dict[str, Any], list[str]]:
    """Repeat *memory_row*'s run with a real durability directory, then
    measure what the files cost (module docstring, "disk leg")."""
    from ..storage import FileChangelogStore, FileSnapshotStore
    problems: list[str] = []
    records = memory_row["records"]
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        row, _, runtime = _run_one(
            memory_row["base_every"], records, seed=seed, rps=rps,
            duration_ms=duration_ms, durability_dir=tmp)
        coordinator = runtime.coordinator
        changelog = coordinator.changelog
        snapshots = coordinator.snapshots
        # Warm resolve: the in-memory mirrors are already loaded — this
        # is what a live snapshot query (or in-process recovery) pays.
        started = time.perf_counter()
        live_snapshot, live_payload = snapshots.latest_recoverable(
            changelog)
        memory_resolve_ms = (time.perf_counter() - started) * 1e3
        live_state = materialize_snapshot(live_payload)
        changelog.close()
        root = Path(tmp)
        disk_bytes = sum(path.stat().st_size
                         for path in root.rglob("*") if path.is_file())
        segment_files = len(list((root / "changelog")
                                 .glob("segment-*.log")))
        cut_files = len(list((root / "snapshots").glob("cut-*.bin")))
        # Cold start: reopen the stores from the files alone (a new
        # process after SIGKILL) and resolve the latest recoverable cut.
        started = time.perf_counter()
        cold_snapshots = FileSnapshotStore(
            tmp, base_every=coordinator.config.snapshot_base_every,
            track_footprints=coordinator.config.snapshot_footprints)
        cold_changelog = FileChangelogStore(tmp)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        cold_start_ms = (time.perf_counter() - started) * 1e3
        cold_changelog.close()
        cold_state = materialize_snapshot(cold_payload)
        digest_match = row["trace_digest"] == memory_row["trace_digest"]
        state_match = (cold_state == live_state
                       and cold_snapshot.snapshot_id
                       == live_snapshot.snapshot_id)
        if not digest_match:
            problems.append(
                f"disk/{records}: durable run diverged from the "
                f"in-memory run (trace/state digests differ "
                f"— persistence must be a pure side effect)")
        if not state_match:
            problems.append(
                f"disk/{records}: cold-start resolve disagrees with the "
                f"live store's latest recoverable state")
        disk = {
            "records": records,
            "trace_digest": row["trace_digest"],
            "digest_matches_memory": digest_match,
            "cold_state_matches": state_match,
            "disk_bytes": disk_bytes,
            "segment_files": segment_files,
            "cut_files": cut_files,
            "changelog_records": row["changelog_records"],
            "changelog_bytes_on_disk": changelog.bytes_written,
            "snapshot_bytes_on_disk": snapshots.bytes_written,
            "fsyncs": changelog.fsyncs + snapshots.fsyncs,
            "fsync_wall_ms": round(changelog.fsync_wall_ms
                                   + snapshots.fsync_wall_ms, 3),
            "cold_loaded_records": cold_changelog.loaded,
            "cold_loaded_cuts": cold_snapshots.loaded,
            "cold_start_ms": round(cold_start_ms, 3),
            "memory_resolve_ms": round(memory_resolve_ms, 3),
        }
    return disk, problems


def run_recovery_cell(*, seed: int = 42, records: int | None = None,
                      rps: float = 200.0, duration_ms: float = 2_000.0,
                      ) -> dict[str, Any]:
    """Run the cadence sweep (see module docstring) at 1k and
    ``GATE_RECORDS`` keys, or at *records* keys alone."""
    rows: list[dict[str, Any]] = []
    ratios: dict[int, float] = {}
    matches: dict[int, bool] = {}
    problems: list[str] = []
    cadences = (EVERY_CUT_A_BASE,
                recovery_coordinator_config().snapshot_base_every)
    record_counts = (records,) if records else (1_000, GATE_RECORDS)
    for count in record_counts:
        (every, every_bytes, _), (preset, preset_bytes, _) = [
            _run_one(base_every, count, seed=seed, rps=rps,
                     duration_ms=duration_ms)
            for base_every in cadences]
        for row in (every, preset):
            rows.append(row)
            label = f"base_every={row['base_every']}/{count}"
            if row["completed"] < row["sent"]:
                problems.append(
                    f"{label}: lost replies "
                    f"({row['completed']} of {row['sent']} completed)")
            if row["recoveries"] < 1:
                problems.append(
                    f"{label}: the injected fail-over never recovered")
        if every_bytes > 0:
            ratios[count] = preset_bytes / every_bytes
        matches[count] = every["trace_digest"] == preset["trace_digest"]
        if not matches[count]:
            problems.append(
                f"{count}: the two base cadences diverged "
                f"(trace/state digests differ)")
    # The disk leg repeats the preset-cadence run at the largest size.
    disk, disk_problems = _disk_leg(rows[-1], seed=seed, rps=rps,
                                    duration_ms=duration_ms)
    problems.extend(disk_problems)
    # The ratio at the gated state size (>= GATE_RECORDS keys).
    gate = max((ratio for count, ratio in ratios.items()
                if count >= GATE_RECORDS), default=None)
    if gate is not None and gate > GATE_MAX_RATIO:
        problems.append(
            f"gate violated: preset-cadence cuts capture {gate:.3f}x of "
            f"the bytes of all-base cuts at >= {GATE_RECORDS} keys "
            f"(allowed {GATE_MAX_RATIO}x)")
    return {
        "cell": "recovery",
        "rows": rows,
        "bytes_ratios": {str(count): round(ratio, 4)
                         for count, ratio in ratios.items()},
        "digests_match": {str(count): match
                          for count, match in matches.items()},
        "gate_max_ratio": GATE_MAX_RATIO,
        "gate_records": GATE_RECORDS,
        "gate_ratio": round(gate, 4) if gate is not None else None,
        "gate_ok": gate is not None and gate <= GATE_MAX_RATIO,
        "disk": disk,
        "problems": problems,
        "ok": not problems,
        "wall_clock": [f"disk.{key}" for key in (
            "cold_start_ms", "fsync_wall_ms", "memory_resolve_ms")],
    }


def summarize(artifact: dict[str, Any]) -> str:
    title = "recovery sweep: every cut a base vs the preset cadence"
    lines = [title, "-" * len(title),
             "base_every  records  cuts  keys/cut  bytes/cut  "
             "recovery_ms  changelog"]
    for row in artifact["rows"]:
        lines.append(
            f"{row['base_every']:<10}  {row['records']:<7}  "
            f"{row['cuts']:<4}  {row['mean_keys_per_cut']:<8.1f}  "
            f"{row['mean_bytes_per_cut']:<9.0f}  "
            f"{row['recovery_ms']:<11.2f}  {row['changelog_records']}")
    lines.append("")
    for count, ratio in artifact["bytes_ratios"].items():
        lines.append(
            f"{count} keys: preset-cadence cuts capture {ratio:.1%} of the "
            f"bytes/cut of all-base cuts; digests "
            f"{'match' if artifact['digests_match'][count] else 'DIVERGE'}")
    gate = artifact["gate_ratio"]
    if gate is not None:
        lines.append(f"gate ({'PASS' if artifact['gate_ok'] else 'FAIL'}): "
                     f"{gate:.3f} <= {GATE_MAX_RATIO} at >= "
                     f"{GATE_RECORDS} keys")
    disk = artifact["disk"]
    lines.append(
        f"disk leg ({disk['records']} keys): "
        f"{disk['disk_bytes']} bytes on disk across "
        f"{disk['segment_files']} segment + {disk['cut_files']} "
        f"cut files; {disk['fsyncs']} fsyncs "
        f"({disk['fsync_wall_ms']:.1f}ms); cold start "
        f"{disk['cold_start_ms']:.1f}ms vs in-memory resolve "
        f"{disk['memory_resolve_ms']:.1f}ms; durable trace "
        f"{'matches' if disk['digest_matches_memory'] else 'DIVERGES from'} "
        f"the in-memory run")
    if artifact["problems"]:
        lines.append("PROBLEMS:")
        lines.extend(f"  - {problem}" for problem in artifact["problems"])
    return "\n".join(lines)
