"""Recovery benchmarking: what do snapshots and recovery actually cost?

``run_recovery_cell`` sweeps (state size x snapshot mode) on the
StateFlow runtime and returns a :class:`RecoveryReport`:

- per-cut capture volume (``mean_keys_per_cut`` / ``mean_bytes_per_cut``
  from the snapshot store's cut ledger, the initial preload-covering
  base excluded so the numbers describe steady state);
- ``recovery_ms`` — the coordinator's pause for one injected fail-over
  at each state size (restore work is modelled per restored key, so the
  curve grows with state);
- changelog volume (records and bytes), reported *net of rewinds*: a
  recovery drops the rolled-back suffix, and those records are moved to
  the ``rewound`` side of the ledger instead of being double-counted as
  retained volume;
- the full-vs-incremental sweep: ``bytes_ratio`` per state size
  (incremental mean bytes/cut over full mean bytes/cut) with the
  acceptance gate *incremental <= 0.25x full at >= 10k keys*;
- ``digests_match`` — both modes must produce byte-identical reply
  traces and final state for the same (seed, fail-over) run: the
  durability path must be observationally invisible;
- a **disk leg** (``disk`` in the artifact): the incremental run at the
  largest state size repeated with ``durability_dir`` set, measuring
  what real files cost — bytes on disk, fsync count and wall time, and
  the cold-start time to reopen the stores from disk and resolve the
  latest recoverable cut, against the in-memory resolve time.  The
  disk run's trace digest must equal the in-memory incremental run's
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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..runtimes.state import materialize_snapshot
from ..runtimes.stateflow.coordinator import CoordinatorConfig
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload
from .chaos import trace_state_digest
from .harness import build_runtime, ycsb_program

#: The acceptance gate: incremental cuts must capture at most this
#: fraction of full-mode bytes at the gated state size.
GATE_MAX_RATIO = 0.25
GATE_RECORDS = 10_000


def recovery_coordinator_config(mode: str) -> CoordinatorConfig:
    """Frequent cuts + per-key restore cost so a short run produces a
    meaningful capture ledger and a state-size-dependent recovery time.
    Identical across modes except the snapshot mode itself, so the two
    runs of a pair stay trace-identical."""
    return CoordinatorConfig(snapshot_interval_ms=250.0,
                             failure_detect_ms=200.0,
                             snapshot_mode=mode,
                             snapshot_base_every=6,
                             snapshot_footprints=True,
                             restore_cost_ms_per_key=0.0005)


@dataclass(slots=True)
class RecoveryRow:
    """One (records, mode) run of the sweep."""

    mode: str
    records: int
    cuts: int
    base_cuts: int
    delta_cuts: int
    mean_keys_per_cut: float
    mean_bytes_per_cut: float
    total_bytes: int
    changelog_records: int
    changelog_bytes: int
    recoveries: int
    recovery_ms: float
    completed: int
    sent: int
    trace_digest: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode, "records": self.records, "cuts": self.cuts,
            "base_cuts": self.base_cuts, "delta_cuts": self.delta_cuts,
            "mean_keys_per_cut": round(self.mean_keys_per_cut, 1),
            "mean_bytes_per_cut": round(self.mean_bytes_per_cut, 1),
            "total_bytes": self.total_bytes,
            "changelog_records": self.changelog_records,
            "changelog_bytes": self.changelog_bytes,
            "recoveries": self.recoveries,
            "recovery_ms": round(self.recovery_ms, 2),
            "completed": self.completed, "sent": self.sent,
            "trace_digest": self.trace_digest,
        }


@dataclass(slots=True)
class RecoveryReport:
    """The full sweep (see module docstring)."""

    rows: list[RecoveryRow]
    #: records -> incremental/full mean-bytes-per-cut ratio.
    bytes_ratios: dict[int, float]
    #: records -> both modes produced identical trace+state digests.
    digests_match: dict[int, bool]
    problems: list[str] = field(default_factory=list)
    #: The disk leg (module docstring), or None when it was skipped.
    disk: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def gate_ratio(self) -> float | None:
        """The ratio at the gated state size (>= GATE_RECORDS keys)."""
        gated = [ratio for records, ratio in self.bytes_ratios.items()
                 if records >= GATE_RECORDS]
        return max(gated) if gated else None

    def as_artifact(self) -> dict[str, Any]:
        """JSON-ready payload for ``BENCH_recovery.json`` persistence."""
        return {
            "cell": "recovery",
            "rows": [row.as_dict() for row in self.rows],
            "bytes_ratios": {str(records): round(ratio, 4)
                             for records, ratio in self.bytes_ratios.items()},
            "digests_match": {str(records): match for records, match
                              in self.digests_match.items()},
            "gate_max_ratio": GATE_MAX_RATIO,
            "gate_records": GATE_RECORDS,
            "gate_ratio": (round(self.gate_ratio, 4)
                           if self.gate_ratio is not None else None),
            "gate_ok": (self.gate_ratio is not None
                        and self.gate_ratio <= GATE_MAX_RATIO),
            "disk": self.disk,
            "problems": list(self.problems),
        }

    def summary(self) -> str:
        lines = []
        for records in sorted(self.bytes_ratios):
            ratio = self.bytes_ratios[records]
            match = self.digests_match[records]
            lines.append(
                f"{records} keys: incremental cuts capture {ratio:.1%} of "
                f"full-mode bytes/cut; digests "
                f"{'match' if match else 'DIVERGE'}")
        gate = self.gate_ratio
        if gate is not None:
            verdict = "PASS" if gate <= GATE_MAX_RATIO else "FAIL"
            lines.append(f"gate ({verdict}): {gate:.3f} <= "
                         f"{GATE_MAX_RATIO} at >= {GATE_RECORDS} keys")
        if self.disk is not None:
            disk = self.disk
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
        if self.problems:
            lines.append("PROBLEMS:")
            lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def _run_one(mode: str, records: int, *, seed: int,
             rps: float, duration_ms: float, drain_ms: float,
             durability_dir: str | None = None
             ) -> tuple[RecoveryRow, Any]:
    config = recovery_coordinator_config(mode)
    config.durability_dir = durability_dir
    runtime = build_runtime(
        "stateflow", ycsb_program(), seed=seed, coordinator=config)
    trace: list[tuple] = []
    runtime.reply_tap = lambda reply: trace.append(
        (reply.request_id, repr(reply.payload), reply.error))
    workload = YcsbWorkload("A", record_count=records,
                            distribution="uniform", seed=seed + 1)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    # One injected fail-over mid-run: the recovery-time sample.
    runtime.fail_coordinator(at_ms=duration_ms * 0.6,
                             failover_after_ms=50.0)
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
        drain_ms=drain_ms, seed=seed + 2))
    result = driver.run()
    runtime.sim.run(until=runtime.sim.now + drain_ms)

    coordinator = runtime.coordinator
    # Steady-state capture volume: skip the initial base (it covers the
    # preload, which both modes pay identically and exactly once).
    cuts = [cut for cut in coordinator.snapshots.cut_log
            if cut.snapshot_id > 0]
    count = max(len(cuts), 1)
    recovery_times = [resumed - started
                      for started, resumed in coordinator.recovery_log]
    state = materialize_snapshot(runtime.committed.snapshot())
    changelog = coordinator.changelog
    row = RecoveryRow(
        mode=mode, records=records, cuts=len(cuts),
        base_cuts=sum(1 for cut in cuts if cut.kind in ("base", "full")),
        delta_cuts=sum(1 for cut in cuts if cut.kind == "delta"),
        mean_keys_per_cut=sum(cut.keys for cut in cuts) / count,
        mean_bytes_per_cut=sum(cut.bytes for cut in cuts) / count,
        total_bytes=sum(cut.bytes for cut in cuts),
        # Net of rewinds: the injected recovery rolls back the orphaned
        # suffix, which must not be double-counted as retained volume.
        changelog_records=changelog.appended - changelog.rewound,
        changelog_bytes=changelog.bytes_appended - changelog.bytes_rewound,
        recoveries=coordinator.recoveries,
        recovery_ms=(sum(recovery_times) / len(recovery_times)
                     if recovery_times else 0.0),
        completed=driver.completed, sent=result.sent,
        trace_digest=trace_state_digest(trace, state))
    return row, runtime


def _disk_leg(memory_row: RecoveryRow, *, seed: int,
              rps: float, duration_ms: float,
              drain_ms: float) -> tuple[dict[str, Any], list[str]]:
    """Repeat *memory_row*'s incremental run with a real durability
    directory, then measure what the files cost (module docstring,
    "disk leg")."""
    from ..storage import FileChangelogStore, FileSnapshotStore
    problems: list[str] = []
    records = memory_row.records
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        row, runtime = _run_one(
            "incremental", records, seed=seed, rps=rps,
            duration_ms=duration_ms, drain_ms=drain_ms, durability_dir=tmp)
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
            tmp, mode="incremental",
            base_every=coordinator.config.snapshot_base_every,
            track_footprints=coordinator.config.snapshot_footprints)
        cold_changelog = FileChangelogStore(tmp)
        cold_snapshot, cold_payload = cold_snapshots.latest_recoverable(
            cold_changelog)
        cold_start_ms = (time.perf_counter() - started) * 1e3
        cold_changelog.close()
        cold_state = materialize_snapshot(cold_payload)
        digest_match = row.trace_digest == memory_row.trace_digest
        state_match = (cold_state == live_state
                       and cold_snapshot.snapshot_id
                       == live_snapshot.snapshot_id)
        if not digest_match:
            problems.append(
                f"disk/{records}: durable run diverged from the "
                f"in-memory incremental run (trace/state digests differ "
                f"— persistence must be a pure side effect)")
        if not state_match:
            problems.append(
                f"disk/{records}: cold-start resolve disagrees with the "
                f"live store's latest recoverable state")
        disk = {
            "records": records,
            "trace_digest": row.trace_digest,
            "digest_matches_memory": digest_match,
            "cold_state_matches": state_match,
            "disk_bytes": disk_bytes,
            "segment_files": segment_files,
            "cut_files": cut_files,
            "changelog_records": row.changelog_records,
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


def run_recovery_cell(*, seed: int = 42,
                      record_counts: tuple[int, ...] = (1_000, GATE_RECORDS),
                      rps: float = 200.0, duration_ms: float = 2_000.0,
                      drain_ms: float = 20_000.0,
                      disk: bool = True) -> RecoveryReport:
    """Run the full-vs-incremental sweep (see module docstring)."""
    rows: list[RecoveryRow] = []
    ratios: dict[int, float] = {}
    matches: dict[int, bool] = {}
    problems: list[str] = []
    incremental_rows: dict[int, RecoveryRow] = {}
    for records in record_counts:
        pair: dict[str, RecoveryRow] = {}
        for mode in ("full", "incremental"):
            row, _ = _run_one(mode, records, seed=seed,
                              rps=rps, duration_ms=duration_ms,
                              drain_ms=drain_ms)
            rows.append(row)
            pair[mode] = row
            if row.completed < row.sent:
                problems.append(
                    f"{mode}/{records}: lost replies "
                    f"({row.completed} of {row.sent} completed)")
            if row.recoveries < 1:
                problems.append(
                    f"{mode}/{records}: the injected fail-over never "
                    f"recovered")
        full, incremental = pair["full"], pair["incremental"]
        incremental_rows[records] = incremental
        if full.mean_bytes_per_cut > 0:
            ratios[records] = (incremental.mean_bytes_per_cut
                               / full.mean_bytes_per_cut)
        matches[records] = full.trace_digest == incremental.trace_digest
        if not matches[records]:
            problems.append(
                f"{records}: full and incremental runs diverged "
                f"(trace/state digests differ)")
    disk_leg = None
    if disk and incremental_rows:
        largest = incremental_rows[max(incremental_rows)]
        disk_leg, disk_problems = _disk_leg(
            largest, seed=seed, rps=rps,
            duration_ms=duration_ms, drain_ms=drain_ms)
        problems.extend(disk_problems)
    report = RecoveryReport(rows=rows, bytes_ratios=ratios,
                            digests_match=matches, problems=problems,
                            disk=disk_leg)
    gate = report.gate_ratio
    if gate is not None and gate > GATE_MAX_RATIO:
        report.problems.append(
            f"gate violated: incremental cuts capture {gate:.3f}x of "
            f"full-mode bytes at >= {GATE_RECORDS} keys "
            f"(allowed {GATE_MAX_RATIO}x)")
    return report
