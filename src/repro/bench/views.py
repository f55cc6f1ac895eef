"""``repro bench --cell views``: incremental maintenance vs full scan.

The cell drives YCSB-T/zipfian transfers against StateFlow — every
commit moves two balances, the field all six registered views (filtered
count, global sum, per-bucket rollup, min, per-bucket max, top-10)
aggregate; a mix that writes ``payload`` only would measure folds that
change nothing, which the operators skip — and measures, per state
size:

- **per-commit maintenance cost** — the wall-clock nanoseconds the view
  manager spends folding each batch's write footprint into every plan
  (O(changed keys)), straight off the manager's ledger;
- **full-scan cost** — the wall-clock time recomputing all six views
  from the committed store (O(state)), i.e. what every read would pay
  without incremental maintenance;
- **freshness lag** — simulated milliseconds between a batch commit and
  the pushed update's delivery to a subscriber over the network
  substrate;
- **exactness** — a sampled per-commit probe comparing every view to
  the full-scan oracle (zero mismatches gates the cell).

The committed artifact (``BENCH_views.json``) carries the >=10x speedup
gate at the 10k-key leg: the whole point of the O(changed-keys) read
path is that refreshing a view costs orders of magnitude less than
scanning state.

A separate **durable-rehydrate leg** measures the cold-start story: a
durable run is quiesced, cut, and reopened from its files alone; every
view then resumes from the cut's sidecar (``Snapshot.views_state``) +
the changelog suffix.  The leg gates that the sidecar path beats
full-scan rehydration by >=10x at 10k keys, performs **zero** store
rescans, and lands on byte-identical values.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from typing import Any

from ..query import QueryEngine, ViewSpec
from ..runtimes.stateflow import StateflowConfig, StateflowRuntime
from ..substrates.simulation import Simulation
from ..workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload
from .harness import ycsb_program

#: The speedup the 10k-key leg must clear (incremental refresh vs full
#: scan) for the cell to pass.
SPEEDUP_FLOOR = 10.0
#: The speedup the durable-rehydrate leg must clear at 10k keys
#: (sidecar resume vs full-scan rehydration on a cold start).
REHYDRATE_FLOOR = 10.0
#: Ceiling on observed subscription delivery lag, in simulated ms.
LAG_CEILING_MS = 50.0
#: The record counts swept by default ("10k-100k keys").
RECORD_COUNTS = (10_000, 100_000)
#: Full-scan timing repetitions (best-of, to shed scheduler noise).
SCAN_REPEATS = 3


def _rich(row: dict) -> bool:
    return row["balance"] >= 1_000


def _bucket(row: dict) -> str:
    # Last character of the key: ~10 stable groups at any state size.
    return row["account_id"][-1]


def cell_views() -> list[ViewSpec]:
    """The standing queries the cell maintains — one per supported
    shape: filtered count, global sum, per-group rollup, min/max
    extremes (ordered-index retraction), bounded top-k."""
    return [
        ViewSpec("rich-count", "Account", "count", where=_rich),
        ViewSpec("total-balance", "Account", "sum", field="balance"),
        ViewSpec("balance-by-bucket", "Account", "sum", field="balance",
                 group_by=_bucket),
        ViewSpec("min-balance", "Account", "min", field="balance"),
        ViewSpec("max-by-bucket", "Account", "max", field="balance",
                 group_by=_bucket),
        ViewSpec("top-10", "Account", "top_k", field="balance", k=10),
    ]


def run_views_leg(record_count: int, *, seed: int = 42,
                  rps: float = 200.0, duration_ms: float = 6_000.0,
                  drain_ms: float = 6_000.0) -> dict[str, Any]:
    """One leg: drive load at *record_count* keys, return its metrics."""
    from ..ir.dataflow import stable_hash

    seed = seed + stable_hash(f"views|{record_count}|{rps}") % 997
    config = StateflowConfig(snapshot_mode="incremental")
    runtime = StateflowRuntime(ycsb_program(), sim=Simulation(seed=seed),
                               config=config)
    workload = YcsbWorkload("T", record_count=record_count,
                            distribution="zipfian", seed=seed + 1)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()

    engine = QueryEngine(runtime)
    names = [engine.register_view(spec).name for spec in cell_views()]

    # Sampled exactness probe: every Nth commit, diff every view against
    # the O(state) oracle.  Sampling keeps the probe from dominating the
    # run's wall time at 100k keys; the tests/ battery checks every
    # batch on smaller states.
    manager = runtime.views
    probe_every = max(1, record_count // 1_000)
    probe_state = {"commits": 0, "checks": 0, "mismatches": 0}

    def probe(batch_id: int) -> None:
        probe_state["commits"] += 1
        if probe_state["commits"] % probe_every:
            return
        for name in names:
            probe_state["checks"] += 1
            if manager.read(name).value != manager.expected(name):
                probe_state["mismatches"] += 1

    manager.probe = probe

    # Freshness: simulated delivery lag of pushed updates, measured at
    # the subscriber (network hop included).
    lags_ms: list[float] = []
    engine.subscribe_view(
        "total-balance",
        lambda update: lags_ms.append(runtime.sim.now - update.at_ms))

    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms,
        warmup_ms=min(2_000.0, duration_ms / 5),
        drain_ms=drain_ms, seed=seed + 2))
    result = driver.run()

    commits = max(1, manager.commits_applied)
    maintenance_ms_per_commit = manager.maintenance_ns / commits / 1e6

    # The counterfactual: what every refresh would cost without the
    # incremental path — recompute all registered views from the
    # committed store (same oracle the probe trusts).
    full_scan_ms = min(
        _timed_full_scan(manager, names) for _ in range(SCAN_REPEATS))

    speedup = (full_scan_ms / maintenance_ms_per_commit
               if maintenance_ms_per_commit > 0 else float("inf"))
    freshness = runtime.views.read("total-balance")
    return {
        "record_count": record_count,
        "rps": rps,
        "duration_ms": duration_ms,
        "requests_completed": result.completed,
        "commits_applied": manager.commits_applied,
        "keys_applied": manager.keys_applied,
        "maintenance_ms_per_commit": round(maintenance_ms_per_commit, 6),
        "full_scan_ms": round(full_scan_ms, 4),
        "speedup": round(speedup, 2),
        "probe_checks": probe_state["checks"],
        "probe_mismatches": probe_state["mismatches"],
        "freshness": {
            "updates_delivered": len(lags_ms),
            "max_lag_ms": round(max(lags_ms), 4) if lags_ms else None,
            "mean_lag_ms": (round(sum(lags_ms) / len(lags_ms), 4)
                            if lags_ms else None),
            "final_lag_batches": freshness.lag_batches,
        },
    }


def _timed_full_scan(manager, names: list[str]) -> float:
    started = time.perf_counter_ns()
    for name in names:
        manager.expected(name)
    return (time.perf_counter_ns() - started) / 1e6


class _FlatScanStore:
    """Scan surface over a cold-started flat ``{(entity, key): state}``
    mapping."""

    def __init__(self, state: dict) -> None:
        self._state = state

    def keys(self):
        return list(self._state)

    def get(self, entity: str, key: Any):
        state = self._state.get((entity, key))
        return dict(state) if state is not None else None


def run_durable_rehydrate_leg(record_count: int = 10_000, *,
                              seed: int = 42,
                              rps: float = 200.0,
                              duration_ms: float = 3_000.0,
                              trials: int = 3) -> dict[str, Any]:
    """The cold-start leg: a durable run with every cell view
    registered, quiesced and cut; then, from the files alone, resume
    the views twice — once from the cut's sidecar, once by full-scan
    rehydration — and compare cost and values."""
    from ..ir.dataflow import stable_hash
    from ..runtimes.state import TOMBSTONE, apply_flat_writes, \
        materialize_snapshot
    from ..storage import FileChangelogStore, FileSnapshotStore
    from ..views import ViewManager

    seed = seed + stable_hash(f"views-durable|{record_count}") % 997
    directory = tempfile.mkdtemp(prefix="repro-bench-views-")
    try:
        config = StateflowConfig(snapshot_mode="incremental",
                                 durability_dir=directory)
        runtime = StateflowRuntime(ycsb_program(),
                                   sim=Simulation(seed=seed),
                                   config=config)
        workload = YcsbWorkload("T", record_count=record_count,
                                distribution="zipfian", seed=seed + 1)
        runtime.preload(Account, workload.dataset_rows())
        runtime.start()
        engine = QueryEngine(runtime)
        specs = cell_views()
        names = [engine.register_view(spec).name for spec in specs]
        driver = WorkloadDriver(runtime, workload, DriverConfig(
            rps=rps, duration_ms=duration_ms, warmup_ms=0.0,
            drain_ms=6_000.0, seed=seed + 2))
        driver.run()
        # One final cut at quiesce so the sidecar covers the whole run.
        runtime.coordinator._take_snapshot()
        live_values = {name: runtime.views.read(name).value
                       for name in names}
        runtime.coordinator.changelog.close()

        # Files-only cold start (fresh store objects, shared recipe).
        snapshots = FileSnapshotStore(directory, mode="incremental")
        changelog = FileChangelogStore(directory)
        snapshot, payload = snapshots.latest_recoverable(changelog)
        suffix = changelog.records_between(snapshot.changelog_seq,
                                           changelog.head_seq) or []
        state = materialize_snapshot(payload)
        for record in suffix:
            state = apply_flat_writes(state, record.writes)
        state = {composite: row for composite, row in state.items()
                 if row is not TOMBSTONE}
        store = _FlatScanStore(state)
        sidecar = getattr(snapshot, "views_state", None)

        def resume_from_sidecar() -> tuple[ViewManager, float]:
            manager = ViewManager(store)
            manager.attach_recovery(sidecar, suffix)
            started = time.perf_counter_ns()
            for spec in specs:
                manager.register(spec)
            elapsed_ms = (time.perf_counter_ns() - started) / 1e6
            manager.detach_recovery()
            return manager, elapsed_ms

        def rehydrate_by_scan() -> tuple[ViewManager, float]:
            manager = ViewManager(store)
            started = time.perf_counter_ns()
            for spec in specs:
                manager.register(spec)
            return manager, (time.perf_counter_ns() - started) / 1e6

        sidecar_runs = [resume_from_sidecar() for _ in range(trials)]
        scan_runs = [rehydrate_by_scan() for _ in range(trials)]
        resumed = sidecar_runs[0][0]
        sidecar_ms = min(elapsed for _, elapsed in sidecar_runs)
        scan_ms = min(elapsed for _, elapsed in scan_runs)
        changelog.close()

        cold_values = {name: resumed.read(name).value for name in names}
        scan_values = {name: scan_runs[0][0].read(name).value
                       for name in names}
        speedup = scan_ms / sidecar_ms if sidecar_ms > 0 else float("inf")
        return {
            "record_count": record_count,
            "suffix_records": len(suffix),
            "sidecar_resume_ms": round(sidecar_ms, 4),
            "scan_rehydrate_ms": round(scan_ms, 4),
            "rehydrate_speedup": round(speedup, 2),
            "rehydrations": resumed.rehydrations,
            "sidecar_restores": resumed.sidecar_restores,
            "values_identical": cold_values == live_values,
            "scan_agrees": scan_values == live_values,
        }
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def run_views_cell(*, seed: int = 42,
                   record_counts: tuple[int, ...] = RECORD_COUNTS,
                   rps: float = 200.0, duration_ms: float = 6_000.0,
                   ) -> dict[str, Any]:
    """Run every leg and assemble the ``BENCH_views.json`` payload."""
    legs = [run_views_leg(count, seed=seed, rps=rps,
                          duration_ms=duration_ms)
            for count in record_counts]
    durable = run_durable_rehydrate_leg(record_counts[0], seed=seed,
                                        rps=rps)
    smallest = legs[0]
    max_lags = [leg["freshness"]["max_lag_ms"] for leg in legs
                if leg["freshness"]["max_lag_ms"] is not None]
    gates = {
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_at_smallest_leg": smallest["speedup"],
        "speedup_ok": smallest["speedup"] >= SPEEDUP_FLOOR,
        "lag_ceiling_ms": LAG_CEILING_MS,
        "max_lag_ms": max(max_lags) if max_lags else None,
        "lag_ok": bool(max_lags) and max(max_lags) <= LAG_CEILING_MS,
        "zero_mismatches": all(
            leg["probe_mismatches"] == 0 and leg["probe_checks"] > 0
            for leg in legs),
        "rehydrate_floor": REHYDRATE_FLOOR,
        "rehydrate_speedup": durable["rehydrate_speedup"],
        "rehydrate_ok": (
            durable["rehydrate_speedup"] >= REHYDRATE_FLOOR
            and durable["rehydrations"] == 0
            and durable["values_identical"]
            and durable["scan_agrees"]),
    }
    return {
        "cell": "views",
        "views": [spec.name for spec in cell_views()],
        "legs": legs,
        "durable_rehydrate": durable,
        "gates": gates,
        "ok": gates["speedup_ok"] and gates["lag_ok"]
              and gates["zero_mismatches"] and gates["rehydrate_ok"],
    }


def format_views_summary(artifact: dict[str, Any]) -> str:
    gates = artifact["gates"]
    lines = []
    for leg in artifact["legs"]:
        lines.append(
            f"{leg['record_count']} keys: "
            f"{leg['maintenance_ms_per_commit']:.4f} ms/commit "
            f"incremental vs {leg['full_scan_ms']:.2f} ms full scan "
            f"({leg['speedup']:.0f}x), max push lag "
            f"{leg['freshness']['max_lag_ms']} ms, "
            f"{leg['probe_checks']} oracle checks, "
            f"{leg['probe_mismatches']} mismatches")
    durable = artifact.get("durable_rehydrate")
    if durable:
        lines.append(
            f"cold start at {durable['record_count']} keys: "
            f"{durable['sidecar_resume_ms']:.2f} ms sidecar resume vs "
            f"{durable['scan_rehydrate_ms']:.2f} ms scan rehydrate "
            f"({durable['rehydrate_speedup']:.0f}x), "
            f"{durable['rehydrations']} rescans, values "
            f"{'identical' if durable['values_identical'] else 'DIVERGED'}")
    verdict = "PASS" if artifact["ok"] else "FAIL"
    lines.append(
        f"{verdict}: speedup {gates['speedup_at_smallest_leg']:.0f}x "
        f"(floor {gates['speedup_floor']:.0f}x), max lag "
        f"{gates['max_lag_ms']} ms (ceiling {gates['lag_ceiling_ms']} ms), "
        f"mismatches {'none' if gates['zero_mismatches'] else 'FOUND'}, "
        f"rehydrate {gates['rehydrate_speedup']:.0f}x "
        f"(floor {gates['rehydrate_floor']:.0f}x)")
    return "\n".join(lines)
