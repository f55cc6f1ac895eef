"""Benchmark harness: one YCSB cell on any runtime, and its table.

:func:`run_ycsb_cell` runs one (system, workload, distribution, rate)
cell and returns an :class:`ExperimentRow`; :func:`format_table` prints
rows the way the paper plots them.  Every bench cell builds its runtimes
through :func:`build_runtime`, and persists its results with
:func:`write_bench_artifact`.  The paper's figures and ablations are
sections of one cell, :mod:`repro.bench.paper`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any

from ..compiler.pipeline import CompiledProgram, compile_program
from ..runtimes.stateflow import (
    CoordinatorConfig,
    StateflowConfig,
    StateflowRuntime,
)
from ..runtimes.statefun import StatefunConfig, StatefunRuntime
from ..substrates.simulation import Simulation
from ..substrates.spawner import make_spawner
from ..workloads.generator import DriverConfig, WorkloadDriver
from ..workloads.ycsb import Account, YcsbWorkload


_PROGRAM_CACHE: dict[int, CompiledProgram] = {}


def ycsb_program() -> CompiledProgram:
    """Compile (once) the YCSB Account entity."""
    if 0 not in _PROGRAM_CACHE:
        _PROGRAM_CACHE[0] = compile_program([Account])
    return _PROGRAM_CACHE[0]


#: A flat override naming one of these (``pipeline_depth=1``) is set on
#: the deployment's coordinator config.
_COORDINATOR_FIELDS = frozenset(f.name for f in fields(CoordinatorConfig))


def build_runtime(system: str, program: CompiledProgram, seed: int = 42,
                  **overrides: Any):
    """Instantiate a runtime: ``"statefun"`` or ``"stateflow"``.

    For StateFlow, *overrides* is one flat mapping: a key naming a
    :class:`CoordinatorConfig` field is set on ``coordinator`` (the
    mapping's own, e.g. a cell's preset, or the default), every other
    key on the :class:`StateflowConfig`.  The kernel comes from the
    chosen ``spawner`` (virtual-time :class:`Simulation` for
    ``"simulator"``, a real-time :class:`~repro.substrates.wallclock.
    WallClock` for ``"process"``)."""
    if system == "statefun":
        return StatefunRuntime(program, sim=Simulation(seed=seed),
                               config=StatefunConfig(**overrides))
    if system == "stateflow":
        tuning = {key: overrides.pop(key) for key in list(overrides)
                  if key in _COORDINATOR_FIELDS}
        if tuning:
            overrides["coordinator"] = replace(
                overrides.get("coordinator") or CoordinatorConfig(),
                **tuning)
        config = StateflowConfig(**overrides)
        kernel = make_spawner(config.spawner).make_kernel(seed)
        return StateflowRuntime(program, sim=kernel, config=config)
    raise ValueError(f"unknown system {system!r}")


def process_stateflow_overrides(**extra: Any) -> dict[str, Any]:
    """StateflowConfig overrides for the real-process substrate: policies
    for real round trips, and no costs (the wall clock charges none).
    Replies leave at commit, not at the epoch flush; the failure detector
    is relaxed for the initial seeding (a real pickle of each worker's
    slots); cuts, real O(keys) work on the parent's loop, are spaced out."""
    overrides: dict[str, Any] = {
        "spawner": "process",
        "coordinator": CoordinatorConfig(
            failure_detect_ms=5_000.0,
            snapshot_interval_ms=2_000.0,
            release_txn_outputs_at_epoch=False,
            # Real round trips make giant batches toxic: more intra-batch
            # conflicts mean more sequential-fallback executions, each a
            # real worker round trip, so an overloaded depth-1 pipeline
            # snowballs (bigger batch -> slower commit -> bigger next
            # batch).  A tight cap keeps overload degradation graceful.
            max_batch_size=64),
    }
    overrides.update(extra)
    return overrides


@dataclass(slots=True)
class ExperimentRow:
    """One measured cell of a paper figure."""

    system: str
    workload: str
    distribution: str
    rps: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    sent: int
    completed: int
    errors: int
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "system": self.system, "workload": self.workload,
            "distribution": self.distribution, "rps": self.rps,
            "p50_ms": round(self.p50_ms, 2), "p99_ms": round(self.p99_ms, 2),
            "mean_ms": round(self.mean_ms, 2), "sent": self.sent,
            "completed": self.completed, "errors": self.errors,
            **self.extra,
        }


def write_bench_artifact(cell: str, payload: dict[str, Any],
                         directory: str | Path | None = None) -> Path:
    """Persist one bench cell's results as ``BENCH_<cell>.json``.

    Every CLI bench entry point calls this, so the perf trajectory is
    recorded run over run instead of scrolling away.  The directory
    defaults to ``$REPRO_BENCH_DIR`` or the current working directory;
    payloads are pure simulation output (no wall-clock timestamps), so
    reruns of the same seed produce byte-identical artifacts.
    """
    base = Path(directory or os.environ.get("REPRO_BENCH_DIR", "."))
    base.mkdir(parents=True, exist_ok=True)
    path = base / f"BENCH_{cell}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def run_ycsb_cell(system: str, workload_name: str, distribution: str,
                  *, rps: float = 100.0, duration_ms: float = 20_000.0,
                  record_count: int = 1000, seed: int = 42,
                  drain_ms: float = 8_000.0,
                  runtime_overrides: dict[str, Any] | None = None,
                  ) -> ExperimentRow:
    """Run one (system, workload, distribution, rate) cell.

    *runtime_overrides* is the :func:`build_runtime` mapping:
    ``spawner="process"`` runs the cell on real worker processes
    (StateFlow only) under :func:`process_stateflow_overrides`; the
    duration is then wall-clock milliseconds, so callers should pick a
    far smaller cell than the simulator defaults.  Fault plans run
    through :func:`~repro.bench.chaos.run_chaos_cell`.
    """
    from ..ir.dataflow import stable_hash

    overrides = dict(runtime_overrides or {})
    spawner = overrides.get("spawner", "simulator")
    wallclock = spawner != "simulator"
    if wallclock and system != "stateflow":
        raise ValueError(
            f"spawner {spawner!r} requires system='stateflow'; "
            f"{system!r} has no process substrate")
    # Derive a per-cell seed so cells are independent samples (while
    # still reproducible for a given base seed).
    seed = seed + stable_hash(
        f"{system}|{workload_name}|{distribution}|{rps}") % 997
    program = ycsb_program()
    if wallclock:
        overrides = process_stateflow_overrides(**overrides)
    runtime = build_runtime(system, program, seed=seed, **overrides)
    workload = YcsbWorkload(workload_name, record_count=record_count,
                            distribution=distribution, seed=seed + 1)
    runtime.preload(Account, workload.dataset_rows())
    if hasattr(runtime, "start"):
        runtime.start()
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=rps, duration_ms=duration_ms,
        warmup_ms=min(2_000.0, duration_ms / 5),
        drain_ms=drain_ms, seed=seed + 2,
        stop_when_drained=wallclock))
    result = driver.run()
    extra: dict[str, Any] = {}
    if wallclock:
        extra["mode"] = "wallclock"
        extra["spawner"] = spawner
        extra["cpu_count"] = os.cpu_count() or 1
    if hasattr(runtime, "coordinator"):
        stats = runtime.coordinator.stats
        extra["txn_aborts"] = stats.aborts_waw + stats.aborts_raw
        extra["batches"] = stats.batches
    if wallclock:
        runtime.close()
    return ExperimentRow(
        system=system, workload=workload_name, distribution=distribution,
        rps=rps, p50_ms=result.percentile(50), p99_ms=result.percentile(99),
        mean_ms=result.mean(), sent=result.sent,
        completed=result.completed, errors=result.errors, extra=extra)


def format_table(rows: list[ExperimentRow], title: str,
                 columns: list[str] | None = None) -> str:
    """Fixed-width table of experiment rows (the paper-style output)."""
    columns = columns or ["system", "workload", "distribution", "rps",
                          "p50_ms", "p99_ms", "mean_ms", "completed",
                          "errors"]
    dicts = [row.as_dict() for row in rows]
    widths = {c: max(len(c), *(len(str(d.get(c, ""))) for d in dicts))
              for c in columns}
    lines = [title, "-" * len(title)]
    lines.append("  ".join(c.ljust(widths[c]) for c in columns))
    for d in dicts:
        lines.append("  ".join(str(d.get(c, "")).ljust(widths[c])
                               for c in columns))
    return "\n".join(lines)
