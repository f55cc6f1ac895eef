"""Benchmark harness: runs paper experiments and prints their tables.

Each experiment in DESIGN.md §4 has a ``run_*`` function here returning
structured rows, plus a ``format_table`` pretty-printer that produces the
series the paper plots.  The pytest-benchmark files under ``benchmarks/``
are thin wrappers over these functions.
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


def env_ms(name: str, default: float) -> float:
    """Benchmark durations are tunable via environment variables."""
    value = os.environ.get(name)
    return float(value) if value else default


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

    *runtime_overrides* is the :func:`build_runtime` mapping: a
    ``fault_plan`` runs the cell under a :class:`~repro.faults.
    FaultPlan` (``--faults`` on the CLI), and ``spawner="process"`` runs
    it on real worker processes (StateFlow only) under
    :func:`process_stateflow_overrides`; the duration is then
    wall-clock milliseconds, so callers should pick a far smaller cell
    than the simulator defaults.
    """
    from ..ir.dataflow import stable_hash

    overrides = dict(runtime_overrides or {})
    fault_plan = overrides.get("fault_plan")
    spawner = overrides.get("spawner", "simulator")
    wallclock = spawner != "simulator"
    if wallclock and system != "stateflow":
        raise ValueError(
            f"spawner {spawner!r} requires system='stateflow'; "
            f"{system!r} has no process substrate")
    if wallclock and fault_plan is not None:
        raise ValueError(
            "fault plans drive simulator internals and are not "
            "supported on the process spawner")
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
        if fault_plan is not None:
            extra["recoveries"] = runtime.coordinator.recoveries
            extra["msg_dropped"] = runtime.faults.stats.dropped
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


# ---------------------------------------------------------------------------
# Figure 3: p99 latency bars, YCSB A/B/T x {zipfian, uniform} at 100 RPS
# ---------------------------------------------------------------------------

FIG3_CELLS: list[tuple[str, str, str]] = [
    # (system, workload, distribution); no Statefun T — "we did not run
    # Statefun against transactional workloads since it offers no support
    # for transactions" (Section 4).
    ("statefun", "A", "zipfian"), ("statefun", "A", "uniform"),
    ("statefun", "B", "zipfian"), ("statefun", "B", "uniform"),
    ("stateflow", "A", "zipfian"), ("stateflow", "A", "uniform"),
    ("stateflow", "B", "zipfian"), ("stateflow", "B", "uniform"),
    ("stateflow", "T", "zipfian"), ("stateflow", "T", "uniform"),
]


def run_figure3(*, duration_ms: float | None = None,
                record_count: int = 1000, seed: int = 42,
                ) -> list[ExperimentRow]:
    duration = duration_ms or env_ms("REPRO_FIG3_DURATION_MS", 20_000.0)
    return [run_ycsb_cell(system, workload, distribution, rps=100.0,
                          duration_ms=duration, record_count=record_count,
                          seed=seed)
            for system, workload, distribution in FIG3_CELLS]


# ---------------------------------------------------------------------------
# Figure 4: p50/p99 latency vs input throughput, workload M
# ---------------------------------------------------------------------------

FIG4_RATES: list[float] = [1000, 1500, 2000, 2500, 3000, 3500, 4000]


def run_figure4(*, duration_ms: float | None = None,
                rates: list[float] | None = None,
                record_count: int = 1000, seed: int = 42,
                ) -> list[ExperimentRow]:
    duration = duration_ms or env_ms("REPRO_FIG4_DURATION_MS", 6_000.0)
    rows = []
    for system in ("statefun", "stateflow"):
        for rate in (rates or FIG4_RATES):
            rows.append(run_ycsb_cell(
                system, "M", "zipfian", rps=rate, duration_ms=duration,
                record_count=record_count, seed=seed,
                drain_ms=4_000.0))
    return rows


def check_figure3_shape(rows: list[ExperimentRow]) -> list[str]:
    """DESIGN.md acceptance criteria for Figure 3; returns violations."""
    by_cell = {(r.system, r.workload, r.distribution): r for r in rows}
    problems = []
    statefun = [r for r in rows if r.system == "statefun"]
    if statefun:
        p99s = [r.p99_ms for r in statefun]
        if max(p99s) > 2.0 * min(p99s):
            problems.append(
                "Statefun p99 should be roughly equal across A/B and "
                f"distributions; got {sorted(round(p, 1) for p in p99s)}")
    for workload in ("A", "B"):
        for distribution in ("zipfian", "uniform"):
            fun = by_cell.get(("statefun", workload, distribution))
            flow = by_cell.get(("stateflow", workload, distribution))
            if fun and flow and not flow.p99_ms < fun.p99_ms:
                problems.append(
                    f"StateFlow should beat Statefun on {workload}-"
                    f"{distribution}: {flow.p99_ms:.1f} vs {fun.p99_ms:.1f}")
    for distribution in ("zipfian", "uniform"):
        t_row = by_cell.get(("stateflow", "T", distribution))
        if t_row and not t_row.p99_ms < 200.0:
            problems.append(
                f"StateFlow T-{distribution} p99 should stay below 200 ms "
                f"(paper: sub-100ms average, bars < 200); got "
                f"{t_row.p99_ms:.1f}")
    if any(r.system == "statefun" and r.workload == "T" for r in rows):
        problems.append("Statefun must not run workload T")
    return problems


def check_figure4_shape(rows: list[ExperimentRow]) -> list[str]:
    """Acceptance criteria for Figure 4: Statefun saturates (p99
    diverges) before the top rate; StateFlow stays far lower."""
    problems = []
    statefun = sorted((r for r in rows if r.system == "statefun"),
                      key=lambda r: r.rps)
    stateflow = sorted((r for r in rows if r.system == "stateflow"),
                       key=lambda r: r.rps)
    if statefun:
        low, high = statefun[0], statefun[-1]
        if not high.p99_ms > 3.0 * low.p99_ms:
            problems.append(
                "Statefun p99 should blow up with load: "
                f"{low.p99_ms:.1f} -> {high.p99_ms:.1f}")
    if stateflow and statefun:
        top_flow = stateflow[-1]
        top_fun = statefun[-1]
        if not top_flow.p99_ms < top_fun.p99_ms:
            problems.append(
                "StateFlow should sustain the top rate better than "
                f"Statefun: {top_flow.p99_ms:.1f} vs {top_fun.p99_ms:.1f}")
    return problems
