"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``compile <module.py> --out app.json`` — import a Python file, compile
  every ``@entity`` class it defines, and write the portable IR;
- ``describe <app.json>`` — print a human-readable summary of an IR file;
- ``dot <app.json> [--method Entity.method]`` — emit Graphviz DOT for the
  operator dataflow or one method's state machine;
- ``run <module.py> <Entity> <method> <key> [args...]`` — quick local
  execution against a fresh Local runtime (debugging aid);
- ``bench [--system ...] ...`` — run one YCSB benchmark cell on a
  simulated runtime and print its row;
  ``--cell pipeline`` instead sweeps the epoch-pipeline depth
  (1/2/4) on a saturating cell and writes ``BENCH_pipeline.json``;
  ``--cell recovery`` sweeps snapshot mode (full/incremental) against
  state size, measuring snapshot bytes/cut and recovery time, and
  writes ``BENCH_recovery.json`` with the <= 0.25x capture-volume gate;
  ``--cell autoscale`` drives a zipfian rate/skew ramp twice — once
  with the closed-loop controller, once at fixed size — and writes
  ``BENCH_autoscale.json`` with the post-scale p99-SLO gate;
  ``--cell views`` registers six standing queries (count/sum/rollup/
  min/max/top-k), drives a write mix at 10k-100k keys plus a durable
  cold-start leg, and writes ``BENCH_views.json`` with the >=10x
  incremental-vs-full-scan speedup gate, the freshness-lag gate, and
  the >=10x sidecar-resume-vs-rehydration gate;
  ``--rps-sweep R1,R2,...`` turns the ycsb cell into a rate sweep;
- ``chaos plan --seed N --out plan.json`` — generate a reproducible
  random fault plan;
- ``chaos run [--plan plan.json] [--seed N] ...`` — execute a workload
  under a fault plan and verify the committed history (exactly-once,
  conservation), printing recovery/availability metrics and a trace
  digest that is identical across reruns of the same seed;
- ``rescale plan --targets 4,3 --out plan.json`` — generate a
  declarative elastic-rescale schedule;
- ``rescale run [--plan plan.json] [--faults chaos.json] ...`` — run a
  workload that resizes the StateFlow cluster mid-stream (optionally
  under chaos), verify the committed history, and report migration
  pause times and post-rescale throughput.

``run`` and ``bench`` accept ``--faults plan.json`` to run under a
fault plan (see :mod:`repro.faults`), and ``--rescale plan.json`` to
resize the cluster mid-run (StateFlow only; see :mod:`repro.rescale`).
``bench`` and ``chaos run`` accept ``--autoscale`` to attach the
closed-loop controller that sizes the cluster itself (see
:mod:`repro.control`); it does not compose with ``--rescale`` (two
scaling authorities would fight over the same barrier).  ``bench``,
``chaos run`` and ``rescale run`` accept ``--pipeline-depth N`` to set
the StateFlow epoch pipeline's bound (1 = the strictly serial
pre-pipeline batching), ``--snapshot-mode full|incremental`` to pick
the durability path (incremental = dirtied-slots cuts chained to
periodic bases, plus a per-commit changelog) and ``--changelog on|off``
to toggle the commit changelog that repairs torn incremental chains.
``run`` (ignored, with a note), ``bench`` and ``chaos run`` accept
``--durable DIR`` (stateflow only) to back the snapshot store and
changelog with real files under *DIR* (see :mod:`repro.storage`): the
run's replies are byte-identical to an in-memory run, and a rerun over
the same directory cold-starts from the persisted cuts and records.

``bench``, ``chaos run`` and ``rescale run`` persist their results as
``BENCH_<cell>.json`` in the working directory (override with
``$REPRO_BENCH_DIR``), so the perf trajectory survives the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

from .compiler.pipeline import compile_program
from .core.entity import REGISTRY, EntityRegistry, is_entity_class
from .core.refs import EntityRef
from .faults import INTENSITIES, FaultPlan, random_plan
from .ir.dot import dataflow_to_dot, machine_to_dot
from .ir.serde import dataflow_from_json, dataflow_to_json
from .rescale import RescalePlan, staged_plan
from .runtimes.local import LocalRuntime


def _load_module_entities(path: str) -> list[type]:
    """Import *path* as a module and return its ``@entity`` classes."""
    module_path = Path(path).resolve()
    spec = importlib.util.spec_from_file_location(module_path.stem,
                                                  module_path)
    if spec is None or spec.loader is None:
        raise SystemExit(f"cannot import {path!r}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_path.stem] = module
    spec.loader.exec_module(module)
    classes = [value for value in vars(module).values()
               if isinstance(value, type) and is_entity_class(value)
               and value.__module__ == module.__name__]
    if not classes:
        raise SystemExit(f"{path!r} defines no @entity classes")
    return classes


def _cmd_compile(args: argparse.Namespace) -> int:
    classes = _load_module_entities(args.module)
    program = compile_program(classes)
    document = dataflow_to_json(program.dataflow, indent=2)
    if args.out:
        Path(args.out).write_text(document, encoding="utf-8")
        print(f"wrote IR for {len(classes)} entities to {args.out}")
    else:
        print(document)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    dataflow = dataflow_from_json(Path(args.ir).read_text(encoding="utf-8"))
    print(dataflow.describe())
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    dataflow = dataflow_from_json(Path(args.ir).read_text(encoding="utf-8"))
    if args.method:
        entity_name, _, method = args.method.partition(".")
        if not method:
            raise SystemExit("--method expects Entity.method")
        machine = dataflow.operator(entity_name).machine(method)
        print(machine_to_dot(machine))
    else:
        print(dataflow_to_dot(dataflow))
    return 0


def _parse_literal(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _load_fault_plan(path: str | None) -> FaultPlan | None:
    if path is None:
        return None
    return FaultPlan.from_json(Path(path))


def _load_rescale_plan(path: str | None) -> RescalePlan | None:
    if path is None:
        return None
    return RescalePlan.from_json(Path(path))


def _parse_targets(text: str) -> list[int]:
    try:
        targets = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--targets expects comma-separated worker "
                         f"counts, got {text!r}")
    if not targets or any(target < 1 for target in targets):
        raise SystemExit(f"--targets needs positive worker counts, "
                         f"got {text!r}")
    return targets


def _cmd_run(args: argparse.Namespace) -> int:
    classes = _load_module_entities(args.module)
    program = compile_program(classes)
    if args.rescale is not None:
        print("note: the Local runtime is single-process; --rescale "
              "applies to `repro bench` / `repro rescale run` "
              "(stateflow)", file=sys.stderr)
    if args.pipeline_depth is not None:
        print("note: the Local runtime has no epoch pipeline; "
              "--pipeline-depth applies to `repro bench` / `repro chaos "
              "run` / `repro rescale run` (stateflow)", file=sys.stderr)
    if args.spawner != "simulator":
        print("note: the Local runtime is in-process by definition; "
              "--spawner applies to `repro bench` (stateflow)",
              file=sys.stderr)
    if args.autoscale:
        print("note: the Local runtime is single-process; --autoscale "
              "applies to `repro bench` / `repro chaos run` "
              "(stateflow)", file=sys.stderr)
    if args.durable is not None:
        print("note: the Local runtime keeps no snapshots; --durable "
              "applies to `repro bench` / `repro chaos run` "
              "(stateflow)", file=sys.stderr)
    runtime = LocalRuntime(program, fault_plan=_load_fault_plan(args.faults))
    call_args = [_parse_literal(a) for a in args.args]
    if args.method == "__init__":
        ref = runtime.create(args.entity, *call_args)
        print(f"created {ref}")
        print(runtime.entity_state(ref))
        return 0
    ref = EntityRef(args.entity, _parse_literal(args.key))
    result = runtime.invoke(ref, args.method, *call_args)
    if not result.ok:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    print(result.value)
    return 0


#: The supported cell/spawner matrix, spelled out in every rejection so
#: an invalid invocation tells the user what *would* work.
SPAWNER_MATRIX = (
    "valid combinations: --spawner simulator (the default) runs every "
    "cell (ycsb / pipeline / recovery / autoscale / views) and composes "
    "with --faults, --rescale and --autoscale; --spawner process runs "
    "--system stateflow with --cell ycsb (optionally --autoscale) or "
    "--cell pipeline, and rejects --faults/--rescale and the "
    "recovery/autoscale/views cells (they drive virtual-time simulator "
    "internals)")


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import format_table, run_ycsb_cell, write_bench_artifact

    if args.autoscale and args.rescale is not None:
        raise SystemExit("repro bench: error: --autoscale does not "
                         "compose with --rescale (the closed-loop "
                         "controller and a declarative plan would fight "
                         "over the same rescale barrier); pick one "
                         "scaling authority")
    if args.autoscale and args.system != "stateflow":
        raise SystemExit("repro bench: error: --autoscale requires "
                         "--system stateflow (the elastic runtime)")
    if args.spawner != "simulator":
        if args.system != "stateflow":
            raise SystemExit("repro bench: error: --spawner process "
                             "requires --system stateflow (the runtime "
                             "with a process substrate); "
                             + SPAWNER_MATRIX)
        if args.faults is not None or args.rescale is not None:
            raise SystemExit("repro bench: error: --spawner process does "
                             "not compose with --faults/--rescale (fault "
                             "plans drive simulator internals); "
                             + SPAWNER_MATRIX)
        if args.cell in ("recovery", "autoscale", "views"):
            raise SystemExit(f"repro bench: error: --cell {args.cell} "
                             "is simulator-only (its sweep measures "
                             "virtual-time behaviour deterministically); "
                             + SPAWNER_MATRIX)
    if args.rps_sweep is not None and args.cell != "ycsb":
        raise SystemExit(f"repro bench: error: --rps-sweep drives the "
                         f"ycsb cell; drop it for --cell {args.cell}")
    if args.cell == "autoscale":
        if args.system != "stateflow":
            raise SystemExit("repro bench: error: --cell autoscale runs "
                             "on stateflow (the elastic runtime); "
                             + SPAWNER_MATRIX)
        if args.faults is not None or args.rescale is not None:
            raise SystemExit("repro bench: error: --cell autoscale does "
                             "not compose with --faults/--rescale (use "
                             "`repro chaos run --autoscale` for "
                             "controller-under-chaos; the cell owns its "
                             "scaling authority)")
        if args.pipeline_depth is not None or args.snapshot_mode is not None:
            raise SystemExit("repro bench: error: --cell autoscale runs "
                             "canonical configurations; drop "
                             "--pipeline-depth/--snapshot-mode")
        if args.durable is not None:
            raise SystemExit("repro bench: error: --cell autoscale runs "
                             "canonical configurations; drop --durable")
        return _run_autoscale_cell(args)
    if args.cell == "views":
        if args.system != "stateflow":
            raise SystemExit("repro bench: error: --cell views runs on "
                             "stateflow (views hang off the Aria commit "
                             "path); " + SPAWNER_MATRIX)
        if args.faults is not None or args.rescale is not None:
            raise SystemExit("repro bench: error: --cell views does not "
                             "compose with --faults/--rescale (the "
                             "correctness battery in tests/ covers views "
                             "under chaos and rescale; the cell measures "
                             "a clean run)")
        if args.autoscale:
            raise SystemExit("repro bench: error: --cell views measures "
                             "a fixed deployment; drop --autoscale")
        if args.pipeline_depth is not None or args.snapshot_mode is not None:
            raise SystemExit("repro bench: error: --cell views runs "
                             "canonical configurations (incremental "
                             "snapshots, default pipeline); drop "
                             "--pipeline-depth/--snapshot-mode")
        if args.changelog is not None or args.durable is not None:
            raise SystemExit("repro bench: error: --cell views runs "
                             "canonical configurations and owns its "
                             "durable cold-start leg (a temp-dir "
                             "durable run timed sidecar-resume vs "
                             "full rehydration); drop "
                             "--changelog/--durable")
        return _run_views_cell(args)
    if args.cell == "pipeline":
        # The sweep owns the depth axis and the saturating deployment;
        # flags it cannot honour are rejected, not silently dropped.
        if args.system != "stateflow":
            raise SystemExit("repro bench: error: --cell pipeline runs "
                             "on stateflow (the batching runtime)")
        if args.pipeline_depth is not None:
            raise SystemExit("repro bench: error: --cell pipeline sweeps "
                             "depths 1/2/4 itself; drop --pipeline-depth")
        if args.faults is not None or args.rescale is not None:
            raise SystemExit("repro bench: error: --cell pipeline does "
                             "not compose with --faults/--rescale (use "
                             "`repro chaos run --pipeline-depth` / "
                             "`repro rescale run --pipeline-depth`)")
        if args.autoscale:
            raise SystemExit("repro bench: error: --cell pipeline "
                             "measures a fixed deployment per depth; "
                             "drop --autoscale (the autoscale cell is "
                             "`repro bench --cell autoscale`)")
        if args.durable is not None:
            raise SystemExit("repro bench: error: --cell pipeline "
                             "measures the pipeline, not the disk; "
                             "drop --durable (the recovery cell's disk "
                             "leg measures durable runs)")
        return _run_pipeline_cell(args)
    if args.cell == "recovery":
        if args.system != "stateflow":
            raise SystemExit("repro bench: error: --cell recovery runs "
                             "on stateflow (the snapshotting runtime)")
        if args.autoscale:
            raise SystemExit("repro bench: error: --cell recovery "
                             "measures fixed-size recovery; drop "
                             "--autoscale")
        if args.snapshot_mode is not None:
            raise SystemExit("repro bench: error: --cell recovery sweeps "
                             "full and incremental itself; drop "
                             "--snapshot-mode")
        if args.faults is not None or args.rescale is not None:
            raise SystemExit("repro bench: error: --cell recovery does "
                             "not compose with --faults/--rescale (it "
                             "injects its own fail-over)")
        if args.changelog is not None or args.pipeline_depth is not None:
            raise SystemExit("repro bench: error: --cell recovery runs "
                             "canonical configurations; drop "
                             "--changelog/--pipeline-depth")
        if args.durable is not None:
            raise SystemExit("repro bench: error: --cell recovery owns "
                             "its durability directory (the disk leg "
                             "runs in a temp dir); drop --durable")
        return _run_recovery_cell(args)
    plan = _load_fault_plan(args.faults)
    rescale_plan = _load_rescale_plan(args.rescale)
    if rescale_plan is not None and args.system != "stateflow":
        raise SystemExit("repro bench: error: --rescale requires "
                         "--system stateflow (the elastic runtime)")
    if args.pipeline_depth is not None and args.system != "stateflow":
        raise SystemExit("repro bench: error: --pipeline-depth requires "
                         "--system stateflow (the batching runtime)")
    if args.snapshot_mode is not None and args.system != "stateflow":
        raise SystemExit("repro bench: error: --snapshot-mode requires "
                         "--system stateflow (the snapshotting runtime)")
    if args.durable is not None and args.system != "stateflow":
        raise SystemExit("repro bench: error: --durable requires "
                         "--system stateflow (the snapshotting runtime)")
    overrides: dict | None = {}
    if rescale_plan is not None:
        overrides["rescale_plan"] = rescale_plan
    if args.pipeline_depth is not None:
        overrides["pipeline_depth"] = args.pipeline_depth
    if args.snapshot_mode is not None:
        overrides["snapshot_mode"] = args.snapshot_mode
    if args.changelog is not None:
        overrides["changelog"] = args.changelog == "on"
    if args.autoscale:
        overrides["autoscale"] = True
    if args.durable is not None:
        overrides["durability_dir"] = args.durable
    duration_ms = (args.duration_ms if args.duration_ms is not None
                   else 2_000.0)
    record_count = args.records if args.records is not None else 100
    if args.rps_sweep is not None:
        # A proper sweep: every requested rate.  All rows land in one
        # BENCH_ycsb.json so the rate/latency curve is an artifact, not
        # scrollback.
        rates = _parse_rps_sweep(args.rps_sweep)
        title = (f"YCSB {args.workload}/{args.distribution} on "
                 f"{args.system}, rps sweep "
                 f"{'/'.join(str(r) for r in rates)}")
    else:
        rates = [args.rps if args.rps is not None else 100.0]
        title = f"YCSB {args.workload}/{args.distribution} on {args.system}"
    rows = [run_ycsb_cell(args.system, args.workload, args.distribution,
                          rps=rate, duration_ms=duration_ms,
                          record_count=record_count, seed=args.seed,
                          fault_plan=plan, spawner=args.spawner,
                          runtime_overrides=overrides or None)
            for rate in rates]
    columns = ["system", "workload", "distribution", "rps", "p50_ms",
               "p99_ms", "mean_ms", "completed", "errors"]
    if plan is not None and args.system == "stateflow":
        columns += ["recoveries", "msg_dropped"]
    print(format_table(rows, title, columns=columns))
    path = write_bench_artifact("ycsb", {"cell": "ycsb",
                                         "rows": [row.as_dict()
                                                  for row in rows]})
    print(f"wrote {path}")
    return 0


def _parse_rps_sweep(text: str) -> list[float]:
    try:
        rates = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"repro bench: error: --rps-sweep expects "
                         f"comma-separated rates, got {text!r}")
    if not rates or any(rate <= 0 for rate in rates):
        raise SystemExit(f"repro bench: error: --rps-sweep needs positive "
                         f"rates, got {text!r}")
    return rates


def _run_views_cell(args: argparse.Namespace) -> int:
    """``repro bench --cell views``: incremental view maintenance vs
    full scans at 10k-100k keys, persisted as ``BENCH_views.json``."""
    from .bench import (format_views_summary, run_views_cell,
                        write_bench_artifact)

    cell_args: dict = {"seed": args.seed}
    if args.rps is not None:
        cell_args["rps"] = args.rps
    if args.duration_ms is not None:
        cell_args["duration_ms"] = args.duration_ms
    if args.records is not None:
        cell_args["record_counts"] = (args.records,)
    artifact = run_views_cell(**cell_args)
    title = "incremental views: maintenance vs full scan"
    print(title)
    print("-" * len(title))
    print(format_views_summary(artifact))
    path = write_bench_artifact("views", artifact)
    print(f"wrote {path}")
    return 0 if artifact["ok"] else 1


def _print_pipeline_rows(report) -> None:
    lines = ["mode       depth  txn/s     mean_ms  p99_ms   batches  "
             "stall_ms"]
    for row in report.rows:
        lines.append(f"{row.mode:<9}  {row.depth:<5}  "
                     f"{row.throughput_txn_s:<8.0f}  "
                     f"{row.mean_ms:<7.1f}  {row.p99_ms:<7.1f}  "
                     f"{row.batches:<7}  {row.stall_ms:.1f}")
    print("\n".join(lines))


def _run_pipeline_cell(args: argparse.Namespace) -> int:
    """``repro bench --cell pipeline``: sweep the epoch-pipeline depth.

    ``--spawner simulator`` (default) runs the virtual-time sweep and
    gates on byte-identical replies across depths; ``--spawner
    process`` additionally re-runs the sweep on real worker processes
    and records the wall-clock speedup rows in the same
    ``BENCH_pipeline.json``."""
    from .bench import run_pipeline_bench, run_pipeline_cell, \
        write_bench_artifact

    sweep_args: dict = {}
    if args.rps is not None:
        sweep_args["rps"] = args.rps
    if args.duration_ms is not None:
        sweep_args["duration_ms"] = args.duration_ms
    if args.records is not None:
        sweep_args["record_count"] = args.records
    sweep_args["workload_name"] = args.workload
    sweep_args["distribution"] = args.distribution
    if args.spawner == "process":
        artifact, sim_report, wall_report = run_pipeline_bench(
            seed=args.seed, simulator_kwargs=dict(sweep_args))
        title = (f"pipeline sweep: YCSB {sim_report.workload}/"
                 f"{sim_report.distribution}, "
                 f"simulator + process substrates")
        print(title)
        print("-" * len(title))
        _print_pipeline_rows(sim_report)
        _print_pipeline_rows(wall_report)
        print()
        print(sim_report.summary())
        print(wall_report.summary())
        ok = (sim_report.replies_identical
              and artifact["wallclock"]["meets_speedup_target"] is not False)
    else:
        report = run_pipeline_cell(seed=args.seed, **sweep_args)
        artifact = report.as_artifact()
        title = (f"pipeline sweep: YCSB {report.workload}/"
                 f"{report.distribution}, {report.workers} workers")
        print(title)
        print("-" * len(title))
        _print_pipeline_rows(report)
        print()
        print(report.summary())
        ok = report.replies_identical
    path = write_bench_artifact("pipeline", artifact)
    print(f"wrote {path}")
    return 0 if ok else 1


def _run_recovery_cell(args: argparse.Namespace) -> int:
    """``repro bench --cell recovery``: sweep snapshot mode against
    state size and persist ``BENCH_recovery.json``."""
    from .bench import run_recovery_cell, write_bench_artifact

    sweep_args: dict = {}
    if args.rps is not None:
        sweep_args["rps"] = args.rps
    if args.duration_ms is not None:
        sweep_args["duration_ms"] = args.duration_ms
    if args.records is not None:
        sweep_args["record_counts"] = (args.records,)
    report = run_recovery_cell(seed=args.seed, **sweep_args)
    lines = ["mode         records  cuts  keys/cut  bytes/cut  "
             "recovery_ms  changelog"]
    for row in report.rows:
        lines.append(
            f"{row.mode:<11}  {row.records:<7}  {row.cuts:<4}  "
            f"{row.mean_keys_per_cut:<8.1f}  {row.mean_bytes_per_cut:<9.0f}  "
            f"{row.recovery_ms:<11.2f}  {row.changelog_records}")
    title = "recovery sweep: full vs incremental"
    print(title)
    print("-" * len(title))
    print("\n".join(lines))
    print()
    print(report.summary())
    path = write_bench_artifact("recovery", report.as_artifact())
    print(f"wrote {path}")
    return 0 if report.ok else 1


def _run_autoscale_cell(args: argparse.Namespace) -> int:
    """``repro bench --cell autoscale``: the zipfian ramp, autoscaled
    vs fixed, persisted as ``BENCH_autoscale.json``."""
    from .bench import (format_autoscale_summary, run_autoscale_bench,
                        write_bench_artifact)

    artifact, scaled, _fixed = run_autoscale_bench(seed=args.seed)
    title = (f"autoscale ramp: YCSB A/zipfian "
             f"(theta {artifact['ramp'][0]['theta']} -> "
             f"{artifact['ramp'][-1]['theta']})")
    print(title)
    print("-" * len(title))
    lines = ["mode       phase  rps    theta  p99_ms   workers  rescales"]
    for mode in ("autoscale", "fixed"):
        for row in artifact["runs"][mode]["rows"]:
            lines.append(
                f"{mode:<9}  {row['phase']:<5}  {row['rps']:<5.0f}  "
                f"{row['theta']:<5}  {row['p99_ms']:<7.1f}  "
                f"{row['workers_at_end']:<7}  {row['rescales_so_far']}")
    print("\n".join(lines))
    print()
    print(format_autoscale_summary(artifact))
    path = write_bench_artifact("autoscale", artifact)
    print(f"wrote {path}")
    return 0 if artifact["gates"]["closed_loop_proven"] else 1


def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    plan = random_plan(args.seed, duration_ms=args.duration_ms,
                       workers=args.workers, intensity=args.intensity,
                       process_faults=not args.no_process_faults,
                       coordinator_faults=args.coordinator_faults,
                       rescales=args.rescales,
                       torn_snapshots=args.torn_snapshots)
    if args.out:
        plan.to_json(Path(args.out))
        print(f"wrote plan {plan.name!r} ({len(plan.events)} events) "
              f"to {args.out}")
    else:
        print(plan.to_json())
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    from .bench import format_table, run_chaos_cell, write_bench_artifact

    plan = _load_fault_plan(args.plan)
    if args.pipeline_depth is not None and args.system != "stateflow":
        raise SystemExit("repro chaos run: error: --pipeline-depth "
                         "requires --system stateflow")
    if args.snapshot_mode is not None and args.system != "stateflow":
        raise SystemExit("repro chaos run: error: --snapshot-mode "
                         "requires --system stateflow")
    if args.autoscale and args.system != "stateflow":
        raise SystemExit("repro chaos run: error: --autoscale requires "
                         "--system stateflow (the elastic runtime)")
    if args.durable is not None and args.system != "stateflow":
        raise SystemExit("repro chaos run: error: --durable requires "
                         "--system stateflow (the snapshotting runtime)")
    report = run_chaos_cell(
        args.system, args.workload, args.distribution, rps=args.rps,
        duration_ms=args.duration_ms, record_count=args.records,
        seed=args.seed, plan=plan, pipeline_depth=args.pipeline_depth,
        snapshot_mode=args.snapshot_mode,
        changelog=(None if args.changelog is None
                   else args.changelog == "on"),
        autoscale=args.autoscale,
        durability_dir=args.durable)
    columns = ["system", "workload", "rps", "p50_ms",
               "p99_ms", "completed", "errors", "recoveries",
               "recovery_time_ms", "availability"]
    print(format_table([report.row],
                       f"chaos {args.workload}/{args.distribution} on "
                       f"{args.system} (seed {args.seed})", columns=columns))
    print()
    print(report.summary())
    path = write_bench_artifact("chaos", report.as_artifact())
    print(f"wrote {path}")
    return 0 if report.ok else 1


def _cmd_rescale_plan(args: argparse.Namespace) -> int:
    plan = staged_plan(_parse_targets(args.targets),
                       start_ms=args.start_ms, interval_ms=args.interval_ms)
    if args.out:
        plan.to_json(Path(args.out))
        print(f"wrote plan {plan.name!r} ({len(plan.steps)} steps) "
              f"to {args.out}")
    else:
        print(plan.to_json())
    return 0


def _cmd_rescale_run(args: argparse.Namespace) -> int:
    from .bench import format_table, run_rescale_cell, write_bench_artifact

    if args.plan is not None:
        plan = _load_rescale_plan(args.plan)
    else:
        plan = staged_plan(_parse_targets(args.targets),
                           start_ms=args.duration_ms * 0.3,
                           interval_ms=args.duration_ms * 0.3)
    report = run_rescale_cell(
        args.workload, args.distribution, workers=args.workers, plan=plan,
        rps=args.rps, duration_ms=args.duration_ms,
        record_count=args.records, seed=args.seed,
        fault_plan=_load_fault_plan(args.faults),
        pipeline_depth=args.pipeline_depth,
        snapshot_mode=args.snapshot_mode,
        changelog=(None if args.changelog is None
                   else args.changelog == "on"))
    columns = ["system", "workload", "rps", "p50_ms",
               "p99_ms", "completed", "errors", "rescales",
               "mean_pause_ms", "keys_moved", "final_workers"]
    print(format_table(
        [report.row],
        f"rescale {args.workload}/{args.distribution} "
        f"{args.workers} -> {' -> '.join(str(t) for t in plan.targets)} "
        f"(seed {args.seed})", columns=columns))
    print()
    print(report.summary())
    path = write_bench_artifact("rescale", report.as_artifact())
    print(f"wrote {path}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stateful entities -> distributed dataflows compiler")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser(
        "compile", help="compile a module's @entity classes to IR")
    compile_cmd.add_argument("module")
    compile_cmd.add_argument("--out", default=None)
    compile_cmd.set_defaults(handler=_cmd_compile)

    describe_cmd = commands.add_parser(
        "describe", help="summarise a serialized IR file")
    describe_cmd.add_argument("ir")
    describe_cmd.set_defaults(handler=_cmd_describe)

    dot_cmd = commands.add_parser(
        "dot", help="emit Graphviz DOT for a dataflow or state machine")
    dot_cmd.add_argument("ir")
    dot_cmd.add_argument("--method", default=None,
                         help="Entity.method for a state-machine graph")
    dot_cmd.set_defaults(handler=_cmd_dot)

    run_cmd = commands.add_parser(
        "run", help="invoke a method on the Local runtime")
    run_cmd.add_argument("module")
    run_cmd.add_argument("entity")
    run_cmd.add_argument("method")
    run_cmd.add_argument("key")
    run_cmd.add_argument("args", nargs="*")
    run_cmd.add_argument("--faults", default=None, metavar="PLAN_JSON",
                         help="fault plan (Local applies its "
                              "message-reordering subset)")
    run_cmd.add_argument("--rescale", default=None, metavar="PLAN_JSON",
                         help="rescale plan (ignored by the Local "
                              "runtime; see `repro rescale run`)")
    run_cmd.add_argument("--pipeline-depth", type=int, default=None,
                         metavar="N",
                         help="epoch-pipeline depth (ignored by the "
                              "Local runtime; see `repro bench`)")
    run_cmd.add_argument("--spawner", default="simulator",
                         choices=["simulator", "process"],
                         help="execution substrate (ignored by the "
                              "Local runtime; see `repro bench`)")
    run_cmd.add_argument("--autoscale", action="store_true",
                         help="closed-loop autoscaling (ignored by the "
                              "Local runtime; see `repro bench` / "
                              "`repro chaos run`)")
    run_cmd.add_argument("--durable", default=None, metavar="DIR",
                         help="durability directory (ignored by the "
                              "Local runtime; see `repro bench` / "
                              "`repro chaos run`)")
    run_cmd.set_defaults(handler=_cmd_run)

    bench_cmd = commands.add_parser(
        "bench", help="run one YCSB benchmark cell on a simulated runtime")
    bench_cmd.add_argument("--system", default="stateflow",
                           choices=["stateflow", "statefun"])
    bench_cmd.add_argument("--workload", default="A",
                           choices=["A", "B", "M", "T"])
    bench_cmd.add_argument("--distribution", default="zipfian",
                           choices=["zipfian", "uniform"])
    # None = the active cell's own default (ycsb: 100 rps / 2000 ms /
    # 100 records; pipeline: its saturating sweep configuration).
    bench_cmd.add_argument("--rps", type=float, default=None)
    bench_cmd.add_argument("--rps-sweep", default=None,
                           metavar="R1,R2,...",
                           help="run the ycsb cell at each rate; all "
                                "rows land in one BENCH_ycsb.json")
    bench_cmd.add_argument("--duration-ms", type=float, default=None)
    bench_cmd.add_argument("--records", type=int, default=None)
    bench_cmd.add_argument("--seed", type=int, default=42)
    bench_cmd.add_argument("--faults", default=None, metavar="PLAN_JSON",
                           help="run the cell under a fault plan")
    bench_cmd.add_argument("--rescale", default=None, metavar="PLAN_JSON",
                           help="resize the cluster mid-run "
                                "(stateflow only)")
    bench_cmd.add_argument("--pipeline-depth", type=int, default=None,
                           metavar="N",
                           help="epoch-pipeline depth (stateflow only; "
                                "1 = serial batches, default 2)")
    bench_cmd.add_argument("--snapshot-mode", default=None,
                           choices=["full", "incremental"],
                           help="snapshot durability path (stateflow "
                                "only; incremental = dirtied-slot cuts "
                                "+ commit changelog)")
    bench_cmd.add_argument("--changelog", default=None,
                           choices=["on", "off"],
                           help="commit changelog toggle (stateflow "
                                "only; default on in incremental mode)")
    bench_cmd.add_argument("--spawner", default="simulator",
                           choices=["simulator", "process"],
                           help="execution substrate (stateflow only): "
                                "'simulator' = deterministic virtual "
                                "time; 'process' = real worker "
                                "processes on the wall clock")
    bench_cmd.add_argument("--autoscale", action="store_true",
                           help="attach the closed-loop autoscaling "
                                "controller (stateflow only; does not "
                                "compose with --rescale)")
    bench_cmd.add_argument("--durable", default=None, metavar="DIR",
                           help="durability directory (stateflow only): "
                                "snapshots and the commit changelog are "
                                "persisted as files under DIR, and a "
                                "rerun over the same DIR cold-starts "
                                "from them")
    bench_cmd.add_argument("--cell", default="ycsb",
                           choices=["ycsb", "pipeline", "recovery",
                                    "autoscale", "views"],
                           help="'pipeline' sweeps depth 1/2/4 on a "
                                "saturating YCSB-A/zipfian cell and "
                                "writes BENCH_pipeline.json; 'recovery' "
                                "sweeps full-vs-incremental snapshots "
                                "against state size and writes "
                                "BENCH_recovery.json; 'autoscale' "
                                "drives a zipfian rate/skew ramp with "
                                "and without the closed-loop controller "
                                "and writes BENCH_autoscale.json; "
                                "'views' measures incremental view "
                                "maintenance vs full scans at 10k-100k "
                                "keys, plus durable sidecar resume vs "
                                "cold-start rehydration, and writes "
                                "BENCH_views.json")
    bench_cmd.set_defaults(handler=_cmd_bench)

    chaos_cmd = commands.add_parser(
        "chaos", help="deterministic fault-injection runs")
    chaos_sub = chaos_cmd.add_subparsers(dest="chaos_command", required=True)

    plan_cmd = chaos_sub.add_parser(
        "plan", help="generate a reproducible random fault plan")
    plan_cmd.add_argument("--seed", type=int, default=42)
    plan_cmd.add_argument("--duration-ms", type=float, default=3_000.0)
    plan_cmd.add_argument("--workers", type=int, default=5)
    plan_cmd.add_argument("--intensity", default="medium",
                          choices=sorted(INTENSITIES))
    plan_cmd.add_argument("--no-process-faults", action="store_true",
                          help="message-level faults only")
    plan_cmd.add_argument("--coordinator-faults", action="store_true",
                          help="include a coordinator fail-over")
    plan_cmd.add_argument("--rescales", type=int, default=0,
                          help="sprinkle N elastic rescales through the "
                               "schedule (rescale-under-chaos)")
    plan_cmd.add_argument("--torn-snapshots", type=int, default=0,
                          help="tear N incremental snapshot cuts "
                               "(dropped/duplicated delta fragments; "
                               "no-ops on full-mode runs)")
    plan_cmd.add_argument("--out", default=None)
    plan_cmd.set_defaults(handler=_cmd_chaos_plan)

    chaos_run_cmd = chaos_sub.add_parser(
        "run", help="run a workload under a fault plan and verify the "
                    "committed history")
    chaos_run_cmd.add_argument("--plan", default=None, metavar="PLAN_JSON",
                               help="fault plan file (default: "
                                    "random_plan(--seed))")
    chaos_run_cmd.add_argument("--seed", type=int, default=42)
    chaos_run_cmd.add_argument("--system", default="stateflow",
                               choices=["stateflow", "statefun"])
    chaos_run_cmd.add_argument("--workload", default="T",
                               choices=["A", "B", "M", "T"])
    chaos_run_cmd.add_argument("--distribution", default="uniform",
                               choices=["zipfian", "uniform"])
    chaos_run_cmd.add_argument("--rps", type=float, default=120.0)
    chaos_run_cmd.add_argument("--duration-ms", type=float, default=3_000.0)
    chaos_run_cmd.add_argument("--records", type=int, default=50)
    chaos_run_cmd.add_argument("--pipeline-depth", type=int, default=None,
                               metavar="N",
                               help="epoch-pipeline depth (stateflow "
                                    "only; 1 = serial batches)")
    chaos_run_cmd.add_argument("--snapshot-mode", default=None,
                               choices=["full", "incremental"],
                               help="snapshot durability path "
                                    "(stateflow only)")
    chaos_run_cmd.add_argument("--changelog", default=None,
                               choices=["on", "off"],
                               help="commit changelog toggle (stateflow "
                                    "only)")
    chaos_run_cmd.add_argument("--autoscale", action="store_true",
                               help="attach the closed-loop autoscaling "
                                    "controller (stateflow only): its "
                                    "decisions must survive the plan's "
                                    "failures")
    chaos_run_cmd.add_argument("--durable", default=None, metavar="DIR",
                               help="durability directory (stateflow "
                                    "only): persist snapshots + "
                                    "changelog under DIR through the "
                                    "injected failures")
    chaos_run_cmd.set_defaults(handler=_cmd_chaos_run)

    rescale_cmd = commands.add_parser(
        "rescale", help="elastic rescaling with live state migration")
    rescale_sub = rescale_cmd.add_subparsers(dest="rescale_command",
                                             required=True)

    rescale_plan_cmd = rescale_sub.add_parser(
        "plan", help="generate a declarative rescale schedule")
    rescale_plan_cmd.add_argument("--targets", default="4,3",
                                  help="comma-separated worker counts, "
                                       "one rescale per entry")
    rescale_plan_cmd.add_argument("--start-ms", type=float, default=1_000.0)
    rescale_plan_cmd.add_argument("--interval-ms", type=float,
                                  default=1_000.0)
    rescale_plan_cmd.add_argument("--out", default=None)
    rescale_plan_cmd.set_defaults(handler=_cmd_rescale_plan)

    rescale_run_cmd = rescale_sub.add_parser(
        "run", help="run a workload that resizes the cluster mid-stream "
                    "and verify the committed history")
    rescale_run_cmd.add_argument("--plan", default=None,
                                 metavar="PLAN_JSON",
                                 help="rescale plan file (default: "
                                      "--targets spread over the run)")
    rescale_run_cmd.add_argument("--targets", default="4,3",
                                 help="worker counts when no --plan is "
                                      "given")
    rescale_run_cmd.add_argument("--workers", type=int, default=2,
                                 help="starting worker count")
    rescale_run_cmd.add_argument("--seed", type=int, default=42)
    rescale_run_cmd.add_argument("--workload", default="T",
                                 choices=["A", "B", "M", "T"])
    rescale_run_cmd.add_argument("--distribution", default="uniform",
                                 choices=["zipfian", "uniform"])
    rescale_run_cmd.add_argument("--rps", type=float, default=150.0)
    rescale_run_cmd.add_argument("--duration-ms", type=float,
                                 default=4_000.0)
    rescale_run_cmd.add_argument("--records", type=int, default=60)
    rescale_run_cmd.add_argument("--faults", default=None,
                                 metavar="PLAN_JSON",
                                 help="additionally run under a fault "
                                      "plan (rescale under chaos)")
    rescale_run_cmd.add_argument("--pipeline-depth", type=int,
                                 default=None, metavar="N",
                                 help="epoch-pipeline depth "
                                      "(1 = serial batches)")
    rescale_run_cmd.add_argument("--snapshot-mode", default=None,
                                 choices=["full", "incremental"],
                                 help="snapshot durability path")
    rescale_run_cmd.add_argument("--changelog", default=None,
                                 choices=["on", "off"],
                                 help="commit changelog toggle")
    rescale_run_cmd.set_defaults(handler=_cmd_rescale_run)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
