"""Command-line interface: ``python -m repro <command>``; ``--help`` on
any command lists its flags.

``bench`` and ``chaos run`` each run one cell and persist its artifact
as ``BENCH_<cell>.json`` in the working directory (override with
``$REPRO_BENCH_DIR``), recording the command that wrote it
(:func:`recorded_command`).  Their runtime and load flags are declared
once (:data:`RUNTIME_FLAGS`).  A fault plan, resizes included, runs
through ``chaos run`` only.  Which ``bench`` cell accepts which system,
spawner and flag is one table
(:data:`BENCH_CELLS`): every rejection is generated from it, and every
flag it accepts reaches the cell's function as a keyword.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .compiler.pipeline import compile_program
from .core.entity import is_entity_class
from .core.refs import EntityRef
from .faults import INTENSITIES, FaultPlan, random_plan
from .ir.dot import dataflow_to_dot, machine_to_dot
from .ir.serde import dataflow_from_json, dataflow_to_json
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


def _cmd_run(args: argparse.Namespace) -> int:
    classes = _load_module_entities(args.module)
    runtime = LocalRuntime(compile_program(classes), fault_plan=args.faults)
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


def _positive(kind: type) -> Callable[[str], Any]:
    """An argparse type: input from outside the program is checked at the
    parser, which exits with status 2 on a bad value."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected a {kind.__name__}, got {text!r}")
        if not (value > 0 and math.isfinite(value)):
            raise argparse.ArgumentTypeError(
                f"must be a positive number, got {text}")
        return value
    return parse


positive_int = _positive(int)
positive_float = _positive(float)


def _plan_file(path: str) -> FaultPlan:
    try:
        return FaultPlan.from_json(Path(path))
    except (OSError, ValueError) as error:
        raise argparse.ArgumentTypeError(f"cannot load {path}: {error}")


def _worker_counts(text: str) -> list[int]:
    """An argparse type: comma-separated positive worker counts."""
    try:
        counts = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated worker counts, got {text!r}")
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"needs positive worker counts, got {text!r}")
    return counts


# ---------------------------------------------------------------------------
# the runtime and load flags, declared once
# ---------------------------------------------------------------------------

#: Every runtime and load flag: dest -> (flag, ``add_argument`` keywords).
#: A flag that sets a ``build_runtime`` override has that override's name
#: as its dest.  ``bench`` takes all but the deployment ones
#: (:data:`CHAOS_ONLY`), ``chaos run`` the ones it honours; both leave
#: the load defaults to the cell's function.
RUNTIME_FLAGS: dict[str, tuple[str, dict[str, Any]]] = {
    "system": ("--system", dict(default="stateflow",
                                choices=["stateflow", "statefun"])),
    "workload": ("--workload", dict(choices=["A", "B", "M", "T"])),
    "distribution": ("--distribution",
                     dict(choices=["zipfian", "uniform"])),
    "rps": ("--rps", dict(type=positive_float, default=None)),
    "duration_ms": ("--duration-ms",
                    dict(type=positive_float, default=None)),
    "records": ("--records", dict(type=positive_int, default=None)),
    "seed": ("--seed", dict(type=int, default=42)),
    "workers": ("--workers", dict(type=positive_int, default=5,
                                  help="StateFlow workers at the start")),
    "targets": ("--targets", dict(
        type=_worker_counts, default=None, metavar="N1,N2,...",
        help="resize to each worker count in turn, spread over the run "
             "ahead of the plan's events")),
    "pipeline_depth": ("--pipeline-depth", dict(
        type=positive_int, default=None, metavar="N",
        help="epoch-pipeline depth; 1 = serial batches (default 2)")),
    "spawner": ("--spawner", dict(
        default="simulator", choices=["simulator", "process"],
        help="'process' = real worker processes on the wall clock")),
    "autoscale": ("--autoscale", dict(
        action="store_true", default=False,
        help="attach the closed-loop autoscaling controller")),
    "durability_dir": ("--durable", dict(
        default=None, metavar="DIR",
        help="persist snapshots and the changelog under DIR; a rerun over "
             "DIR cold-starts from them")),
}

#: Flags only StateFlow can honour (StateFun has no coordinator, no
#: snapshots and a fixed deployment).
STATEFLOW_ONLY = ("pipeline_depth", "autoscale", "durability_dir", "workers",
                  "targets")
#: The deployment flags only ``chaos run`` takes: a bench cell owns its
#: deployment.
CHAOS_ONLY = ("workers", "targets")


def _flag(dest: str) -> str:
    return RUNTIME_FLAGS[dest][0]


def _add_flags(parser: argparse.ArgumentParser, *dests: str) -> None:
    """Add the flags *dests*, remembering their defaults for
    :func:`_given`."""
    for dest in dests:
        flag, spec = RUNTIME_FLAGS[dest]
        parser.add_argument(flag, dest=dest, **spec)
    parser.set_defaults(flag_defaults={
        dest: parser.get_default(dest) for dest in dests})


def _given(args: argparse.Namespace) -> dict[str, Any]:
    """The runtime flags set away from the command's default, by dest."""
    return {dest: getattr(args, dest)
            for dest, default in args.flag_defaults.items()
            if getattr(args, dest) != default}


def _require_stateflow(command: str, args: argparse.Namespace) -> None:
    if getattr(args, "system", "stateflow") == "stateflow":
        return
    for dest in _given(args):
        if dest in STATEFLOW_ONLY:
            raise SystemExit(f"repro {command}: error: {_flag(dest)} "
                             f"requires --system stateflow")


# ---------------------------------------------------------------------------
# repro bench: one table of cells
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchCell:
    """One ``repro bench --cell NAME``: the module
    ``repro.bench.<module>`` that holds its two functions,
    ``run_<NAME>_cell(**flags) -> artifact`` and ``summarize(artifact)
    -> str``; the systems and spawners it runs on; and the flags (dests)
    it refuses because it owns or cannot honour them.  Every other flag
    given reaches ``run_<NAME>_cell`` as a keyword."""

    module: str
    systems: tuple[str, ...] = ("stateflow",)
    spawners: tuple[str, ...] = ("simulator",)
    refuses: tuple[str, ...] = ()
    why: str = ""


#: Flags only the ycsb cell honours: every sweep owns its deployment.
_YCSB_ONLY = ("pipeline_depth", "autoscale", "durability_dir")

#: The load flags a cell that fixes its own load refuses.
_LOAD = ("rps", "duration_ms", "records")

#: The workload flags a cell that picks its own workload refuses.
_WORKLOAD = ("workload", "distribution")

BENCH_CELLS: dict[str, BenchCell] = {
    "ycsb": BenchCell("harness", systems=("stateflow", "statefun"),
                      spawners=("simulator", "process")),
    "paper": BenchCell(
        "paper", refuses=_WORKLOAD + _LOAD + _YCSB_ONLY,
        why="runs each figure and ablation at the paper's sizes and runs "
            "both systems itself (use --cell ycsb for one cell)"),
    "pipeline": BenchCell(
        "pipeline", spawners=("simulator", "process"),
        refuses=_YCSB_ONLY,
        why="sweeps depths 1/2/4 on one fixed, fault-free, in-memory "
            "deployment (use `repro chaos run --pipeline-depth`)"),
    "recovery": BenchCell(
        "recovery", refuses=_WORKLOAD + _YCSB_ONLY,
        why="sweeps two base cadences in canonical configurations, "
            "injects its own fail-over and owns its durability directory"),
    "autoscale": BenchCell(
        "autoscale", refuses=_WORKLOAD + _LOAD + _YCSB_ONLY,
        why="drives one fixed ramp in canonical configurations and owns "
            "its scaling authority (use `repro chaos run --autoscale` for "
            "the controller under chaos)"),
    "views": BenchCell(
        "views", refuses=_WORKLOAD + _YCSB_ONLY,
        why="measures a clean run in canonical configurations (default "
            "snapshots and pipeline) and owns its durable leg; tests/ "
            "cover views under chaos and rescale"),
}


def _spawner_matrix() -> str:
    runs = [f"--spawner {spawner} runs --cell "
            + "/".join(name for name, cell in BENCH_CELLS.items()
                       if spawner in cell.spawners)
            for spawner in ("simulator", "process")]
    return ("valid combinations: " + "; ".join(runs)
            + "; --spawner process needs --system stateflow")


#: The supported cell/spawner matrix, spelled out in every spawner
#: rejection so an invalid invocation tells the user what would work.
SPAWNER_MATRIX = _spawner_matrix()


def _cmd_bench(args: argparse.Namespace) -> int:
    """Refuse every flag the cell cannot honour, before any runtime is
    built; then run it with the flags given, print its summary, write its
    artifact and exit on its ``ok``."""
    cell = BENCH_CELLS[args.cell]
    error = f"repro bench: error: --cell {args.cell}"
    if args.spawner not in cell.spawners:
        raise SystemExit(f"{error} is {'/'.join(cell.spawners)}-only (it "
                         f"measures virtual-time behaviour); "
                         f"{SPAWNER_MATRIX}")
    if args.spawner == "process" and args.system != "stateflow":
        raise SystemExit("repro bench: error: --spawner process requires "
                         f"--system stateflow; {SPAWNER_MATRIX}")
    if args.system not in cell.systems:
        raise SystemExit(f"{error} runs on --system "
                         f"{'/'.join(cell.systems)} only")
    _require_stateflow("bench", args)
    refused = [_flag(dest) for dest in _given(args) if dest in cell.refuses]
    if refused:
        raise SystemExit(f"{error} {cell.why}; drop {', '.join(refused)}")
    return _run_cell(args, args.cell, cell.module, _given(args))


#: Flags whose value is a path, and the metavar a recorded command
#: writes in its place (a path names one host's files, not the run);
#: ``bench`` and ``chaos run`` take no flag prefix, so none is missed.
PATH_METAVARS = {"--plan": "PLAN_JSON", _flag("durability_dir"): "DIR"}


def recorded_command(argv: list[str]) -> str:
    """*argv* as an artifact records it: ``repro`` and the arguments as
    given, with each path value written as its flag's metavar
    (:data:`PATH_METAVARS`), so one command writes one set of bytes
    wherever it runs."""
    words = ["repro"]
    for word in argv:
        flag, equals, _ = word.partition("=")
        words.append(f"{flag}={PATH_METAVARS[flag]}"
                     if equals and flag in PATH_METAVARS
                     else PATH_METAVARS.get(words[-1], word))
    return shlex.join(words)


def _run_cell(args: argparse.Namespace, cell: str, module: str,
              flags: dict[str, Any]) -> int:
    """Run ``repro.bench.<module>.run_<cell>_cell(**flags)``, print its
    summary, write its artifact and exit on its ``ok``."""
    from .bench import write_bench_artifact

    runner = importlib.import_module(f".bench.{module}", __package__)
    artifact = getattr(runner, f"run_{cell}_cell")(**flags)
    print(runner.summarize(artifact))
    print(f"wrote {write_bench_artifact(cell, artifact, args.command_line)}")
    return 0 if artifact["ok"] else 1


# ---------------------------------------------------------------------------
# repro chaos
# ---------------------------------------------------------------------------

def _cmd_chaos_plan(args: argparse.Namespace) -> int:
    plan = random_plan(args.seed, duration_ms=args.duration_ms,
                       workers=args.workers, intensity=args.intensity,
                       process_faults=not args.no_process_faults,
                       coordinator_faults=args.coordinator_faults,
                       rescales=args.rescales)
    if args.out:
        plan.to_json(Path(args.out))
        print(f"wrote plan {plan.name!r} ({len(plan.events)} events) "
              f"to {args.out}")
    else:
        print(plan.to_json())
    return 0


def _cmd_chaos_run(args: argparse.Namespace) -> int:
    _require_stateflow("chaos run", args)
    resizes = args.targets or (args.plan is not None and any(
        event.kind == "rescale" for event in args.plan.events))
    if args.autoscale and resizes:
        raise SystemExit("repro chaos run: error: --autoscale does not "
                         "compose with resizes from --targets or the plan's "
                         "rescale events (both would drive the same rescale "
                         "barrier); pick one scaling authority")
    return _run_cell(args, "chaos", "chaos",
                     {**_given(args), "plan": args.plan})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stateful entities -> distributed dataflows compiler")
    commands = parser.add_subparsers(dest="command", required=True)

    compile_cmd = commands.add_parser(
        "compile", help="compile a module's @entity classes to IR")
    compile_cmd.add_argument("module")
    compile_cmd.add_argument("--out")
    compile_cmd.set_defaults(handler=_cmd_compile)

    describe_cmd = commands.add_parser(
        "describe", help="summarise a serialized IR file")
    describe_cmd.add_argument("ir")
    describe_cmd.set_defaults(handler=_cmd_describe)

    dot_cmd = commands.add_parser(
        "dot", help="emit Graphviz DOT for a dataflow or state machine")
    dot_cmd.add_argument("ir")
    dot_cmd.add_argument("--method",
                         help="Entity.method for a state-machine graph")
    dot_cmd.set_defaults(handler=_cmd_dot)

    run_cmd = commands.add_parser(
        "run", help="invoke a method on the Local runtime (debugging aid)")
    for positional in ("module", "entity", "method", "key"):
        run_cmd.add_argument(positional)
    run_cmd.add_argument("args", nargs="*")
    run_cmd.add_argument("--faults", type=_plan_file,
                         metavar="PLAN_JSON", help="fault plan (Local "
                         "applies its message-reordering subset)")
    run_cmd.set_defaults(handler=_cmd_run)

    bench_cmd = commands.add_parser(
        "bench", help="run one benchmark cell and write BENCH_<cell>.json",
        allow_abbrev=False)
    _add_flags(bench_cmd, *(dest for dest in RUNTIME_FLAGS
                            if dest not in CHAOS_ONLY))
    bench_cmd.add_argument("--cell", default="ycsb", choices=list(BENCH_CELLS),
                           help="ycsb (default; load flags default to YCSB "
                                "A/zipfian, 100 rps / 2000 ms / 100 "
                                "records), or a sweep "
                                "with its own gates: paper (figures 3-4, "
                                "the ablations and the overhead breakdown, "
                                "into BENCH_paper.json), pipeline (depth "
                                "1/2/4), "
                                "recovery (every cut a base vs position "
                                "cuts), "
                                "autoscale (a zipfian ramp with and without "
                                "the controller), views (incremental views "
                                "vs full scans)")
    bench_cmd.set_defaults(handler=_cmd_bench)

    chaos_cmd = commands.add_parser(
        "chaos", help="deterministic fault-injection runs")
    chaos_sub = chaos_cmd.add_subparsers(dest="chaos_command", required=True)

    plan_cmd = chaos_sub.add_parser(
        "plan", help="generate a reproducible random fault plan")
    plan_cmd.add_argument("--seed", type=int, default=42)
    plan_cmd.add_argument("--duration-ms", type=positive_float,
                          default=3_000.0)
    plan_cmd.add_argument("--workers", type=positive_int, default=5)
    plan_cmd.add_argument("--intensity", default="medium",
                          choices=sorted(INTENSITIES))
    plan_cmd.add_argument("--no-process-faults", action="store_true",
                          help="message-level faults only")
    plan_cmd.add_argument("--coordinator-faults", action="store_true",
                          help="include a coordinator fail-over")
    plan_cmd.add_argument("--rescales", type=int, default=0,
                          help="sprinkle N elastic rescales through the "
                               "schedule")
    plan_cmd.add_argument("--out")
    plan_cmd.set_defaults(handler=_cmd_chaos_plan)

    chaos_run_cmd = chaos_sub.add_parser(
        "run", help="run a workload under a fault plan, resizes included, "
                    "and verify the committed history", allow_abbrev=False)
    chaos_run_cmd.add_argument("--plan", type=_plan_file,
                               metavar="PLAN_JSON", help="fault plan "
                               "(default: random_plan(--seed) unless "
                               "--targets is given)")
    _add_flags(chaos_run_cmd, "system", "workload", "distribution", "rps",
               "duration_ms", "records", "seed", "workers", "targets",
               "pipeline_depth", "autoscale", "durability_dir")
    chaos_run_cmd.set_defaults(handler=_cmd_chaos_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    args.command_line = recorded_command(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
