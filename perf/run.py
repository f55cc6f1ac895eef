"""The perf ledger's one command.

Two ways to call it, both from the repository root:

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload (what ``BENCHMARK.json`` declares).  With
    ``--trace 0`` it repeats fresh-interpreter reps for about ``S``
    seconds and prints every end-to-end metric; with ``--trace 1`` it
    runs one untraced and one traced rep plus the per-layer probes and
    prints every per-layer metric.  The last line of standard output is
    one JSON object ``{correct, attempted, failed, metrics}``.

``python3 perf/run.py --seed 42 --out perf/out/latest.json [--runs N]``
    A whole set: every workload at seeds ``42 .. 42+N-1``, round-robin
    across workloads so host drift hits all alike, then one traced run
    per workload; prints every metric as ``workload metric value unit``
    and writes the set for ``compare.py``.

Exit status is non-zero when any correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any

from stats import quartiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = 1
#: Reps of an untraced run: at least this many, then as many as fit.
MIN_REPS = 3
#: ``-1`` stands for "not defined on this workload, or the entry point
#: is gone" wherever the contract wants a number.
UNDEFINED = -1.0


def declaration() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _child(script: str, *args: str) -> dict[str, Any]:
    """Run one of the ledger's scripts in a fresh interpreter and parse
    the JSON object it prints last."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        env=env, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} failed:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_rep(workload: str, seed: int, out_dir: str, *, traced: bool,
            smoke: bool) -> dict[str, Any]:
    args = ["--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
    return _child("rep.py", *args, *(["--trace"] if traced else []),
                  *(["--smoke"] if smoke else []))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def measure_end_to_end(workload: str, seed: int, seconds: float,
                       out_dir: str, smoke: bool,
                       declared: list[dict[str, Any]]) -> dict[str, Any]:
    reps: list[dict[str, Any]] = []
    started = time.perf_counter()
    minimum = 2 if smoke else MIN_REPS
    while True:
        elapsed = time.perf_counter() - started
        if len(reps) >= minimum and (
                smoke or elapsed + elapsed / len(reps) > seconds):
            break
        reps.append(run_rep(workload, seed, out_dir, traced=False,
                            smoke=smoke))
    problems = [p for rep in reps for p in rep["problems"]]
    failed = sum(rep["failed"] for rep in reps)
    simulated = workload.startswith("sim-")
    if simulated and len({rep["digest"] for rep in reps}) > 1:
        problems.append("reply digest differs between reps of one seed")
        failed += 1
    # A median over reps for every metric: virtual-clock latencies are
    # the same in every rep, and on proc-transfer one rep in a slow
    # phase of the host cannot drag a median the way it drags the tail
    # of pooled samples (p95 spread 27 % pooled, 19 % as a median).
    metrics = {metric["name"]: statistics.median(rep[metric["name"]]
                                                 for rep in reps)
               for metric in declared}
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "correct": not problems, "problems": problems,
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": failed,
        "metrics": metrics,
        "digest": reps[0]["digest"] if simulated else None,
        "reps": reps,
    }


def run_probes(out_dir: str, smoke: bool) -> dict[str, Any]:
    return _child("probes.py", "--out-dir", out_dir,
                  *(["--smoke"] if smoke else []))


def measure_per_layer(workload: str, seed: int, out_dir: str, smoke: bool,
                      probes: dict[str, Any],
                      declared: list[dict[str, Any]],
                      plain: dict[str, Any] | None = None) -> dict[str, Any]:
    """One untraced rep (counts, and the base of the tracing overhead),
    one traced rep, and the probes' values.  Neither the probes nor an
    untraced rep of the same seed depend on this call, so a set hands
    in the ones it already has."""
    if plain is None:
        plain = run_rep(workload, seed, out_dir, traced=False, smoke=smoke)
    traced = run_rep(workload, seed, out_dir, traced=True, smoke=smoke)
    trace = traced["trace"]
    values: dict[str, float | None] = dict(probes["values"])
    values.update(plain["counts"])
    for metric in declared:
        # A declared trace pair of a layer that saw no call is 0, not
        # undefined.
        layer, _, kind = metric["name"].rpartition(".")
        if kind in ("self_us_per_txn", "calls_per_txn"):
            values[metric["name"]] = trace["layers"].get(layer, {}).get(
                kind, 0.0)
    values["coordinator.self_us_per_batch"] = (
        values["coordinator.self_us_per_txn"]
        * (values["coordinator.txn_per_batch"] or 0.0))
    copies = trace["operations"].get("state.deepcopy", {})
    values["state.deepcopy_calls_per_txn"] = copies.get("calls_per_txn", 0.0)
    values["state.deepcopy_us_per_txn"] = copies.get("self_us_per_txn", 0.0)
    values["wallclock.polls_per_txn"] = trace["operations"].get(
        "wallclock.wait", {}).get("calls_per_txn", 0.0)
    values["procworker.replica_bytes_frac"] = traced["counts"].get(
        "procworker.replica_bytes_frac")
    values["trace.coverage"] = trace["coverage"]
    values["trace.overhead_frac"] = traced["txn_us"] / plain["txn_us"] - 1.0
    problems = plain["problems"] + traced["problems"]
    failed = plain["failed"] + traced["failed"]
    if workload.startswith("sim-") and plain["digest"] != traced["digest"]:
        problems.append("tracing changed the reply digest")
        failed += 1
    unavailable = dict(probes["unavailable"])
    unavailable.update(plain["unavailable"])
    unavailable.update(trace["missing"])
    return {
        "workload": workload, "seed": seed, "trace": 1,
        "correct": not problems, "problems": problems,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": failed,
        # Exactly the declared names; None = not defined on this
        # workload, or its entry point is gone (see "unavailable").
        "metrics": {metric["name"]: values.get(metric["name"])
                    for metric in declared},
        "unavailable": unavailable,
        "operations": trace["operations"],
        "calib_s": [plain["calib_s"], traced["calib_s"], probes["calib_s"]],
    }


def contract_result(record: dict[str, Any],
                    declared: list[dict[str, Any]]) -> dict[str, Any]:
    """The one JSON object the benchmark contract asks for: exactly the
    declared metrics, each a number."""
    metrics = {}
    for metric in declared:
        value = record["metrics"].get(metric["name"])
        metrics[metric["name"]] = {
            "value": UNDEFINED if value is None else value,
            "unit": metric["unit"]}
    return {"correct": record["correct"],
            "attempted": max(record["attempted"], 1),
            "failed": record["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

def print_record(record: dict[str, Any],
                 units: dict[str, str]) -> None:
    workload = record["workload"]
    modelled = workload.startswith("sim-")
    for name, value in record["metrics"].items():
        unit = units.get(name, "")
        if value is None:
            reason = "not defined here or entry point gone"
            print(f"{workload} {name} null {unit}  # {reason}")
            continue
        note = ""
        if record["trace"] == 0 and name in ("txn_us", "setup_s",
                                             "peak_rss_mb"):
            reps = [rep[name] for rep in record["reps"]]
            q1, _, q3 = quartiles(reps)
            note = f"  # q1 {q1:.6g} q3 {q3:.6g} reps {len(reps)}"
            if name == "txn_us":
                wall = statistics.median(
                    rep["load_wall_s"] * 1e6 / max(rep["txns"], 1)
                    for rep in record["reps"])
                calib = statistics.median(rep["calib_s"]
                                          for rep in record["reps"])
                note += f" raw-wall {wall:.6g} calib_s {calib:.4g}"
        elif name.startswith("lat_"):
            note = ("  # modelled: virtual clock" if modelled
                    else "  # real clock, scaled to the reference host")
        elif name == "coordinator.stall_ms" and modelled:
            note = "  # modelled: virtual clock"
        print(f"{workload} {name} {value:.6g} {unit}{note}")
    for problem in record["problems"]:
        print(f"{workload} PROBLEM {problem}")


def fingerprint(records: list[dict[str, Any]]) -> dict[str, Any]:
    calibs = [c for record in records
              for c in ([rep["calib_s"] for rep in record["reps"]]
                        if record["trace"] == 0 else record["calib_s"])]
    q1, median, q3 = quartiles(calibs)
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"schema": SCHEMA, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "git_sha": sha,
            "calib_s_median": median, "calib_s_spread": (q3 - q1) / median,
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (contract mode); "
                        "omit to run the whole set")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="set mode: seeds per workload")
    parser.add_argument("--out", help="set mode: where to write the set")
    parser.add_argument("--scratch", default=os.path.join(HERE, "out"),
                        help="directory for trace files and temporary "
                        "durability directories (default perf/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, 2 reps: checks the plumbing only")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perf/run.py: no src/repro beside perf/ - nothing to "
              "measure", file=sys.stderr)
        return 2
    declared = declaration()
    names = [workload["name"] for workload in declared["workloads"]]
    units = {metric["name"]: metric["unit"]
             for metric in declared["end_to_end"] + declared["per_layer"]}
    seconds = args.seconds or declared["run_seconds"]
    out_dir = os.path.abspath(args.scratch)
    os.makedirs(out_dir, exist_ok=True)

    if args.workload:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {names}")
        if args.trace:
            wanted = declared["per_layer"]
            record = measure_per_layer(
                args.workload, args.seed, out_dir, args.smoke,
                run_probes(out_dir, args.smoke), wanted)
        else:
            wanted = declared["end_to_end"]
            record = measure_end_to_end(args.workload, args.seed, seconds,
                                        out_dir, args.smoke, wanted)
        print_record(record, units)
        print(json.dumps(contract_result(record, wanted)))
        return 0 if record["correct"] else 1

    records = []
    for seed in range(args.seed, args.seed + args.runs):
        for name in names:
            records.append(measure_end_to_end(
                name, seed, seconds, out_dir, args.smoke,
                declared["end_to_end"]))
            print_record(records[-1], units)
    probes = run_probes(out_dir, args.smoke)
    for first in records[:len(names)]:
        records.append(measure_per_layer(
            first["workload"], args.seed, out_dir, args.smoke, probes,
            declared["per_layer"], plain=first["reps"][0]))
        print_record(records[-1], units)
    host = fingerprint(records)
    if host["calib_s_spread"] > 0.10:
        print(f"WARNING calib_s spread {host['calib_s_spread']:.1%} exceeds "
              f"10 %: the host moved during this set", file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": host, "seconds": seconds,
                       "smoke": args.smoke, "runs": records}, handle,
                      indent=1)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
