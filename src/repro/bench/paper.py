"""The paper's evaluation as one bench cell: ``repro bench --cell paper``.

Each claim of Section 4 that this repository reproduces is one section
of ``BENCH_paper.json``: Figure 3, Figure 4, the three ablations
(ABL-COMM, ABL-TXN, ABL-SPLIT) and the system-overhead breakdown.  A
section carries

- ``claim``: what the paper says, in one line;
- ``clock``: ``"modelled"`` (virtual time, so a rerun of the same seed
  writes the same bytes) or ``"measured"`` (wall clock on this host);
- ``rows`` and ``summary``: the series, and the numbers its gates read;
- ``problems`` (every gate that failed) and ``ok``.

The gates check the shape of each claim, not absolute numbers: the
substrate is a simulator.  The cell exits non-zero when any gate fails.
``seed`` moves the YCSB cells of Figures 3 and 4 and of ABL-COMM;
ABL-TXN keeps the seeds its contention claim was sized at, and the last
two sections draw nothing at random.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from ..compiler.pipeline import CompiledProgram, compile_program
from ..core.refs import EntityRef
from ..runtimes.local import LocalRuntime
from ..runtimes.stateflow.aria import BatchMember, decide
from ..workloads import order_line_refs, sample_dataset
from ..workloads.distributions import ZipfianDistribution
from ..workloads.tpcc import TPCC_ENTITIES
from . import harness
from .harness import ExperimentRow
from .overhead import COMPONENTS, OverheadRow, run_overhead_breakdown

MODELLED = "modelled"
MEASURED = "measured"


def _section(claim: str, clock: str, rows: list[dict[str, Any]],
             summary: dict[str, Any], problems: list[str]) -> dict[str, Any]:
    return {"claim": claim, "clock": clock, "rows": rows,
            "summary": summary, "problems": problems, "ok": not problems}


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


def check_figure3_shape(rows: list[ExperimentRow]) -> list[str]:
    """Figure 3's shape; returns violations.

    Statefun's p99 is roughly equal across workloads and distributions;
    StateFlow beats it on every A/B cell; StateFlow's T bars are its
    highest yet stay below the figure's 200 ms axis."""
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
    flow_t = [r.p99_ms for r in rows
              if r.system == "stateflow" and r.workload == "T"]
    flow_ab = [r.p99_ms for r in rows
               if r.system == "stateflow" and r.workload != "T"]
    if flow_t and flow_ab and not min(flow_t) > max(flow_ab):
        problems.append(
            "StateFlow's transactional T should cost more than its "
            f"single-key A/B: T p99 {min(flow_t):.1f} vs A/B p99 "
            f"{max(flow_ab):.1f}")
    if any(r.system == "statefun" and r.workload == "T" for r in rows):
        problems.append("Statefun must not run workload T")
    return problems


def figure3(seed: int) -> dict[str, Any]:
    rows = [harness.ycsb_row(system, workload, distribution, rps=100.0,
                             duration_ms=20_000.0, seed=seed)
            for system, workload, distribution in FIG3_CELLS]
    return _section(
        "Figure 3: StateFlow's p99 beats Statefun's on YCSB A/B, and its "
        "transactional T stays under 200 ms", MODELLED,
        [row.as_dict() for row in rows],
        {f"{row.system}.{row.workload}.{row.distribution}.p99_ms":
         round(row.p99_ms, 2) for row in rows},
        check_figure3_shape(rows))


# ---------------------------------------------------------------------------
# Figure 4: p50/p99 latency vs input throughput, workload M
# ---------------------------------------------------------------------------

FIG4_RATES: list[float] = [1000, 1500, 2000, 2500, 3000, 3500, 4000]


def check_figure4_shape(rows: list[ExperimentRow]) -> list[str]:
    """Figure 4's shape: Statefun saturates (p99 diverges) before the top
    rate; StateFlow stays far lower."""
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


def figure4(seed: int) -> dict[str, Any]:
    rows = [harness.ycsb_row(system, "M", "zipfian", rps=rate, seed=seed,
                             duration_ms=6_000.0, drain_ms=4_000.0)
            for system in ("statefun", "stateflow") for rate in FIG4_RATES]
    return _section(
        "Figure 4: under workload M Statefun's p99 diverges before "
        "4000 RPS while StateFlow sustains the sweep", MODELLED,
        [row.as_dict() for row in rows],
        {f"{row.system}.{row.rps:.0f}.p99_ms": round(row.p99_ms, 2)
         for row in rows},
        check_figure4_shape(rows))


# ---------------------------------------------------------------------------
# ABL-COMM: direct channels vs Kafka loop-backs
# ---------------------------------------------------------------------------

def abl_comm(seed: int) -> dict[str, Any]:
    """The same StateFlow runtime on workload T with its inter-worker
    channels direct (production) or forced through a Kafka loop-back
    per hop (what a cycle-free dataflow engine must do)."""
    rows = []
    for channel_mode in ("direct", "kafka"):
        row = harness.ycsb_row(
            "stateflow", "T", "zipfian", rps=100.0, duration_ms=10_000.0,
            seed=seed, runtime_overrides={"channel_mode": channel_mode})
        row.extra["channel_mode"] = channel_mode
        rows.append(row)
    direct, kafka = rows
    problems = [] if direct.p99_ms < kafka.p99_ms else [
        f"direct channels must beat per-hop Kafka loop-backs: p99 "
        f"{direct.p99_ms:.1f} vs {kafka.p99_ms:.1f}"]
    return _section(
        "ABL-COMM: function-to-function calls without Kafka round trips "
        "are StateFlow's win (Section 4)", MODELLED,
        [row.as_dict() for row in rows],
        {"direct_p99_ms": round(direct.p99_ms, 2),
         "kafka_p99_ms": round(kafka.p99_ms, 2)},
        problems)


# ---------------------------------------------------------------------------
# ABL-TXN: Aria's deterministic reordering, and key contention
# ---------------------------------------------------------------------------

def synth_batch(size: int, keys: int, seed: int) -> list[BatchMember]:
    """A hot-key batch mixing blind writers with read-only scans.

    Read-only transactions that read under a smaller-TID writer have a
    pure RAW conflict (they never write, so no WAR): Aria's reordering
    commits them by serializing them before the writer, while the
    baseline aborts them.
    """
    dist = ZipfianDistribution(keys, seed=seed)
    members = []
    for tid in range(size):
        first = ("Account", dist.next_index())
        second = ("Account", dist.next_index())
        if tid % 2 == 0:  # blind writer
            members.append(BatchMember(
                tid=tid, read_set=frozenset(),
                write_set=frozenset({first})))
        else:  # read-only scan over two keys
            members.append(BatchMember(
                tid=tid, read_set=frozenset({first, second}),
                write_set=frozenset()))
    return members


def abort_rate(reordering: bool) -> float:
    """The abort rate of 40 hot batches (24 members over 32 keys)."""
    aborts = total = 0
    for seed in range(40):
        members = synth_batch(size=24, keys=32, seed=seed)
        aborts += decide(members, reordering=reordering).abort_count
        total += len(members)
    return aborts / total


def abl_txn() -> dict[str, Any]:
    """Aria's reordering on the protocol logic alone, then the full
    runtime on 64 hot keys against the paper's 1000-key table (both at
    seed 7, where the contention claim was sized)."""
    with_reordering, without = abort_rate(True), abort_rate(False)
    rows: list[dict[str, Any]] = [
        {"reordering": True, "abort_rate": round(with_reordering, 4)},
        {"reordering": False, "abort_rate": round(without, 4)}]
    hot = harness.ycsb_row("stateflow", "T", "zipfian", rps=400.0,
                           duration_ms=8_000.0, record_count=64, seed=7)
    hot.extra["contention"] = "hot-64-keys"
    cold = harness.ycsb_row("stateflow", "T", "zipfian", rps=400.0,
                            duration_ms=8_000.0, record_count=1000, seed=7)
    cold.extra["contention"] = "paper-1000-keys"
    rows += [hot.as_dict(), cold.as_dict()]
    problems = []
    if not with_reordering < without:
        problems.append(
            f"reordering must save pure-RAW readers from aborting: abort "
            f"rate {with_reordering:.2%} with, {without:.2%} without")
    if not hot.extra["txn_aborts"] >= cold.extra["txn_aborts"]:
        problems.append(
            f"hot keys must produce at least as many aborts: "
            f"{hot.extra['txn_aborts']} vs {cold.extra['txn_aborts']}")
    return _section(
        "ABL-TXN: Aria's deterministic reordering commits pure-RAW "
        "readers, and hot keys abort more (Section 3)", MODELLED, rows,
        {"abort_rate_reordering": round(with_reordering, 4),
         "abort_rate_no_reordering": round(without, 4),
         "hot_aborts": hot.extra["txn_aborts"],
         "cold_aborts": cold.extra["txn_aborts"]},
        problems)


# ---------------------------------------------------------------------------
# ABL-SPLIT: splitting granularity
# ---------------------------------------------------------------------------

#: NewOrder's local latency must stay sub-10 ms split lazily and
#: sub-20 ms split at every control-flow structure.
LAZY_US_BOUND = 10_000.0
EAGER_US_BOUND = 20_000.0


def _block_counts(program: CompiledProgram) -> dict[str, int]:
    return {f"{name}.{method}": len(compiled_method.machine.nodes)
            for name, compiled in program.entities.items()
            for method, compiled_method in compiled.methods.items()}


def _new_order_us(program: CompiledProgram, rounds: int = 300) -> float:
    runtime = LocalRuntime(program, check_state_serializable=False)
    for entity_name, dataset in sample_dataset().items():
        for args in dataset:
            runtime.create(entity_name, *args)
    customer = EntityRef("Customer", "wh-0:d-0:c-0")
    district = EntityRef("District", "wh-0:d-0")
    lines = order_line_refs("wh-0", [1, 2, 3])
    started = time.perf_counter()
    for _ in range(rounds):
        runtime.call(customer, "new_order", district, lines, [1, 1, 1])
    return (time.perf_counter() - started) / rounds * 1e6


def abl_split() -> dict[str, Any]:
    """Splitting only control flow that holds a remote call (this
    compiler) against splitting at every control-flow structure (the
    paper's literal rule): blocks per TPC-C method, and NewOrder's
    latency on the Local runtime."""
    lazy_program, eager_program = (
        compile_program(TPCC_ENTITIES, split_all_control_flow=split_all)
        for split_all in (False, True))
    lazy, eager = _block_counts(lazy_program), _block_counts(eager_program)
    lazy_us = _new_order_us(lazy_program)
    eager_us = _new_order_us(eager_program)
    summary = {"lazy_blocks": sum(lazy.values()),
               "eager_blocks": sum(eager.values()),
               "lazy_us": round(lazy_us, 1), "eager_us": round(eager_us, 1)}
    problems = []
    if not summary["eager_blocks"] > summary["lazy_blocks"]:
        problems.append(
            f"splitting at every control-flow structure must make more "
            f"blocks: {summary['eager_blocks']} vs {summary['lazy_blocks']}")
    if not lazy_us < LAZY_US_BOUND:
        problems.append(f"lazy NewOrder took {lazy_us:.0f} us, over "
                        f"{LAZY_US_BOUND:.0f}")
    if not eager_us < EAGER_US_BOUND:
        problems.append(f"eager NewOrder took {eager_us:.0f} us, over "
                        f"{EAGER_US_BOUND:.0f}")
    return _section(
        "ABL-SPLIT: split \"when a remote call occurs or on a control-flow "
        "structure\" (Section 2.4), here only where it matters", MEASURED,
        [{"method": name, "lazy_blocks": lazy[name],
          "eager_blocks": eager[name]} for name in sorted(lazy)],
        summary, problems)


# ---------------------------------------------------------------------------
# System overhead: the runtime component breakdown
# ---------------------------------------------------------------------------

#: "function splitting/instrumentation is only responsible for less than
#: 1% of the total overhead" (Section 4).
SPLIT_SHARE_BOUND = 0.01


def _share(row: OverheadRow, component: str) -> float | None:
    share = row.share(component)
    return None if share is None else round(share, 5)


def overhead() -> dict[str, Any]:
    """The split share stays under 1 % at every state size, and
    serialisation time grows with the state (the setup's sanity)."""
    rows = run_overhead_breakdown([50, 100, 150, 200], operations=300)
    problems = []
    for row in rows:
        share = row.split_share
        if share is None or not share < SPLIT_SHARE_BOUND:
            problems.append(
                f"split instrumentation should be <1% of total at "
                f"{row.state_kb} kB; got {share}")
    serde = [row.component_ms.get("state_serde") for row in rows]
    if None in serde or serde != sorted(serde):
        problems.append(f"state serde time should grow with the state "
                        f"size; got {serde} ms")
    return _section(
        "System overhead: function splitting is under 1 % of the runtime's "
        "cost at 50-200 kB of state (Section 4)", MEASURED,
        [{"state_kb": row.state_kb, "operations": row.operations,
          "total_ms": round(row.total_ms, 3),
          **{f"{component}_share": _share(row, component)
             for component in COMPONENTS}}
         for row in rows],
        {f"split_share.{row.state_kb}kb":
         _share(row, "split_instrumentation") for row in rows},
        problems)


#: The cell's sections, in the order they run: name -> runner(seed).
SECTIONS: dict[str, Callable[[int], dict[str, Any]]] = {
    "figure3": figure3,
    "figure4": figure4,
    "abl_comm": abl_comm,
    "abl_txn": lambda seed: abl_txn(),
    "abl_split": lambda seed: abl_split(),
    "overhead": lambda seed: overhead(),
}


def run_paper_cell(*, seed: int = 42) -> dict[str, Any]:
    """Every section, as the ``BENCH_paper.json`` payload."""
    sections = {name: run(seed) for name, run in SECTIONS.items()}
    return {"cell": "paper", "seed": seed, "sections": sections,
            "ok": all(section["ok"] for section in sections.values()),
            "wall_clock": [f"sections.{name}" for name, section in
                           sections.items() if section["clock"] == MEASURED]}


def summarize(artifact: dict[str, Any]) -> str:
    title = "the paper's evaluation: figures 3-4, ablations, overhead"
    lines = [title, "-" * len(title)]
    for name, section in artifact["sections"].items():
        verdict = "holds" if section["ok"] else "FAILS"
        lines.append(f"{name:<10} {section['clock']:<9} {verdict}")
        lines += [f"    {key}: {value}"
                  for key, value in section["summary"].items()]
        lines += [f"    problem: {problem}" for problem in section["problems"]]
    return "\n".join(lines)
