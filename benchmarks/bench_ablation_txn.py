"""Ablation ABL-TXN — Aria's deterministic reordering optimisation.

StateFlow's protocol is "an extension of Aria" (Section 3).  Aria's
deterministic reordering commits transactions whose only conflicts are
write-after-read; without it every RAW conflict aborts.  We drive a
high-contention transfer workload (hot zipfian keys, small key space)
through the pure protocol logic and compare abort rates, then check the
end-to-end latency effect on the full runtime.
"""

from __future__ import annotations

from conftest import emit

from repro.bench import env_ms, format_table, run_ycsb_cell
from repro.runtimes.stateflow.aria import BatchMember, decide
from repro.workloads.distributions import ZipfianDistribution


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


def run_reordering_ablation():
    results = {}
    for reordering in (True, False):
        aborts = total = 0
        for seed in range(40):
            members = synth_batch(size=24, keys=32, seed=seed)
            report = decide(members, reordering=reordering)
            aborts += report.abort_count
            total += len(members)
        results[reordering] = aborts / total
    return results


def test_ablation_reordering_abort_rate(benchmark):
    results = benchmark.pedantic(run_reordering_ablation, rounds=1,
                                 iterations=1)
    emit("ablation_txn_reordering", "\n".join([
        "ABL-TXN: Aria deterministic reordering (abort rate, hot batch)",
        "-" * 60,
        f"with reordering:    {results[True]:.2%}",
        f"without reordering: {results[False]:.2%}",
    ]))
    assert results[True] < results[False], (
        "reordering must save pure-RAW readers from aborting")


def test_ablation_contention_latency(benchmark):
    """End-to-end: hot keys (64) vs the paper's 1000-key table."""
    duration = env_ms("REPRO_ABL_DURATION_MS", 8_000.0)

    def run_cells():
        hot = run_ycsb_cell("stateflow", "T", "zipfian", rps=400.0,
                            duration_ms=duration, record_count=64,
                            seed=7)
        hot.extra["contention"] = "hot-64-keys"
        cold = run_ycsb_cell("stateflow", "T", "zipfian", rps=400.0,
                             duration_ms=duration, record_count=1000,
                             seed=7)
        cold.extra["contention"] = "paper-1000-keys"
        return [hot, cold]

    rows = benchmark.pedantic(run_cells, rounds=1, iterations=1)
    emit("ablation_txn_contention", format_table(
        rows, "ABL-TXN: contention effect on transactional latency",
        columns=["system", "workload", "contention", "p50_ms", "p99_ms",
                 "txn_aborts", "completed"]))
    hot, cold = rows
    assert hot.extra["txn_aborts"] >= cold.extra["txn_aborts"], (
        "hot keys must produce at least as many aborts")
