"""Section 4 "System overhead" — runtime component breakdown.

Synthetic workload with entity state from 50 to 200 kB; for each event we
measure the duration of runtime components (object construction, function
execution, state serialisation, state storage, and the function-splitting
/ state-machine instrumentation).  The paper's claim under reproduction:
"function splitting/instrumentation is only responsible for less than 1%
of the total overhead."
"""

from __future__ import annotations

from conftest import emit

from repro.bench import (
    format_overhead_table,
    format_snapshot_table,
    run_overhead_breakdown,
    run_snapshot_overhead,
    snapshot_speedups,
)


def test_snapshot_overhead(benchmark):
    """No backend deep-copies committed state at a snapshot.  The dict
    backend's cut is a pointer copy of its map (one reference per key);
    the copy-on-write backend's is a head freeze, independent of the key
    count — still at least 5x cheaper at >= 10k keys."""
    rows = benchmark.pedantic(
        run_snapshot_overhead,
        kwargs={"key_counts": [1_000, 10_000, 20_000]},
        rounds=1, iterations=1)
    emit("snapshot_overhead", format_snapshot_table(rows))
    speedups = snapshot_speedups(rows)
    assert {10_000, 20_000} <= set(speedups), (
        f"speedup cells missing for the large key counts: {speedups}")
    for keys, speedup in speedups.items():
        if keys >= 10_000:
            assert speedup >= 5.0, (
                f"cow snapshot should be >= 5x cheaper than dict at "
                f"{keys} keys; got {speedup:.1f}x")


def test_overhead_breakdown(benchmark):
    rows = benchmark.pedantic(
        run_overhead_breakdown,
        kwargs={"state_kbs": [50, 100, 150, 200], "operations": 300},
        rounds=1, iterations=1)
    emit("overhead_breakdown", format_overhead_table(rows))
    # The wall-clock <1% claim lives here, in the benchmark tier, where
    # timing ratios belong; tier 1 asserts the counted-operation
    # structure instead.  share() is None only for unmeasured
    # components — a real run measures all of them.
    for row in rows:
        assert row.split_share is not None
        assert row.split_share < 0.01, (
            f"split instrumentation should be <1% of total at "
            f"{row.state_kb} kB; got {row.split_share:.2%}")
    # Serialisation cost must grow with state size (sanity of the setup).
    serde = [row.component_ms["state_serde"] for row in rows]
    assert serde == sorted(serde)
