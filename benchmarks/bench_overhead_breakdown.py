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

from repro.bench import format_overhead_table, run_overhead_breakdown


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
