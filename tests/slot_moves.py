"""The lost-update scenario of the process substrate, shared by the
tier-1 two-worker variant (``tests/substrates/test_spawner.py``) and the
slow three-worker one (``tests/integration/test_process_spawner.py``).

Single-key write-backs reach only the owner's child and the parent.  A
slot that then moves must take those writes with it: the next call on a
moved key executes in the *new* owner's child, and whatever that child
holds is what the call returns — and, because every method puts the
entity's state back, what it writes over the authoritative store.
"""

from __future__ import annotations

from repro.bench.harness import process_stateflow_overrides
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.workloads import Account

#: Real-time bound on one rescale (wall ms).
RESCALE_DEADLINE_MS = 30_000.0


def assert_writes_survive_slot_moves(program, *, workers: int,
                                     shrink_to: int) -> None:
    """Shrink ``workers -> shrink_to`` and grow back, with single-key
    writes before and between and transfers across the moved keys: reads
    and ``entity_state`` agree and equal the serial result throughout."""
    runtime = StateflowRuntime(program, config=StateflowConfig(
        **process_stateflow_overrides(workers=workers)))
    try:
        refs = runtime.preload(Account,
                               [(f"acct-{i}", 100) for i in range(30)])
        runtime.start()
        expected = {ref: 100 for ref in refs}

        def deposit_everywhere(amount: int) -> None:
            for ref in refs:
                expected[ref] += amount
                assert runtime.invoke(ref, "deposit", amount).unwrap() \
                    == expected[ref]

        def transfer_around(amount: int) -> None:
            for source, target in zip(refs, refs[7:] + refs[:7]):
                assert runtime.invoke(source, "transfer", amount,
                                      target).unwrap() is True
                expected[source] -= amount
                expected[target] += amount

        def check() -> None:
            for ref in refs:
                assert runtime.invoke(ref, "read").unwrap() == expected[ref]
                assert runtime.entity_state(ref)["balance"] == expected[ref]

        def rescale(count: int) -> None:
            runtime.request_rescale(count)
            assert runtime.sim.run_until(
                lambda: runtime.worker_count == count,
                max_time=runtime.sim.now + RESCALE_DEADLINE_MS)

        deposit_everywhere(5)
        rescale(shrink_to)
        check()
        transfer_around(3)
        deposit_everywhere(7)
        rescale(workers)
        check()
        transfer_around(2)
        deposit_everywhere(11)
        check()
        assert runtime.coordinator.recoveries == 0
    finally:
        runtime.close()
