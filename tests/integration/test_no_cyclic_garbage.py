"""The simulator leaves no cyclic garbage behind a load.

Every kernel event, Kafka delivery and modelled hop is a short-lived
closure or tuple.  If one of them refers to itself it outlives its last
use until the cycle collector finds it, and the collector's passes cost
CPU on every simulated workload.  These loads run with the collector
off and then count what ``gc.collect()`` finds unreachable: it must be
nothing.  A delivery closure that reschedules itself by name leaves two
such cycles per request."""

import gc
import itertools
from functools import partial

import pytest

from repro.compiler import compile_program
from repro.core.refs import EntityRef
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime
from repro.substrates.network import DeliveryFault
from repro.workloads import Account, DriverConfig, WorkloadDriver, YcsbWorkload


def _unreachable_after(load) -> int:
    """Run *load* with the cycle collector off; how many objects the
    collection right after it finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        load()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("fetch_faults", [False, True])
def test_a_ycsb_t_load_leaves_no_cyclic_garbage(account_program,
                                                fetch_faults):
    runtime = StateflowRuntime(account_program,
                               config=StateflowConfig(workers=2))
    workload = YcsbWorkload("T", record_count=50, distribution="uniform",
                            seed=5, initial_balance=1_000)
    runtime.preload(Account, workload.dataset_rows())
    runtime.start()
    if fetch_faults:
        # A faulted fetch retries after a backoff, and the successors
        # that overtake it retry in turn until it lands.
        fetches = itertools.count()
        runtime.broker.fault_hook = lambda op, name: (
            DeliveryFault(drop=True)
            if op == "fetch" and next(fetches) % 5 == 0 else None)
    driver = WorkloadDriver(runtime, workload, DriverConfig(
        rps=200, duration_ms=1_500, warmup_ms=0, drain_ms=5_000, seed=6))

    assert _unreachable_after(driver.run) == 0
    assert driver.sent > 250 and driver.completed == driver.sent
    assert driver.errors == 0
    assert (runtime.broker.deliveries_faulted > 0) == fetch_faults


def test_a_checkout_load_leaves_no_cyclic_garbage(example_entities):
    program = compile_program(example_entities["checkout"])
    runtime = StateflowRuntime(program, config=StateflowConfig(workers=2))
    size = 40
    runtime.preload("Product", [(f"sku-{i}", 1 + i % 7, 1_000)
                                for i in range(size)])
    runtime.preload("Wallet", [(f"user-{i}", 100_000) for i in range(size)])
    for i in range(size):
        runtime.committed.put("Cart", f"cart-{i}", {
            "cart_id": f"cart-{i}",
            "skus": [EntityRef("Product", f"sku-{(i + j) % size}")
                     for j in range(3)],
            "quantities": [1, 2, 1],
            "orders_placed": 0})
    runtime.start()
    sim = runtime.sim
    replies = []
    for n in range(200):
        sim.schedule_at(sim.now + 5.0 * n, partial(
            runtime.submit, EntityRef("Cart", f"cart-{n % size}"),
            "checkout", (EntityRef("Wallet", f"user-{(7 * n) % size}"),),
            on_reply=replies.append))

    assert _unreachable_after(
        lambda: sim.run(until=sim.now + 5_000.0)) == 0
    assert len(replies) == 200
    assert all(reply.error is None and reply.payload > 0
               for reply in replies)
