"""Per-layer probes: time each layer's public functions on fixed inputs.

The zns-tools method: do not assume what a layer costs, call its
contract directly.  Each probe stands alone.  When a refactor removes a
probe's entry point, that probe reports ``None`` with the reason and
every other probe still runs; no end-to-end metric depends on a probe.

A timing is the median of up to ``CALLS`` timed calls (fewer when one
call takes milliseconds), scaled to the reference host like every other
ledger timing.  ``run.py`` starts it as a script, with ``src/`` on
``PYTHONPATH``; it prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Callable

CALLS = 200
#: A single probe stops sampling after this many seconds.
BUDGET_S = 0.25
KEYS_10K = 10_000


class Bench:
    """Median-of-calls timer with a per-probe time budget."""

    def __init__(self, scale: float, smoke: bool, scratch: str):
        self._scale = scale
        #: Directory for the storage probe's files.
        self.scratch = scratch
        self._calls = 5 if smoke else CALLS
        self.keys = 500 if smoke else KEYS_10K

    def us(self, call: Callable[[], Any], *, inner: int = 1,
           prepare: Callable[[], Any] | None = None) -> float:
        """Median microseconds of one ``call()``; ``inner`` calls share
        a clock read when one call is far below a microsecond's noise,
        ``prepare`` runs untimed before each sample."""
        samples = []
        deadline = time.perf_counter() + BUDGET_S
        while len(samples) < self._calls:
            if prepare is not None:
                prepare()
            started = time.perf_counter_ns()
            for _ in range(inner):
                call()
            samples.append((time.perf_counter_ns() - started) / inner)
            if len(samples) >= 5 and time.perf_counter() > deadline:
                break
        return statistics.median(samples) / 1e3 * self._scale

    def ms(self, call: Callable[[], Any], **kwargs: Any) -> float:
        return self.us(call, **kwargs) / 1e3


def flat_row(i: int) -> dict:
    return {"account_id": f"acct-{i:06d}", "balance": 1_000_000,
            "payload": ""}


# ---------------------------------------------------------------------------
# one function per layer; each returns {metric: value}
# ---------------------------------------------------------------------------

def probe_compiler(bench: Bench) -> dict[str, float]:
    from repro import compile_program
    import entities
    program = compile_program(entities.CHECKOUT_ENTITIES)
    return {
        "compiler.compile_ms.account": bench.ms(
            lambda: compile_program(entities.YCSB_ENTITIES)),
        "compiler.compile_ms.checkout": bench.ms(
            lambda: compile_program(entities.CHECKOUT_ENTITIES)),
        "compiler.blocks.checkout": len(
            program.entities["Cart"].methods["checkout"].machine.nodes),
    }


def probe_simulation(bench: Bench) -> dict[str, float]:
    from repro.substrates.simulation import Simulation
    sim = Simulation(1)

    def noop() -> None:
        pass

    def schedule_and_step() -> None:
        sim.schedule(0.0, noop)
        sim.step()

    return {"simulation.event_us": bench.us(schedule_and_step, inner=100)}


def probe_aria(bench: Bench) -> dict[str, float]:
    from repro.ir.events import TxnContext
    from repro.runtimes.stateflow.aria import BatchMember, decide

    def context(tid: int, keys: tuple[int, int]) -> TxnContext:
        ctx = TxnContext(tid=tid, batch_id=0)
        for key in keys:
            ctx.record_read("Account", f"acct-{key:06d}")
            ctx.record_write("Account", f"acct-{key:06d}", flat_row(key))
        return ctx

    def batch(size: int, conflicting: float) -> list:
        members = []
        for tid in range(size):
            # A conflicting member rewrites its predecessor's first key.
            shared = tid and tid % max(int(1 / conflicting), 1) == 0 \
                if conflicting else False
            first = 2 * (tid - 1) if shared else 2 * tid
            members.append(BatchMember.from_context(
                context(tid, (first, 2 * tid + 1))))
        return members

    transfer = context(0, (1, 2))
    out = {"aria.member_us": bench.us(
        lambda: BatchMember.from_context(transfer), inner=20)}
    for label, size, conflicting in (("b16", 16, 0.0), ("b256", 256, 0.0),
                                     ("b256c", 256, 0.1)):
        members = batch(size, conflicting)
        out[f"aria.decide_us_per_member.{label}"] = bench.us(
            lambda: decide(members)) / size
    return out


def probe_executor(bench: Bench) -> dict[str, float]:
    from repro import EntityRef, compile_program
    from repro.ir.events import Event, EventKind
    from repro.runtimes.executor import OperatorExecutor
    from repro.runtimes.state import make_state_backend
    import entities
    program = compile_program(entities.YCSB_ENTITIES
                              + entities.CHECKOUT_ENTITIES)
    executor = OperatorExecutor(program.entities,
                                check_state_serializable=False)
    store = make_state_backend("dict")
    store.put("Account", "a", flat_row(0))
    store.put("Cart", "c", {
        "cart_id": "c", "orders_placed": 0, "quantities": [1, 2, 3, 1],
        "skus": [EntityRef("Product", f"sku-{i}") for i in range(4)]})

    def invoke(entity: str, key: str, method: str, args: tuple):
        # A fresh event per call: handling one consumes its call stack.
        return lambda: executor.handle(
            Event(kind=EventKind.INVOKE, target=EntityRef(entity, key),
                  method=method, args=args, request_id=1), store)

    return {
        "executor.handle_us.read": bench.us(
            invoke("Account", "a", "read", ())),
        "executor.handle_us.transfer": bench.us(
            invoke("Account", "a", "transfer",
                   (1, EntityRef("Account", "b")))),
        "executor.handle_us.checkout_step": bench.us(
            invoke("Cart", "c", "checkout", (EntityRef("Wallet", "w"),))),
    }


def probe_state(bench: Bench) -> dict[str, float]:
    from repro import EntityRef
    from repro.runtimes.state import make_state_backend
    nested = {"cart_id": "c", "orders_placed": 0, "quantities": [1, 2, 3, 1],
              "skus": [EntityRef("Product", f"sku-{i}") for i in range(4)]}
    out = {}
    for name in ("dict", "cow"):
        backend = make_state_backend(name)
        for i in range(bench.keys):
            backend.put("Account", f"acct-{i:06d}", flat_row(i))
        backend.put("Cart", "c", nested)
        flat = flat_row(7)
        versions = iter(range(1, 1 << 30))

        def pin_release() -> None:
            version = next(versions)
            backend.pin_view(version)
            backend.release_view(version)

        def dirty() -> None:
            for i in range(100):
                backend.put("Account", f"acct-{i:06d}", flat)

        out.update({
            f"state.{name}.get_flat_us": bench.us(
                lambda: backend.get("Account", "acct-000007"), inner=20),
            f"state.{name}.get_nested_us": bench.us(
                lambda: backend.get("Cart", "c"), inner=5),
            f"state.{name}.put_flat_us": bench.us(
                lambda: backend.put("Account", "acct-000007", flat),
                inner=20),
            f"state.{name}.put_nested_us": bench.us(
                lambda: backend.put("Cart", "c", nested), inner=5),
            f"state.{name}.pin_release_us": bench.us(pin_release, inner=5),
            f"state.{name}.snapshot_ms_10k": bench.ms(backend.snapshot),
        })
        backend.capture_base()
        out[f"state.{name}.capture_delta_ms"] = bench.ms(
            backend.capture_delta, prepare=dirty)
    return out


def _take(store: Any, state: Any, kind: str) -> Any:
    return store.take(taken_at_ms=0.0, state=state, source_offsets={},
                      replied=set(), batch_seq=0, arrival_seq=0, kind=kind)


def _store_10k(bench: Bench):
    from repro.runtimes.state import PartitionedStore
    store = PartitionedStore(5, slots=64)
    for i in range(bench.keys):
        store.put("Account", f"acct-{i:06d}", flat_row(i))
    return store


def probe_snapshots(bench: Bench) -> dict[str, float]:
    from repro.runtimes.stateflow.snapshots import SnapshotStore
    committed = _store_10k(bench)
    flat = flat_row(7)

    def dirty() -> None:
        for i in range(100):
            committed.put("Account", f"acct-{i:06d}", flat)

    full = SnapshotStore(mode="full")
    out = {"snapshots.take_ms.full": bench.ms(
        lambda: _take(full, committed.snapshot(), "full"))}
    chain = SnapshotStore(mode="incremental", base_every=1 << 30, keep=8)
    _take(chain, committed.capture_base(), "base")
    out["snapshots.take_ms.incremental"] = bench.ms(
        lambda: _take(chain, committed.capture_delta(), "delta"),
        prepare=dirty)
    out["snapshots.resolve_ms"] = bench.ms(
        lambda: chain.resolve(chain.latest()))
    return out


def probe_storage(bench: Bench) -> dict[str, float]:
    from repro.storage import FileChangelogStore, FileSnapshotStore
    writes = {("Account", f"acct-{i:06d}"): flat_row(i) for i in range(2)}
    log_dir = tempfile.mkdtemp(prefix="log-", dir=bench.scratch)
    cut_dir = tempfile.mkdtemp(prefix="cut-", dir=bench.scratch)
    batches = iter(range(1 << 30))
    log = FileChangelogStore(log_dir)
    try:
        append_us = bench.us(lambda: log.append(next(batches), writes))
        out = {"storage.append_us": append_us,
               "storage.bytes_per_record": log.bytes_written / log.appended}
        plain = FileChangelogStore(
            tempfile.mkdtemp(prefix="nosync-", dir=bench.scratch),
            fsync=False)
        try:
            # What the device flush alone costs: the same append with
            # and without it.
            out["storage.fsync_us"] = max(append_us - bench.us(
                lambda: plain.append(next(batches), writes)), 0.0)
        finally:
            plain.close()
        while log.appended < (50 if bench.keys < KEYS_10K else 1_000):
            log.append(next(batches), writes)
    finally:
        log.close()
    reopened: list[Any] = []

    def reopen() -> None:
        reopened.append(FileChangelogStore(log_dir))
        reopened.pop().close()

    out["storage.open_ms_1k"] = bench.ms(reopen)
    cuts = FileSnapshotStore(cut_dir, mode="full")
    state = _store_10k(bench).snapshot()
    out["storage.cut_ms"] = bench.ms(lambda: _take(cuts, state, "full"))
    return out


def probe_views(bench: Bench) -> dict[str, float]:
    from repro.views import ViewManager, ViewSpec
    import gen
    committed = _store_10k(bench)
    specs = [ViewSpec(**spec) for spec in gen.view_specs()]

    def register_all() -> ViewManager:
        manager = ViewManager(committed)
        for spec in specs:
            manager.register(spec)
        return manager

    out = {"views.register_ms_10k": bench.ms(register_all)}
    manager = register_all()
    batches = iter(range(1 << 30))
    writes = {("Account", f"acct-{i:06d}"): dict(flat_row(i), payload="v")
              for i in range(4)}
    out["views.on_commit_us_per_key"] = bench.us(
        lambda: manager.on_commit(next(batches), writes, 0.0)) / len(writes)
    names = iter(spec.name for _ in range(1 << 30) for spec in specs)
    out["views.read_us"] = bench.us(
        lambda: manager.read(next(names)).value)
    return out


def probe_wire(bench: Bench) -> dict[str, float]:
    from repro import EntityRef
    from repro.ir.events import Event, EventKind
    from repro.substrates.wire import (ApplyWrites, Deliver, decode_frame,
                                       encode_frame)
    messages = {
        "deliver": Deliver([Event(
            kind=EventKind.INVOKE, target=EntityRef("Account", "acct-000001"),
            method="transfer", args=(1, EntityRef("Account", "acct-000002")),
            request_id=1)]),
        "apply64": ApplyWrites({("Account", f"acct-{i:06d}"): flat_row(i)
                                for i in range(64)}, seq=1),
    }
    out = {}
    for label, message in messages.items():
        frame = encode_frame(message)
        out[f"wire.encode_us.{label}"] = bench.us(
            lambda: encode_frame(message))
        out[f"wire.decode_us.{label}"] = bench.us(
            lambda: decode_frame(frame))
        out[f"wire.bytes.{label}"] = len(frame)
    return out


def probe_wallclock(bench: Bench) -> dict[str, float]:
    """Overshoot of 1 ms timers while the kernel multiplexes an idle
    pipe, as it does on ``proc-transfer``."""
    import multiprocessing
    from repro.substrates.wallclock import WallClock
    kernel = WallClock(1)
    ours, theirs = multiprocessing.Pipe()
    kernel.register_connection(ours, lambda payload: None)
    fired: list[float] = []

    def one_timer() -> None:
        fired.clear()
        due = kernel.now + 1.0
        kernel.schedule(1.0, lambda: fired.append(kernel.now - due))
        kernel.run_until(lambda: bool(fired), max_time=due + 1_000.0)

    try:
        lags = []
        for _ in range(5 if bench.keys < KEYS_10K else 50):
            one_timer()
            lags.append(fired[0] * 1e3)
    finally:
        ours.close()
        theirs.close()
    # A real-clock lag is not CPU work: not scaled to the reference host.
    return {"wallclock.timer_lag_us": statistics.median(lags)}


def run_probes(smoke: bool, scratch: str) -> dict[str, Any]:
    from calib import NOMINAL_S, ROUNDS, SMOKE_ROUNDS, calibrate
    rounds = SMOKE_ROUNDS if smoke else ROUNDS
    calib_s = calibrate(rounds)
    work = tempfile.mkdtemp(prefix="probes-", dir=scratch)
    bench = Bench(NOMINAL_S * rounds / ROUNDS / calib_s, smoke, work)
    values: dict[str, float] = {}
    unavailable: dict[str, str] = {}
    try:
        for probe in (probe_compiler, probe_simulation, probe_aria,
                      probe_executor, probe_state, probe_snapshots,
                      probe_storage, probe_views, probe_wire,
                      probe_wallclock):
            try:
                values.update(probe(bench))
            except Exception as exc:  # noqa: BLE001 - each probe stands alone
                unavailable[probe.__name__] = f"{type(exc).__name__}: {exc}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"values": values, "unavailable": unavailable, "calib_s": calib_s}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    print(json.dumps(run_probes(args.smoke, args.out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
