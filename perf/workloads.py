"""The seven workloads, each driven through ``StateflowRuntime.submit``.

One call of :func:`run_rep` is one rep: set up, load, check.  It runs in
a fresh interpreter (see ``rep.py``), so peak RSS, GC state and import
caches belong to that rep alone.  Work on the simulator workloads is a
fixed request count; ``proc-transfer`` is a closed loop over a fixed
window because its callers wait for their replies.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import resource
import shutil
import signal
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro import EntityRef, QueryEngine, compile_program
from repro.runtimes.stateflow import StateflowConfig, StateflowRuntime

import entities
import gen
from calib import SMOKE_ROUNDS, HostSpeed
from stats import percentile
from trace import Tracer


@dataclass(frozen=True)
class Spec:
    name: str
    why: str
    kind: str = "ycsb"                # "ycsb" | "checkout"
    mix: str = "A"
    zipf_theta: float | None = None
    keys: int = 10_000
    rate_per_s: float = 1_000.0
    requests: int = 4_000
    #: Arrivals come ``burst`` at a time (1 = a Poisson stream).
    burst: int = 1
    durable: bool = False
    views: bool = False
    process: bool = False

    def smoke(self) -> "Spec":
        return dataclasses.replace(self, keys=min(self.keys, 400),
                                   requests=min(self.requests, 120))


#: Request counts put the last reply about 250 virtual ms past a
#: multiple of 500, the program's snapshot interval, so every seed sees
#: the same number of cuts (see ``gen.arrivals``).
SPECS: dict[str, Spec] = {spec.name: spec for spec in [
    Spec("sim-point",
         "single-key fast path: per-batch coordinator, kafka and kernel "
         "bookkeeping and the periodic full snapshot cut do the work",
         mix="A", zipf_theta=0.99, rate_per_s=1_000, requests=3_750),
    Spec("sim-transfer",
         "the paper's transactional regime: executor invoke/resume, worker "
         "hops, BatchMember and decide on conflict-free batches",
         mix="T", rate_per_s=2_000, requests=4_500),
    Spec("sim-burst",
         "transfers arriving 400 at a time: ~80-txn batches with aborts and "
         "sequential fallback, so per-member decide and the abort path rule",
         mix="T", rate_per_s=2_000, requests=3_200, burst=400),
    Spec("sim-checkout",
         "nested list state and a loop over remote calls: the state-copy "
         "tax (copy.deepcopy fallback) and the executor dominate",
         kind="checkout", keys=2_000, rate_per_s=400, requests=500),
    Spec("sim-durable",
         "sim-point's trace on real files: changelog append and fsync per "
         "commit, cut files and manifest; then a cold start from the files",
         mix="A", zipf_theta=0.99, rate_per_s=1_000, requests=3_250,
         durable=True),
    Spec("sim-views",
         "sim-point's trace with six standing views and a reader: the "
         "per-commit fold beside view reads",
         mix="A", zipf_theta=0.99, rate_per_s=1_000, requests=2_750,
         views=True),
    Spec("proc-transfer",
         "real worker processes, one closed-loop caller: wire encode/decode, "
         "pipe I/O, the wall-clock loop and the replica broadcast do the work",
         mix="T", keys=8_000, process=True),
]}

#: ``proc-transfer``: one caller that waits for each reply.  With 4
#: outstanding requests identical reps split into a mode where all four
#: share a batch (every cycle pays the 2.5 ms idle-seal timer) and one
#: where two pairs alternate: 884-1 387 txn/s, p50 4.8-8.1 ms.  One
#: client held p50 5.0-5.4 ms.
PROC_CLIENTS = 1
PROC_WORKERS = 2
PROC_WARMUP_MS = 300.0
PROC_WINDOW_MS = 2_000.0
PROC_SEGMENTS = 8
#: The share of a ``proc-transfer`` request's real time that follows the
#: host's speed (encode, pipe, decode, execute, commit); the rest is the
#: idle-seal timer and the poll's millisecond granularity.  Fitted: over
#: four sets of ten runs ``txn_us`` spread 11-17 % as measured, 4-12 %
#: scaled in full and 3-7 % scaled by this share; ``lat_p50_ms`` 6-11 %,
#: 8-17 % and 2-5 %.
PROC_SPEED_SHARE = 0.5
#: Virtual ms between two view reads on ``sim-views``.
VIEW_READ_EVERY_MS = 10.0


def supported(cls: type, **options: Any) -> Any:
    """Build a config dataclass from the options it still has: the
    ledger must survive the refactor that deletes a mode."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in options.items() if k in names})


@dataclass
class Counts:
    """Per-layer numbers a rep collects besides its end-to-end metrics;
    one whose source is gone is ``None`` with the reason kept."""

    values: dict[str, float | None] = dataclasses.field(default_factory=dict)
    unavailable: dict[str, str] = dataclasses.field(default_factory=dict)


@dataclass
class Load:
    """What a load phase hands to the checks."""

    requests: list[gen.Request]
    #: request index -> (payload, error) or None while unanswered.
    replies: list[tuple | None]
    latencies_ms: list[float]
    double_replies: int = 0
    cpu_s: float = 0.0
    #: ``cpu_s`` on the reference host (simulator workloads).
    scaled_s: float = 0.0
    wall_s: float = 0.0
    #: Requests answered inside the measured interval (all of them on
    #: the simulator; the window's replies on ``proc-transfer``).
    measured: int = 0
    #: Seconds per transaction on the reference host: calibrated CPU on
    #: the simulator, the median segment's calibrated real time on
    #: ``proc-transfer``.
    per_txn_s: float = 0.0
    #: ``sim-views``: raw microseconds per view read during the load.
    view_read_us: float | None = None
    #: ``proc-transfer``: reference-host seconds per real second of the
    #: measured window (1 where nothing is scaled).
    speed_factor: float = 1.0

    def problems(self) -> list[str]:
        found = []
        unanswered = sum(1 for reply in self.replies if reply is None)
        if unanswered:
            found.append(f"{unanswered} requests never answered")
        if self.double_replies:
            found.append(f"{self.double_replies} requests answered twice")
        errors = sum(1 for reply in self.replies if reply and reply[1])
        if errors:
            found.append(f"{errors} error replies")
        return found

    def failed(self) -> int:
        return self.double_replies + sum(
            1 for reply in self.replies if reply is None or reply[1])

    def digest(self) -> str:
        lines = "\n".join(f"{i}|{reply[0]!r}|{reply[1]}" if reply else f"{i}|"
                          for i, reply in enumerate(self.replies))
        return hashlib.sha256(lines.encode()).hexdigest()[:16]


class FsyncMeter:
    """The ledger's own ``os.fsync``: counts the calls and the process
    CPU time spent inside them.

    That CPU is the device's, not the program's: with other tenants'
    disk traffic it moved from 64 to over 400 us per transaction on
    ``sim-durable`` (155 us to 1 ms per flush) and took ``txn_us`` from
    320 to 620 with it, so the load phase's CPU time excludes it."""

    def __init__(self) -> None:
        self.calls = 0
        self.cpu_s = 0.0
        self._fsync = os.fsync

    def __call__(self, fd) -> None:
        started = time.process_time()
        try:
            return self._fsync(fd)
        finally:
            self.cpu_s += time.process_time() - started
            self.calls += 1


def _as_call(request: gen.Request) -> tuple:
    ref = EntityRef(*request.target)
    args = tuple(EntityRef(*arg) if isinstance(arg, gen.Ref) else arg
                 for arg in request.args)
    return ref, request.method, args


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _build(spec: Spec, seed: int, durability_dir: str | None):
    if spec.kind == "checkout":
        program = compile_program(entities.CHECKOUT_ENTITIES)
    else:
        program = compile_program(entities.YCSB_ENTITIES)
    if spec.process:
        from repro.bench.harness import process_stateflow_overrides
        from repro.substrates.spawner import make_spawner
        config = StateflowConfig(
            **process_stateflow_overrides(workers=PROC_WORKERS))
        kernel = make_spawner(config.spawner).make_kernel(seed)
    else:
        from repro.substrates.simulation import Simulation
        options: dict[str, Any] = {}
        if spec.durable:
            options.update(durability_dir=durability_dir,
                           snapshot_mode="incremental")
        config = supported(StateflowConfig, **options)
        kernel = Simulation(seed)
    runtime = StateflowRuntime(program, sim=kernel, config=config)
    if spec.kind == "checkout":
        data = gen.checkout_dataset(seed, spec.keys)
        runtime.preload("Product", data.products)
        runtime.preload("Wallet", data.wallets)
        for cart_id, lines in data.carts.items():
            runtime.committed.put("Cart", cart_id, {
                "cart_id": cart_id,
                "skus": [EntityRef("Product", sku) for sku, _ in lines],
                "quantities": [quantity for _, quantity in lines],
                "orders_placed": 0})
    else:
        runtime.preload("Account", gen.account_rows(spec.keys))
    runtime.start()
    engine = None
    if spec.views:
        from repro.views import ViewSpec
        engine = QueryEngine(runtime)
        for view in gen.view_specs():
            engine.register_view(ViewSpec(**view))
    return runtime, engine


def _start_idle_spinners() -> list[int]:
    """``proc-transfer`` only: one lowest-priority busy loop per CPU, so
    no virtual CPU ever halts during the rep.

    On the sizing host (a 2-vCPU VM) waking a process on a halted vCPU
    took 2-10 ms instead of 0.1 ms whenever the hypervisor was busy,
    and identical reps moved between 270 and 1 390 txn/s with it.  The
    loops run at ``nice 19`` (about 1.5 % of a contended CPU) and exit
    on their own if the rep dies."""
    parent = os.getpid()
    pids = []
    for cpu in sorted(os.sched_getaffinity(0)):
        pid = os.fork()
        if pid == 0:
            try:
                os.sched_setaffinity(0, {cpu})
                os.nice(19)
                while os.getppid() == parent:
                    for _ in range(100_000):
                        pass
            finally:
                os._exit(0)
        pids.append(pid)
    return pids


def _stop_idle_spinners(pids: list[int]) -> None:
    for pid in pids:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _await_seeded(runtime) -> float:
    """``proc-transfer``: run the kernel until every child was sent its
    replica seed; returns the wall ms that took."""
    kernel = runtime.sim
    started = kernel.now
    kernel.run_until(
        lambda: all(getattr(worker, "frames_sent", 1) >= 1
                    for worker in runtime.workers),
        max_time=started + 30_000.0)
    return kernel.now - started


# ---------------------------------------------------------------------------
# load phases
# ---------------------------------------------------------------------------

#: The open-loop load runs in this many segments with a calibration
#: slice between each two (about 100 ms of work per segment).
SEGMENTS = 10


def _load_open(runtime, engine, requests: list[gen.Request],
               tracer: Tracer | None, speed: HostSpeed,
               fsync: FsyncMeter) -> Load:
    """Open loop on the virtual clock: every request is submitted at its
    absolute due time, and its latency runs from that due time."""
    sim = runtime.sim
    calls = [_as_call(request) for request in requests]
    load = Load(requests, [None] * len(requests), [0.0] * len(requests))
    origin = sim.now
    total = len(requests)
    done = 0

    def on_reply(index: int, reply) -> None:
        nonlocal done
        if load.replies[index] is not None:
            load.double_replies += 1
            return
        load.replies[index] = (reply.payload, reply.error)
        load.latencies_ms[index] = sim.now - origin - requests[index].at_ms
        done += 1

    def arrive(index: int) -> None:
        ref, method, args = calls[index]
        runtime.submit(ref, method, args,
                       on_reply=lambda reply: on_reply(index, reply))
        if index + 1 < total:
            sim.schedule_at(origin + requests[index + 1].at_ms,
                            lambda: arrive(index + 1))

    reads = read_ns = 0
    last_value = None                   # consumes each read's result
    if engine is not None:
        names = [view["name"] for view in gen.view_specs()]

        def read_view() -> None:
            nonlocal reads, read_ns, last_value
            if done >= total:
                return
            started = time.perf_counter_ns()
            snapshot = engine.view(names[reads % len(names)])
            read_ns += time.perf_counter_ns() - started
            reads += 1
            last_value = snapshot.value
            sim.schedule(VIEW_READ_EVERY_MS, read_view)

        sim.schedule(VIEW_READ_EVERY_MS, read_view)

    sim.schedule_at(origin + requests[0].at_ms, lambda: arrive(0))
    deadline = origin + requests[-1].at_ms + 120_000.0
    run = sim.run_until
    if tracer is not None:
        run = tracer.root("simulation.run", run)
    step = max(total // SEGMENTS, 1)
    before = speed.sample()
    for target in [*range(step, total, step), total]:
        wall = time.perf_counter()
        cpu = time.process_time() - fsync.cpu_s
        finished = run(lambda: done >= target, max_time=deadline)
        cpu = time.process_time() - fsync.cpu_s - cpu
        load.wall_s += time.perf_counter() - wall
        after = speed.sample()
        load.cpu_s += cpu
        load.scaled_s += speed.scale(cpu, before, after)
        before = after
        if not finished:
            break
    load.measured = done
    load.per_txn_s = load.scaled_s / max(done, 1)
    if reads:
        load.view_read_us = read_ns / reads / 1e3
    return load


def _load_closed(runtime, requests: list[gen.Request],
                 tracer: Tracer | None, speed: HostSpeed,
                 smoke: bool) -> Load:
    """Closed loop on the real clock: each of ``PROC_CLIENTS`` clients
    sends its next request when the previous one is answered.

    The measured window is ``PROC_SEGMENTS`` segments; at the end of
    each the clients pause until every reply is in and a calibration
    slice runs in the gap.  A segment's cost is its real time per
    reply, scaled by its two neighbouring slices with
    ``PROC_SPEED_SHARE`` (run-level medians followed the host's speed:
    4 293 us at a 15.6 ms slice, 5 518 us at 21.8 ms); the rep reports
    the median segment, which a single multi-millisecond host stall
    cannot move.  Latencies are scaled by the window's overall factor."""
    kernel = runtime.sim
    calls = [_as_call(request) for request in requests]
    load = Load(requests, [None] * len(requests), [])
    state = {"next": 0, "outstanding": 0, "paused": False, "measuring": False}

    def issue() -> None:
        index = state["next"]
        if state["paused"] or index >= len(calls):
            return
        state["next"] = index + 1
        state["outstanding"] += 1
        sent_at = kernel.now
        ref, method, args = calls[index]
        runtime.submit(ref, method, args,
                       on_reply=lambda reply: answered(index, sent_at, reply))

    def answered(index: int, sent_at: float, reply) -> None:
        state["outstanding"] -= 1
        if load.replies[index] is not None:
            load.double_replies += 1
            return
        load.replies[index] = (reply.payload, reply.error)
        if state["measuring"]:
            load.latencies_ms.append(kernel.now - sent_at)
        issue()

    def drained() -> bool:
        return state["outstanding"] == 0

    def segment(length_ms: float, run=kernel.run) -> None:
        """Clients run for *length_ms*, then pause until all replies
        are in."""
        state["paused"] = False
        for _ in range(PROC_CLIENTS):
            issue()
        run(until=kernel.now + length_ms)
        state["paused"] = True
        kernel.run_until(drained, max_time=kernel.now + 10_000.0)

    shrink = 8 if smoke else 1
    segment(PROC_WARMUP_MS / shrink)
    run = kernel.run
    if tracer is not None:
        run = tracer.root("wallclock.run", run)
    state["measuring"] = True
    per_txn_s = []
    scaled_s = 0.0
    before = speed.sample()
    for _ in range(PROC_SEGMENTS):
        replies, started = len(load.latencies_ms), kernel.now
        cpu = time.process_time()
        segment(PROC_WINDOW_MS / PROC_SEGMENTS / shrink, run)
        load.cpu_s += time.process_time() - cpu
        elapsed_s = (kernel.now - started) / 1e3
        load.wall_s += elapsed_s
        after = speed.sample()
        answered_here = len(load.latencies_ms) - replies
        scaled = speed.scale(elapsed_s, before, after, PROC_SPEED_SHARE)
        scaled_s += scaled
        if answered_here:
            per_txn_s.append(scaled / answered_here)
        before = after
    load.measured = len(load.latencies_ms)
    load.per_txn_s = statistics.median(per_txn_s)
    load.speed_factor = scaled_s / load.wall_s
    # Requests never issued are not part of this rep.
    issued = state["next"]
    load.requests = requests[:issued]
    load.replies = load.replies[:issued]
    return load


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _check_state(spec: Spec, seed: int, runtime, load: Load) -> list[str]:
    problems = []
    if spec.kind == "checkout":
        data = gen.checkout_dataset(seed, spec.keys)
        funds = sum(runtime.entity_state(EntityRef("Wallet", owner))["funds"]
                    for owner, _ in data.wallets)
        sold = sum(price * (stock - runtime.entity_state(
            EntityRef("Product", sku))["stock"])
            for sku, price, stock in data.products)
        if funds + sold != sum(f for _, f in data.wallets):
            problems.append("checkout: funds + price x sold stock is not "
                            "conserved")
        declined = sum(1 for reply in load.replies
                       if reply and reply[0] is not None and reply[0] < 0)
        if declined:
            problems.append(f"checkout: {declined} orders declined")
        return problems
    balance = sum(runtime.entity_state(
        EntityRef("Account", gen.account_key(i)))["balance"]
        for i in range(spec.keys))
    if balance != spec.keys * gen.INITIAL_BALANCE:
        problems.append("ycsb: total balance is not conserved")
    refused = sum(1 for reply in load.replies if reply and reply[0] is False)
    if refused:
        problems.append(f"ycsb: {refused} operations returned False")
    return problems


def _check_views(runtime) -> list[str]:
    manager = runtime.views
    return [f"view {view['name']} differs from the full-scan oracle"
            for view in gen.view_specs()
            if manager.read(view["name"]).value
            != manager.expected(view["name"])]


def _recovered_state(snapshots, changelog) -> dict:
    """What recovery restores from a pair of stores: the newest
    recoverable cut with the changelog suffix rolled over it."""
    from repro.runtimes.state import apply_flat_writes, materialize_snapshot
    snapshot, payload = snapshots.latest_recoverable(changelog)
    suffix = changelog.records_between(snapshot.changelog_seq,
                                       changelog.head_seq) or []
    for record in suffix:
        payload = apply_flat_writes(payload, record.writes)
    return materialize_snapshot(payload)


def _close_and_recover(runtime, directory: str, speed: HostSpeed,
                       counts: Counts, txns: int) -> list[str]:
    """``sim-durable``: close, then cold-start from the files alone."""
    from repro.runtimes.state import materialize_snapshot
    from repro.storage import FileChangelogStore, FileSnapshotStore
    coordinator = runtime.coordinator
    live = _recovered_state(coordinator.snapshots, coordinator.changelog)
    committed = materialize_snapshot(runtime.committed.snapshot())
    runtime.close()
    coordinator.changelog.close()
    disk_bytes = sum(os.path.getsize(os.path.join(root, name))
                     for root, _, names in os.walk(directory)
                     for name in names)
    counts.values["storage.disk_bytes_per_txn"] = disk_bytes / txns
    counts.values["storage.write_amp"] = (
        disk_bytes / len(pickle.dumps(committed)))
    before = speed.sample()
    started = time.process_time()
    snapshots = FileSnapshotStore(directory, mode="incremental")
    changelog = FileChangelogStore(directory)
    cold = _recovered_state(snapshots, changelog)
    cpu = time.process_time() - started
    counts.values["storage.recover_ms"] = speed.scale(
        cpu, before, speed.sample()) * 1e3
    changelog.close()
    problems = []
    if cold != live:
        problems.append("durable: cold-start state differs from the live "
                        "stores' latest recoverable state")
    if cold != committed:
        problems.append("durable: cold-start state lost committed writes")
    return problems


# ---------------------------------------------------------------------------
# one rep
# ---------------------------------------------------------------------------

def _peak_rss_mb(children: list[int]) -> float:
    """Peak resident set of this interpreter plus, on ``proc-transfer``,
    its still-running children (``VmHWM`` of each)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in children:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _counters(runtime) -> dict[str, float]:
    """The program's cumulative public counters, each read on its own:
    one a refactor removed is simply absent."""
    stats = runtime.coordinator.stats
    workers = runtime.workers
    getters: dict[str, Callable[[], float]] = {
        "events": lambda: runtime.sim.processed_events,
        "records": lambda: runtime.broker.records_produced,
        "messages": lambda: runtime.network.messages_sent,
        "batches": lambda: stats.closed_batches,
        "stall_ms": lambda: stats.stall_ms,
        "decided": lambda: stats.transactions,
        "aborts": lambda: (stats.aborts_waw + stats.aborts_raw
                           + stats.aborts_stale),
        "stale": lambda: stats.aborts_stale,
        "fallbacks": lambda: stats.fallback_runs,
        "steps": lambda: sum(w.events_processed for w in workers),
        "cuts": lambda: len(runtime.coordinator.snapshots.cut_log),
        "view_keys": lambda: runtime.views.keys_applied,
        # Only the process substrate's worker proxies count frames.
        "frames": lambda: sum(w.frames_sent + w.frames_received
                              for w in workers),
        "bytes": lambda: sum(w.bytes_sent for w in workers),
    }
    found = {}
    for name, getter in getters.items():
        try:
            found[name] = getter()
        except AttributeError:
            pass
    return found


#: Per-layer count -> (counter moved, what it is divided by); ``None``
#: = reported as it is, "answered" = the requests answered meanwhile.
COUNT_METRICS: dict[str, tuple[str, str | None]] = {
    "simulation.events_per_txn": ("events", "answered"),
    "kafka.records_per_txn": ("records", "answered"),
    "network.messages_per_txn": ("messages", "answered"),
    "coordinator.txn_per_batch": ("answered", "batches"),
    "coordinator.stall_ms": ("stall_ms", None),
    "aria.abort_frac": ("aborts", "decided"),
    "aria.fallback_per_txn": ("fallbacks", "answered"),
    "executor.steps_per_txn": ("steps", "answered"),
    "snapshots.cuts": ("cuts", None),
    "views.keys_applied_per_txn": ("view_keys", "answered"),
    "procworker.frames_per_txn": ("frames", "answered"),
    "procworker.bytes_per_txn": ("bytes", "answered"),
    "procworker.stale_abort_frac": ("stale", "decided"),
}


def _count_metrics(counts: Counts, before: dict[str, float],
                   after: dict[str, float], answered: int) -> None:
    """Turn what the counters moved by during the load (warm-up
    included on ``proc-transfer``) into the per-layer counts."""
    moved = {name: after[name] - before[name]
             for name in after if name in before}
    moved["answered"] = answered
    for metric, (top, bottom) in COUNT_METRICS.items():
        if top not in moved or (bottom and bottom not in moved):
            counts.values[metric] = None
            counts.unavailable[metric] = "its counter is not there"
        elif bottom is None:
            counts.values[metric] = moved[top]
        else:
            counts.values[metric] = moved[top] / max(moved[bottom], 1)


def run_rep(spec: Spec, seed: int, *, out_dir: str, traced: bool,
            smoke: bool) -> dict[str, Any]:
    if smoke:
        spec = spec.smoke()
    speed = HostSpeed(SMOKE_ROUNDS) if smoke else HostSpeed()
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    fsync = os.fsync = FsyncMeter()
    if spec.kind == "checkout":
        requests = gen.checkout_requests(
            seed, size=spec.keys, rate_per_s=spec.rate_per_s,
            count=spec.requests)
    else:
        requests = gen.ycsb_requests(
            seed, mix=spec.mix, zipf_theta=spec.zipf_theta, keys=spec.keys,
            rate_per_s=spec.rate_per_s, burst=spec.burst,
            count=20_000 if spec.process else spec.requests)
    directory = (tempfile.mkdtemp(prefix="durable-", dir=out_dir)
                 if spec.durable else None)
    counts = Counts()
    checks: list[str] = []
    sent = None
    spinners = _start_idle_spinners() if spec.process else []
    try:
        before = speed.sample()
        cpu = time.process_time()
        runtime, engine = _build(spec, seed, directory)
        try:
            if spec.process:
                counts.values["procworker.seed_ms"] = _await_seeded(runtime)
            cpu = time.process_time() - cpu
            setup_s = speed.scale(cpu, before, speed.sample())
            counted = _counters(runtime)
            if spec.process:
                if traced:
                    sent = _proc_bytes()
                load = _load_closed(runtime, requests, tracer, speed, smoke)
            else:
                fsync.calls, fsync.cpu_s = 0, 0.0
                load = _load_open(runtime, engine, requests, tracer, speed,
                                  fsync)
            txns = max(load.measured, 1)
            _count_metrics(counts, counted, _counters(runtime),
                           sum(1 for reply in load.replies if reply))
            if sent is not None:
                counts.values["procworker.replica_bytes_frac"] = (
                    sent["replica"] / max(sent["all"], 1))
            checks += _check_state(spec, seed, runtime, load)
            children: list[int] = []
            if spec.views:
                checks += _check_views(runtime)
                counts.values["views.read_us_live"] = (
                    load.view_read_us * load.scaled_s / load.cpu_s)
            if spec.process:
                import multiprocessing
                children = [child.pid for child
                            in multiprocessing.active_children()]
            rss_mb = _peak_rss_mb(children)
            if spec.durable:
                counts.values["storage.fsyncs_per_txn"] = fsync.calls / txns
                counts.values["storage.fsync_cpu_us_per_txn"] = (
                    fsync.cpu_s * 1e6 / txns)
                checks += _close_and_recover(runtime, directory, speed,
                                             counts, txns)
        finally:
            runtime.close()
    finally:
        _stop_idle_spinners(spinners)
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    ordered = sorted(load.latencies_ms)
    result: dict[str, Any] = {
        "workload": spec.name, "seed": seed, "traced": traced,
        "calib_s": speed.calib_s,
        "setup_s": setup_s,
        "txns": load.measured,
        "attempted": len(load.requests),
        "failed": load.failed() + len(checks),
        "problems": load.problems() + checks,
        "load_cpu_s": load.cpu_s, "load_wall_s": load.wall_s,
        "txn_us": load.per_txn_s * 1e6,
        "lat_p50_ms": (percentile(ordered, 50) * load.speed_factor
                       if ordered else None),
        "lat_p95_ms": (percentile(ordered, 95) * load.speed_factor
                       if ordered else None),
        "peak_rss_mb": rss_mb,
        "digest": load.digest(),
        "counts": counts.values, "unavailable": counts.unavailable,
    }
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, load, txns)
        tracer.write(os.path.join(out_dir, f"trace-{spec.name}.json"))
    return result


def _proc_bytes() -> dict[str, int]:
    """Traced ``proc-transfer`` rep only: tally the parent's encoded
    frame bytes, and the share that is un-acked replica broadcast."""
    from repro.runtimes.stateflow import procworker
    sent = {"all": 0, "replica": 0}
    encode = procworker.encode_frame

    def counting_encode(message):
        frame = encode(message)
        sent["all"] += len(frame)
        if type(message).__name__ == "ApplyWrites" and not message.ack:
            sent["replica"] += len(frame)
        return frame

    procworker.encode_frame = counting_encode
    return sent


def _trace_summary(tracer: Tracer, load: Load, txns: int) -> dict[str, Any]:
    layers = tracer.by_layer()
    total_self = sum(entry["self_ns"] for entry in layers.values())
    return {
        "layers": {layer: {"self_us_per_txn": entry["self_ns"] / 1e3 / txns,
                           "calls_per_txn": entry["calls"] / txns}
                   for layer, entry in sorted(layers.items())},
        "operations": {name: {"self_us_per_txn": nanos / 1e3 / txns,
                              "total_us_per_txn":
                              tracer.total_ns[name] / 1e3 / txns,
                              "calls_per_txn": tracer.calls[name] / txns}
                       for name, nanos in sorted(tracer.self_ns.items())},
        # Same clock on both sides: span self times over the traced
        # interval's wall time.
        "coverage": total_self / 1e9 / load.wall_s,
        "missing": tracer.missing,
    }
