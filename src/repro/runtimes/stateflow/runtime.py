"""StateFlow: the paper's transactional dataflow prototype, simulated.

Deployment (Section 4): one single-core coordinator plus workers on the
remaining system cores (default 5).  Requests enter through a replayable
Kafka source; function-to-function communication uses direct inter-worker
channels (cyclic dataflow); every function — including its remote-call
state effects — executes as an ACID transaction under the Aria-style
deterministic protocol; consistent snapshots + source replay provide
exactly-once fault tolerance.

The coordinator's hooks (dispatch, commit buckets, single-key groups)
call the worker directly and a worker's replies reach the coordinator
directly: the simulator's :class:`~repro.runtimes.stateflow.worker.Worker`
models the network hop in between, the process substrate's proxy writes
to a pipe.  Only slot migration and view pushes send over the modelled
network from here.

``channel_mode="kafka"`` degrades function-to-function communication to
Kafka loop-backs (what StateFun must do) — the ABL-COMM ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ...compiler.pipeline import CompiledProgram
from ...control import AutoscaleController, AutoscalePolicy
from ...core.errors import RuntimeExecutionError
from ...core.refs import EntityRef
from ...faults import FaultInjector, FaultPlan
from ...ir.events import Event, EventKind
from ...rescale import RescalePlan
from ...substrates.kafka import KafkaBroker, KafkaRecord
from ...substrates.network import Network
from ...substrates.simulation import MetricRecorder, Simulation
from ...substrates.spawner import Spawner, make_spawner
from ...views import ViewManager
from ..base import InvocationResult, Runtime
from ..executor import OperatorExecutor, run_constructor
from ..state import PartitionedStore
from .coordinator import Coordinator, CoordinatorConfig, CoordinatorHooks
from .snapshots import ChangelogStore, SnapshotStore

INGRESS_TOPIC = "stateflow-ingress"
EGRESS_TOPIC = "stateflow-egress"
LOOPBACK_TOPIC = "stateflow-loopback"
#: Partitions of each of those topics.
TOPIC_PARTITIONS = 4
#: How long a synchronous ``create``/``invoke`` waits for its reply, in
#: simulated milliseconds.
SYNC_WAIT_MS = 120_000.0


@dataclass(slots=True)
class StateflowConfig:
    """Tunables of the simulated StateFlow deployment (modelled costs
    come from the kernel, :mod:`repro.substrates.costs`)."""

    workers: int = 5
    #: Execution substrate (``--spawner``): "simulator" = deterministic
    #: virtual-time in-process workers (the default — every chaos,
    #: replay and equivalence test runs here); "process" = real OS
    #: processes on the wall clock, talking batched binary frames over
    #: pipes (the substrate whose bench numbers measure hardware).  A
    #: :class:`~repro.substrates.spawner.Spawner` instance also works.
    spawner: str | Spawner = "simulator"
    #: "direct" = inter-worker channels; "kafka" = loop back through the
    #: broker on every hop (ablation ABL-COMM).
    channel_mode: str = "direct"
    #: Hash slots of the committed store (the granularity of elastic
    #: rescaling).  Fixed for the run; must be >= the largest worker
    #: count the run will rescale to.
    state_slots: int = 64
    #: Durability directory (``--durable``): when set, snapshots and
    #: the changelog live in file-backed stores under this path (see
    #: :mod:`repro.storage`) and a real process death recovers from
    #: disk on the next start.  ``None`` keeps the in-memory stores.
    #: Persistence is a pure side effect: traces are byte-identical
    #: either way.
    durability_dir: str | None = None
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    #: Deterministic fault schedule (chaos testing); ``None`` = a
    #: fault-free run.  See :mod:`repro.faults`.
    fault_plan: FaultPlan | None = None
    #: Declarative elastic-rescale schedule; ``None`` = a fixed-size
    #: cluster.  See :mod:`repro.rescale`.
    rescale_plan: RescalePlan | None = None
    #: Closed-loop autoscaling (``--autoscale``): attach an
    #: :class:`~repro.control.AutoscaleController` that samples windowed
    #: load off the coordinator's commit path and issues its own
    #: ``request_rescale`` calls.  See :mod:`repro.control`.
    autoscale: bool = False
    #: Policy knobs for the controller; supplying a policy implies
    #: ``autoscale`` (``None`` = the defaults when enabled).
    autoscale_policy: "AutoscalePolicy | None" = None


def make_durability_stores(config: StateflowConfig,
                           ) -> tuple[SnapshotStore, ChangelogStore]:
    """The snapshot and changelog stores the coordinator cuts into: in
    memory, or file-backed under ``config.durability_dir`` (a cold start
    over an existing directory resumes from its files)."""
    options = dict(base_every=config.coordinator.snapshot_base_every,
                   track_footprints=config.coordinator.snapshot_footprints)
    if not config.durability_dir:
        return SnapshotStore(**options), ChangelogStore()
    # Imported lazily: the storage package imports this package's
    # snapshots module.
    from ...storage import FileChangelogStore, FileSnapshotStore
    return (FileSnapshotStore(config.durability_dir, **options),
            FileChangelogStore(config.durability_dir))


class StateflowRuntime(Runtime):
    """Simulated StateFlow deployment (see module docstring)."""

    name = "stateflow"

    def __init__(self, program: CompiledProgram,
                 *, sim: Simulation | None = None,
                 config: StateflowConfig | None = None):
        super().__init__(program)
        self.config = config or StateflowConfig()
        self.spawner = make_spawner(self.config.spawner)
        self.sim = sim or self.spawner.make_kernel()
        if self.config.fault_plan is not None and self.sim.real_time:
            raise RuntimeExecutionError(
                "fault plans drive simulator internals (virtual-time "
                "schedules, message hooks) and are not supported on a "
                "real clock; crash real workers directly via "
                "fail_worker() instead")
        self.network = Network(self.sim)
        self.broker = KafkaBroker(self.sim)
        #: Committed state sharded into hash slots dealt round-robin over
        #: the workers; routing (slot -> owner) and worker placement use
        #: the same table, so a worker always executes the keys whose
        #: slots it owns.  Rescaling rebalances the table and migrates
        #: the moved slots.
        self.committed = PartitionedStore(
            self.config.workers,
            slots=max(self.config.state_slots, self.config.workers))
        self.metrics = MetricRecorder()
        self._executor = OperatorExecutor(program.entities,
                                          check_state_serializable=False)
        #: Every worker ever created (index-stable); retired workers stay
        #: in place, dead, until a later rescale revives them.
        self.workers = [self.spawner.make_worker(self, index)
                        for index in range(self.config.workers)]
        hooks = CoordinatorHooks(
            dispatch=self._dispatch_to_worker,
            apply_writes=lambda index, writes, on_done:
            self.workers[index].apply_writes(writes, on_done),
            emit_reply=self._emit_reply,
            worker_of=self.worker_of,
            source_positions=lambda: self.broker.positions("stateflow-coord"),
            source_seek=self._seek_source,
            restore_workers=self._restore_workers,
            single_key_access=self._single_key_access,
            execute_single_key=lambda index, events, on_done:
            self.workers[index].execute_single_key(events, on_done),
            set_worker_count=self._set_worker_count,
            migrate_slot=self._migrate_slot,
            unacked_since=self._unacked_since,
            trim_source=self._trim_source)
        #: The closed-loop capacity controller, when enabled (a supplied
        #: policy implies enablement).  One controller per runtime: its
        #: windowed sampler state and decision log live outside the
        #: coordinator, so they survive coordinator crash/failover and
        #: the re-armed control tick resumes with its streak history.
        self.autoscaler: AutoscaleController | None = None
        if self.config.autoscale or self.config.autoscale_policy is not None:
            self.autoscaler = AutoscaleController(
                self.config.autoscale_policy)
        snapshots, changelog = make_durability_stores(self.config)
        #: Incremental materialized views (see :mod:`repro.views`): a
        #: subscriber of the changelog, folding each record's write
        #: footprint; registered through
        #: :meth:`~repro.query.engine.QueryEngine.register_view`.  Push
        #: subscriptions fan view updates out over the network substrate
        #: — one send per subscriber, never blocking the Aria commit —
        #: so they work identically on the simulator and the
        #: wallclock/process substrates.
        self.views = ViewManager(self.committed, clock=lambda: self.sim.now,
                                 log=changelog)
        changelog.subscribe(self.views.on_commit)
        self.views.transport = lambda deliver: self.network.send(
            deliver, src="coordinator", dst="view-subscribers")
        self.coordinator = Coordinator(self.sim, self.committed, hooks,
                                       self.config.coordinator,
                                       snapshots=snapshots,
                                       changelog=changelog, views=self.views,
                                       autoscaler=self.autoscaler)
        if self.config.rescale_plan is not None:
            for step in self.config.rescale_plan.validate().steps:
                self.sim.schedule_at(
                    max(step.at_ms, self.sim.now),
                    lambda workers=step.workers:
                    self.coordinator.request_rescale(workers))

        self.broker.create_topic(INGRESS_TOPIC, TOPIC_PARTITIONS)
        self.broker.create_topic(EGRESS_TOPIC, TOPIC_PARTITIONS)
        if self.config.channel_mode == "kafka":
            self.broker.create_topic(LOOPBACK_TOPIC, TOPIC_PARTITIONS)
            self.broker.subscribe("stateflow-workers", LOOPBACK_TOPIC,
                                  self._on_loopback_record)
        self.broker.subscribe("stateflow-coord", INGRESS_TOPIC,
                              self._on_ingress_record)
        self.broker.subscribe("stateflow-client", EGRESS_TOPIC,
                              self._on_egress_record)

        self._request_ids = iter(range(1, 1 << 62))
        self._sync_replies: dict[int, Event] = {}
        self._delivered: set[int] = set()
        self.duplicate_client_replies = 0
        self._reply_callbacks: dict[int, Callable[[Event], None]] = {}
        self._started = False
        #: Observer called with every deduplicated client reply (chaos
        #: harness trace capture); ``None`` = no tap.
        self.reply_tap: Callable[[Event], None] | None = None
        self.faults: FaultInjector | None = None
        if self.config.fault_plan is not None:
            self.faults = FaultInjector(
                self.config.fault_plan, sim=self.sim, network=self.network,
                broker=self.broker, workers=self.workers,
                coordinator=self.coordinator,
                rescaler=self.request_rescale,
                duplicable_topics=(INGRESS_TOPIC, EGRESS_TOPIC)).install()

    # -- partitioning ------------------------------------------------------
    def worker_of(self, entity: str, key: Any) -> int:
        """Worker placement == slot ownership (one shared routing
        table, see :class:`~repro.runtimes.state.SlotAssignment`)."""
        return self.committed.partition_of(entity, key)

    @property
    def worker_count(self) -> int:
        """Active workers under the current routing table."""
        return self.committed.assignment.workers

    # -- elasticity --------------------------------------------------------
    def request_rescale(self, workers: int) -> None:
        """Ask the coordinator to rescale to *workers* at the next batch
        boundary (the programmatic face of ``rescale_plan``)."""
        self.coordinator.request_rescale(workers)

    def _set_worker_count(self, count: int) -> None:
        """Size the active worker set: create or revive workers below
        *count*, retire the rest.  Worker objects are never removed —
        indices stay stable so routing tables and fault plans can name
        them across rescales."""
        while len(self.workers) < count:
            self.workers.append(
                self.spawner.make_worker(self, len(self.workers)))
        for index, worker in enumerate(self.workers):
            if index < count:
                worker.revive()
            elif not worker.retired:
                worker.retire()

    def _migrate_slot(self, slot: int, src: int, dst: int,
                      on_done: Callable[[], None]) -> None:
        """Ship one slot over the network: coordinator asks the old
        owner to capture, the whole slot travels worker-to-worker on the
        direct channels, the new owner installs and acks.  Every hop is
        subject to fault injection; incarnation tokens fence deliveries
        that outlive a recovery."""
        src_worker, dst_worker = self.workers[src], self.workers[dst]
        src_token = src_worker.incarnation
        dst_token = dst_worker.incarnation

        def ship(fragment: Any) -> None:
            def install() -> None:
                dst_worker.install_slot(
                    slot, fragment,
                    lambda: self.network.send(
                        on_done, src=f"worker-{dst}", dst="coordinator"),
                    incarnation=dst_token)

            self.network.send(install,
                              src=f"worker-{src}", dst=f"worker-{dst}")

        self.network.send(
            lambda: src_worker.capture_slot(slot, ship,
                                            incarnation=src_token),
            src="coordinator", dst=f"worker-{src}")

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the coordinator (call after any bulk pre-loading so the
        initial snapshot covers the loaded data)."""
        if not self._started:
            self._started = True
            self.coordinator.start()

    def preload(self, entity: str | type, rows: list[tuple]) -> list[EntityRef]:
        """Bulk-create entities directly in the committed store (bench
        dataset loading).  Must be called before :meth:`start`."""
        if self._started:
            raise RuntimeExecutionError(
                "preload() must run before the coordinator starts so the "
                "initial snapshot covers the data")
        name = entity if isinstance(entity, str) else entity.__name__
        compiled = self.program.entities[name]
        refs = []
        for args in rows:
            key, state = run_constructor(compiled, tuple(args))
            self.committed.put(name, key, state)
            refs.append(EntityRef(name, key))
        return refs

    # -- message routing ---------------------------------------------------
    def _dispatch_to_worker(self, event: Event,
                            src: str = "coordinator") -> None:
        index = self.worker_of(event.target.entity, event.target.key)
        self.workers[index].deliver(event, src=src)

    def _on_worker_out(self, event: Event, sender: int) -> None:
        if event.kind is EventKind.REPLY:
            self.coordinator.on_txn_report(event)
            return
        if self.config.channel_mode == "kafka":
            self.broker.produce(LOOPBACK_TOPIC,
                                key=f"{event.target.entity}|{event.target.key}",
                                value=event)
            return
        self._dispatch_to_worker(event, src=f"worker-{sender}")

    def _on_loopback_record(self, record: KafkaRecord) -> None:
        self._dispatch_to_worker(record.value, src="kafka-loopback")

    def _single_key_access(self, entity: str, method: str) -> str | None:
        """Single-key = unsplit state machine and not a constructor: the
        invocation touches only its target key's partition.  A read-only
        method's invocation reads it and writes nothing."""
        if method == "__init__":
            return None
        compiled = self.program.entities.get(entity)
        if compiled is None or method not in compiled.methods:
            return None
        compiled_method = compiled.methods[method]
        if compiled_method.machine.is_split:
            return None
        return "read" if compiled_method.read_only else "write"

    def _unacked_since(self) -> float | None:
        """When the oldest commit bucket a worker has not acked was
        sent (only a process worker ever reports one)."""
        return min((sent for worker in self.workers
                    if (sent := worker.unacked_since()) is not None),
                   default=None)

    def _restore_workers(self) -> None:
        for worker in self.workers:
            worker.restart()

    def _seek_source(self, offsets: dict) -> None:
        self.broker.pause("stateflow-coord")
        for (topic, partition), offset in offsets.items():
            self.broker.seek("stateflow-coord", topic, partition, offset)
        self.broker.resume("stateflow-coord")

    def _trim_source(self, floor: dict) -> None:
        """Kafka retention, run at every cut: ingress keeps what a
        retained cut can seek back to, egress what the client has not
        consumed yet."""
        for (topic, partition), offset in floor.items():
            self.broker.truncate_before(topic, partition, offset)
        for partition in range(TOPIC_PARTITIONS):
            self.broker.truncate_before(
                EGRESS_TOPIC, partition,
                self.broker.position("stateflow-client", EGRESS_TOPIC,
                                     partition))

    # -- ingress / egress ---------------------------------------------------
    def _is_transactional(self, entity: str, method: str | None) -> bool:
        descriptor = self.program.entities[entity].descriptor
        spec = descriptor.methods.get(method or "")
        return bool(spec and spec.is_transactional)

    def _on_ingress_record(self, record: KafkaRecord) -> None:
        event: Event = record.value
        self.coordinator.on_request(
            event, is_transactional_method=self._is_transactional(
                event.target.entity, event.method))

    def _emit_reply(self, reply: Event) -> None:
        self.broker.produce(EGRESS_TOPIC, key=reply.request_id, value=reply)

    def _on_egress_record(self, record: KafkaRecord) -> None:
        reply: Event = record.value
        request_id = reply.request_id
        if request_id in self._delivered:
            self.duplicate_client_replies += 1
            return
        self._delivered.add(request_id)
        if reply.ingress_time is not None:
            self.metrics.record(self.sim.now - reply.ingress_time,
                                self.sim.now, label=reply.error or "")
        if self.reply_tap is not None:
            self.reply_tap(reply)
        callback = self._reply_callbacks.pop(request_id, None)
        if callback is not None:
            callback(reply)
        else:
            self._sync_replies[request_id] = reply

    # -- client API ------------------------------------------------------
    def submit(self, ref: EntityRef, method: str, args: tuple,
               on_reply: Callable[[Event], None] | None = None) -> int:
        """Asynchronous client request (bench driver entry point)."""
        self.start()
        request_id = next(self._request_ids)
        event = Event(kind=EventKind.INVOKE, target=ref, method=method,
                      args=tuple(args), request_id=request_id,
                      ingress_time=self.sim.now)
        if on_reply is not None:
            self._reply_callbacks[request_id] = on_reply
        self.broker.produce(INGRESS_TOPIC,
                            key=f"{ref.entity}|{ref.key}", value=event)
        return request_id

    def _await_reply(self, request_id: int) -> Event:
        deadline = self.sim.now + SYNC_WAIT_MS
        arrived = self.sim.run_until(
            lambda: request_id in self._sync_replies, max_time=deadline)
        if not arrived:
            raise RuntimeExecutionError(
                f"no reply for request {request_id} within "
                f"{SYNC_WAIT_MS} ms of simulated time")
        return self._sync_replies.pop(request_id)

    def create(self, entity: str | type, *args: Any) -> EntityRef:
        name = entity if isinstance(entity, str) else entity.__name__
        request_id = self.submit(EntityRef(name, None), "__init__", args)
        reply = self._await_reply(request_id)
        result = InvocationResult(value=reply.payload, error=reply.error)
        return result.unwrap()

    def invoke(self, ref: EntityRef, method: str, *args: Any,
               ) -> InvocationResult:
        started = self.sim.now
        request_id = self.submit(ref, method, args)
        reply = self._await_reply(request_id)
        return InvocationResult(value=reply.payload, error=reply.error,
                                latency_ms=self.sim.now - started)

    def entity_state(self, ref: EntityRef) -> dict[str, Any] | None:
        return self.committed.get(ref.entity, ref.key)

    # -- failure injection ---------------------------------------------------
    def fail_worker(self, index: int, at_ms: float | None = None) -> None:
        """Kill a worker (state lost, events dropped) at simulated time
        *at_ms* (now if omitted).  Recovery restores it from the last
        snapshot automatically."""
        worker = self.workers[index]
        if at_ms is None:
            worker.kill()
        else:
            self.sim.schedule_at(at_ms, worker.kill)

    def fail_coordinator(self, at_ms: float | None = None,
                         *, failover_after_ms: float = 50.0) -> None:
        """Fail-stop the coordinator at *at_ms* (now if omitted); a
        standby takes over ``failover_after_ms`` later and recovers from
        the latest snapshot."""

        def crash() -> None:
            self.coordinator.crash()
            self.sim.schedule(failover_after_ms, self.coordinator.failover)

        if at_ms is None:
            crash()
        else:
            self.sim.schedule_at(at_ms, crash)

    def close(self) -> None:
        self.coordinator.stop()
        self.spawner.on_close(self)
        self.coordinator.snapshots.close()
        self.coordinator.changelog.close()
