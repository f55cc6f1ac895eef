"""StateFlow: the paper's transactional dataflow prototype, simulated.

Deployment (Section 4): one single-core coordinator plus workers on the
remaining system cores (default 5).  Requests enter through a replayable
Kafka source; function-to-function communication uses direct inter-worker
channels (cyclic dataflow); every function — including its remote-call
state effects — executes as an ACID transaction under the Aria-style
deterministic protocol; consistent snapshots + source replay provide
exactly-once fault tolerance.

``channel_mode="kafka"`` degrades function-to-function communication to
Kafka loop-backs (what StateFun must do) — the ABL-COMM ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ...compiler.pipeline import CompiledProgram
from ...control import AutoscaleController, AutoscalePolicy
from ...core.errors import RuntimeExecutionError
from ...core.refs import EntityRef
from ...faults import FaultInjector, FaultPlan
from ...ir.events import Event, EventKind
from ...rescale import RescalePlan
from ...substrates.kafka import KafkaBroker, KafkaConfig, KafkaRecord
from ...substrates.network import LatencyModel, Network, NetworkConfig
from ...substrates.simulation import MetricRecorder, Simulation
from ...substrates.spawner import Spawner, make_spawner
from ...views import ViewManager
from ..base import InvocationResult, Runtime
from ..executor import OperatorExecutor, run_constructor
from ..state import PartitionedStore, SlotDelta, resolve_payload
from .coordinator import Coordinator, CoordinatorConfig, CoordinatorHooks
from .worker import Worker

INGRESS_TOPIC = "stateflow-ingress"
EGRESS_TOPIC = "stateflow-egress"
LOOPBACK_TOPIC = "stateflow-loopback"


def default_kafka_config() -> KafkaConfig:
    """Kafka latency profile shared by both simulated systems."""
    return KafkaConfig(
        produce_latency=LatencyModel(median_ms=5.0, sigma=0.35),
        fetch_latency=LatencyModel(median_ms=5.0, sigma=0.35))


@dataclass(slots=True)
class StateflowConfig:
    """Tunables of the simulated StateFlow deployment."""

    workers: int = 5
    #: Execution substrate (``--spawner``): "simulator" = deterministic
    #: virtual-time in-process workers (the default — every chaos,
    #: replay and equivalence test runs here); "process" = real OS
    #: processes on the wall clock, talking batched binary frames over
    #: pipes (the substrate whose bench numbers measure hardware).  A
    #: :class:`~repro.substrates.spawner.Spawner` instance also works.
    spawner: str | Spawner = "simulator"
    #: Worker CPU per event (block execution + messaging bundling).
    exec_service_ms: float = 0.3
    #: Worker CPU per committed key write.
    state_op_ms: float = 0.05
    #: "direct" = inter-worker channels; "kafka" = loop back through the
    #: broker on every hop (ablation ABL-COMM).
    channel_mode: str = "direct"
    #: Hash slots of the committed store (the granularity of elastic
    #: rescaling).  Fixed for the run; must be >= the largest worker
    #: count the run will rescale to.
    state_slots: int = 64
    #: Bounded epoch pipeline (``--pipeline-depth`` on the CLI): batches
    #: in flight at once — 1 = strictly serial batches, the default (2)
    #: overlaps a batch's execution with its predecessor's commit.
    #: ``None`` keeps whatever ``coordinator.pipeline_depth`` says; a
    #: value overrides it.
    pipeline_depth: int | None = None
    #: Snapshot mode (``--snapshot-mode``): "full" = every cut carries
    #: the whole committed state; "incremental" = cuts capture only the
    #: slots dirtied since the previous cut, chained to periodic full
    #: bases, with a per-commit changelog backing recovery (see
    #: :mod:`repro.runtimes.stateflow.snapshots`).  ``None`` keeps
    #: whatever ``coordinator.snapshot_mode`` says.
    snapshot_mode: str | None = None
    #: Commit changelog toggle (``--changelog``): ``None`` keeps
    #: ``coordinator.changelog_enabled``.
    changelog: bool | None = None
    #: Durability directory (``--durable``): when set, snapshots and
    #: the changelog live in file-backed stores under this path (see
    #: :mod:`repro.storage`) and a real process death recovers from
    #: disk on the next start.  ``None`` keeps the in-memory stores.
    durability_dir: str | None = None
    check_state_serializable: bool = False
    ingress_partitions: int = 4
    egress_partitions: int = 4
    coordinator: CoordinatorConfig = field(default_factory=CoordinatorConfig)
    kafka: KafkaConfig = field(default_factory=default_kafka_config)
    network: NetworkConfig = field(default_factory=NetworkConfig)
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
    sync_wait_ms: float = 120_000.0


class StateflowRuntime(Runtime):
    """Simulated StateFlow deployment (see module docstring)."""

    name = "stateflow"

    def __init__(self, program: CompiledProgram,
                 *, sim: Simulation | None = None,
                 config: StateflowConfig | None = None):
        super().__init__(program)
        self.config = config or StateflowConfig()
        coordinator_overrides: dict[str, Any] = {}
        if self.config.pipeline_depth is not None:
            coordinator_overrides["pipeline_depth"] = max(
                1, self.config.pipeline_depth)
        if self.config.snapshot_mode is not None:
            coordinator_overrides["snapshot_mode"] = self.config.snapshot_mode
        if self.config.changelog is not None:
            coordinator_overrides["changelog_enabled"] = self.config.changelog
        if self.config.durability_dir is not None:
            coordinator_overrides["durability_dir"] = \
                self.config.durability_dir
        if coordinator_overrides:
            # Fresh config objects, not in-place writes: the caller may
            # share a StateflowConfig or CoordinatorConfig across
            # runtimes.
            self.config = replace(
                self.config,
                coordinator=replace(self.config.coordinator,
                                    **coordinator_overrides))
        self.spawner = make_spawner(self.config.spawner)
        if self.config.fault_plan is not None and self.spawner.wallclock:
            raise RuntimeExecutionError(
                "fault plans drive simulator internals (virtual-time "
                "schedules, message hooks) and are not supported on the "
                "process spawner; crash real workers directly via "
                "fail_worker() instead")
        self.sim = sim or self.spawner.make_kernel()
        self.network = Network(self.sim, self.config.network)
        self.broker = KafkaBroker(self.sim, self.config.kafka)
        #: Committed state sharded into hash slots dealt round-robin over
        #: the workers; routing (slot -> owner) and worker placement use
        #: the same table, so a worker always executes the keys whose
        #: slots it owns.  Rescaling rebalances the table and migrates
        #: the moved slots.
        self.committed = PartitionedStore(
            self.config.workers,
            slots=max(self.config.state_slots, self.config.workers))
        self.metrics = MetricRecorder()
        self._executor = OperatorExecutor(
            program.entities,
            check_state_serializable=self.config.check_state_serializable)
        #: Every worker ever created (index-stable); retired workers stay
        #: in place, dead, until a later rescale revives them.
        self.workers = [self._make_worker(index)
                        for index in range(self.config.workers)]
        hooks = CoordinatorHooks(
            dispatch=self._dispatch_to_worker,
            apply_writes=self._apply_writes,
            emit_reply=self._emit_reply,
            worker_of=self.worker_of,
            source_positions=lambda: self.broker.positions("stateflow-coord"),
            source_seek=self._seek_source,
            restore_workers=self._restore_workers,
            is_single_key=self._is_single_key,
            execute_single_key=self._execute_single_key,
            set_worker_count=self._set_worker_count,
            migrate_slot=self._migrate_slot)
        #: The closed-loop capacity controller, when enabled (a supplied
        #: policy implies enablement).  One controller per runtime: its
        #: windowed sampler state and decision log live outside the
        #: coordinator, so they survive coordinator crash/failover and
        #: the re-armed control tick resumes with its streak history.
        self.autoscaler: AutoscaleController | None = None
        if self.config.autoscale or self.config.autoscale_policy is not None:
            self.autoscaler = AutoscaleController(
                self.config.autoscale_policy)
        self.coordinator = Coordinator(self.sim, self.committed, hooks,
                                       self.config.coordinator,
                                       autoscaler=self.autoscaler)
        #: Incremental materialized views (see :mod:`repro.views`):
        #: maintained off the commit path from each closed batch's write
        #: footprint; registered through
        #: :meth:`~repro.query.engine.QueryEngine.register_view`.  Push
        #: subscriptions fan view updates out over the network substrate
        #: — one send per subscriber, never blocking the Aria commit —
        #: so they work identically on the simulator and the
        #: wallclock/process substrates.
        self.views = ViewManager(
            self.committed, clock=lambda: self.sim.now,
            head=lambda: self.coordinator._last_closed)
        self.views.transport = lambda deliver: self.network.send(
            deliver, src="coordinator", dst="view-subscribers")
        self.coordinator.views = self.views
        if self.config.rescale_plan is not None:
            for step in self.config.rescale_plan.validate().steps:
                self.sim.schedule_at(
                    max(step.at_ms, self.sim.now),
                    lambda workers=step.workers:
                    self.coordinator.request_rescale(workers))

        self.broker.create_topic(INGRESS_TOPIC,
                                 self.config.ingress_partitions)
        self.broker.create_topic(EGRESS_TOPIC, self.config.egress_partitions)
        if self.config.channel_mode == "kafka":
            self.broker.create_topic(LOOPBACK_TOPIC,
                                     self.config.ingress_partitions)
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
        #: Slot-migration shipping ledger: how many slots travelled as
        #: base+delta fragments vs full copies, and the delta volume.
        self.migration_delta_slots = 0
        self.migration_full_slots = 0
        self.migration_delta_keys = 0
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

    def _make_worker(self, index: int) -> Worker:
        return self.spawner.make_worker(self, index)

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
            self.workers.append(self._make_worker(len(self.workers)))
        for index, worker in enumerate(self.workers):
            if index < count:
                worker.revive()
            elif not worker.retired:
                worker.retire()

    def _migrate_slot(self, slot: int, src: int, dst: int,
                      on_done: Callable[[], None],
                      *, allow_delta: bool = True) -> None:
        """Ship one slot over the network: coordinator asks the old
        owner to capture, the fragment travels worker-to-worker on the
        direct channels, the new owner installs and acks.  Every hop is
        subject to fault injection; incarnation tokens fence deliveries
        that outlive a recovery.

        Under ``snapshot_mode="incremental"`` the source captures only
        the slot's writes since the last durable cut (a ``SlotDelta``)
        and the destination composes them with the slot's base resolved
        from the snapshot store — only the delta crosses the
        worker-to-worker channel.  Composition is idempotent (absolute
        states), so a cut landing mid-flight is harmless; if the chain
        became unresolvable mid-flight (a torn cut), the migration
        restarts as a full-fragment ship."""
        src_worker, dst_worker = self.workers[src], self.workers[dst]
        src_token = src_worker.incarnation
        dst_token = dst_worker.incarnation
        incremental = (allow_delta
                       and self.config.coordinator.snapshot_mode
                       == "incremental"
                       and self.coordinator.snapshots.resolve_slot(slot)
                       is not None)
        mode = "delta" if incremental else "full"

        def ship(fragment: Any) -> None:
            def install() -> None:
                payload = fragment
                if isinstance(payload, SlotDelta):
                    # Destination side: fetch the slot's base from the
                    # durable snapshot store and replay the shipped
                    # delta over it.
                    base = self.coordinator.snapshots.resolve_slot(slot)
                    if base is None:
                        self._migrate_slot(slot, src, dst, on_done,
                                           allow_delta=False)
                        return
                    self.migration_delta_slots += 1
                    self.migration_delta_keys += payload.delta.key_count()
                    payload = resolve_payload(base, [payload.delta])
                else:
                    self.migration_full_slots += 1
                dst_worker.install_slot(
                    slot, payload,
                    lambda: self.network.send(
                        on_done, src=f"worker-{dst}", dst="coordinator"),
                    incarnation=dst_token)

            self.network.send(install,
                              src=f"worker-{src}", dst=f"worker-{dst}")

        self.network.send(
            lambda: src_worker.capture_slot(slot, ship,
                                            incarnation=src_token,
                                            mode=mode),
            src="coordinator", dst=f"worker-{src}")

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Start the coordinator (call after any bulk pre-loading so the
        initial snapshot covers the loaded data)."""
        if not self._started:
            self._started = True
            self.spawner.on_start(self)
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
        worker = self.workers[index]
        self.network.send(lambda: worker.deliver(event),
                          src=src, dst=f"worker-{index}")

    def _on_worker_out(self, event: Event, sender: int) -> None:
        src = f"worker-{sender}"
        if event.kind is EventKind.REPLY:
            self.network.send(lambda: self.coordinator.on_txn_report(event),
                              src=src, dst="coordinator")
            return
        if self.config.channel_mode == "kafka":
            self.broker.produce(LOOPBACK_TOPIC,
                                key=f"{event.target.entity}|{event.target.key}",
                                value=event)
            return
        self._dispatch_to_worker(event, src=src)

    def _on_loopback_record(self, record: KafkaRecord) -> None:
        self._dispatch_to_worker(record.value, src="kafka-loopback")

    def _is_single_key(self, entity: str, method: str) -> bool:
        """Single-key = unsplit state machine and not a constructor: the
        invocation touches only its target key's partition."""
        if method == "__init__":
            return False
        compiled = self.program.entities.get(entity)
        if compiled is None or method not in compiled.methods:
            return False
        return not compiled.methods[method].machine.is_split

    def _execute_single_key(self, worker_index: int, events: list,
                            on_done: Callable[[list], None]) -> None:
        worker = self.workers[worker_index]
        name = f"worker-{worker_index}"
        incarnation = worker.incarnation
        self.network.send(lambda: worker.execute_single_key(
            events, lambda replies: self.network.send(
                lambda: on_done(replies), src=name, dst="coordinator"),
            incarnation=incarnation),
            src="coordinator", dst=name)

    def _apply_writes(self, worker_index: int, writes: dict,
                      on_done: Callable[[], None]) -> None:
        worker = self.workers[worker_index]
        name = f"worker-{worker_index}"
        incarnation = worker.incarnation
        self.network.send(lambda: worker.apply_writes(
            writes, lambda: self.network.send(
                on_done, src=name, dst="coordinator"),
            incarnation=incarnation),
            src="coordinator", dst=name)

    def _restore_workers(self) -> None:
        for worker in self.workers:
            worker.restart()

    def _seek_source(self, offsets: dict) -> None:
        self.broker.pause("stateflow-coord")
        for (topic, partition), offset in offsets.items():
            self.broker.seek("stateflow-coord", topic, partition, offset)
        self.broker.resume("stateflow-coord")

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
        deadline = self.sim.now + self.config.sync_wait_ms
        arrived = self.sim.run_until(
            lambda: request_id in self._sync_replies, max_time=deadline)
        if not arrived:
            raise RuntimeExecutionError(
                f"no reply for request {request_id} within "
                f"{self.config.sync_wait_ms} ms of simulated time")
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
