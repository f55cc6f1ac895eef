"""Simulated Apache Flink StateFun deployment (paper Section 3).

Architecture reproduced from the paper's description of its StateFun
integration and deployment (Section 4):

- a Kafka source pushes events to the ingress router (keyBy) inside the
  Flink cluster — which got *half* of the system CPUs; an ingress or
  loop-back record is keyed by its target's
  :func:`~repro.ir.dataflow.route_hash`;
- every function invocation round-trips over HTTP to a remote, stateless
  Python function runtime — the other half of the CPUs ("all functions
  need to go to an external Python runtime, the cost of reads and writes
  are the same due to the network costs");
- continuations of split functions and calls to other entities re-enter
  the dataflow **through Kafka** ("we use Kafka to re-insert an event to
  the streaming dataflow, thereby avoiding cyclic dataflows");
- Flink's network-buffer batching (buffer timeout) delays each internal
  hop: at low rates events wait out the timeout, at high rates buffers
  fill and flush early — the dominant latency term of Figure 3 and the
  reason StateFun's latency is flat across workloads and distributions;
- no locking and no transactions: concurrent events to the same key
  interleave freely (the paper notes the resulting race on split
  functions), and ``@transactional`` gives no atomicity here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ...compiler.pipeline import CompiledProgram
from ...core.errors import RuntimeExecutionError, UnsupportedFeatureError
from ...core.refs import EntityRef
from ...faults import FaultInjector, FaultPlan
from ...ir.dataflow import route_hash
from ...ir.events import Event, EventKind
from ...substrates.costs import cost_profile
from ...substrates.kafka import KafkaBroker, KafkaRecord
from ...substrates.network import Network
from ...substrates.simulation import CpuPool, MetricRecorder, Simulation
from ..base import InvocationResult, Runtime
from ..executor import OperatorExecutor, run_constructor
from ..state import DictStateBackend

INGRESS_TOPIC = "statefun-ingress"
EGRESS_TOPIC = "statefun-egress"
LOOPBACK_TOPIC = "statefun-loopback"
#: Partitions of the ingress and loop-back topics.
TOPIC_PARTITIONS = 4
#: "we gave half of the resources to the Flink cluster and the other to
#: the remote functions" — of the 6 system CPUs.
FLINK_CORES = 3
#: Flink network-buffer capacity: a buffer flushes early once full.
BUFFER_CAPACITY = 64
#: How long a synchronous ``create``/``invoke`` waits for its reply, in
#: simulated milliseconds.
SYNC_WAIT_MS = 60_000.0


class BatchingChannel:
    """Flink-style network buffer: items flush when the buffer fills or
    the buffer timeout elapses since the first buffered item.  Every
    flush bumps ``_generation``, which fences the timeout armed before
    it."""

    def __init__(self, sim: Simulation, timeout_ms: float, capacity: int,
                 on_flush: Callable[[list], None]):
        self.sim = sim
        self.timeout_ms = timeout_ms
        self.capacity = capacity
        self._on_flush = on_flush
        self._buffer: list = []
        self._generation = 0
        self.flushes = 0

    def push(self, item: Any) -> None:
        self._buffer.append(item)
        if len(self._buffer) >= self.capacity:
            self.flush()
        elif len(self._buffer) == 1:
            generation = self._generation
            self.sim.schedule(self.timeout_ms,
                              lambda: self._expire(generation))

    def _expire(self, generation: int) -> None:
        if generation == self._generation:
            self.flush()

    def flush(self) -> None:
        self._generation += 1
        if not self._buffer:
            return
        items, self._buffer = self._buffer, []
        self.flushes += 1
        self._on_flush(items)

    def __len__(self) -> int:
        return len(self._buffer)


@dataclass(slots=True)
class StatefunConfig:
    """Tunables of the simulated StateFun deployment."""

    #: The remote-function half of the 6 system CPUs (see
    #: ``FLINK_CORES``).
    function_cores: int = 3
    #: Raise on @transactional methods instead of running them without
    #: guarantees (the paper simply did not benchmark T on Statefun).
    strict_transactions: bool = False
    #: Deterministic fault schedule.  StateFun has no coordinator, no
    #: recovery and no named workers, so only a plan's message-level
    #: faults apply; process events are counted as skipped.  Drops are
    #: *not* recoverable here — that asymmetry against StateFlow is the
    #: paper's fault-tolerance claim made visible.
    fault_plan: FaultPlan | None = None


class StatefunRuntime(Runtime):
    """Simulated Flink StateFun deployment (see module docstring)."""

    name = "statefun"

    def __init__(self, program: CompiledProgram,
                 *, sim: Simulation | None = None,
                 config: StatefunConfig | None = None):
        super().__init__(program)
        self.config = config or StatefunConfig()
        self.sim = sim or Simulation()
        self.costs = cost_profile(self.sim)
        self.network = Network(self.sim)
        self.broker = KafkaBroker(self.sim)
        self.state = DictStateBackend()
        self.metrics = MetricRecorder()
        self.flink_cpu = CpuPool(self.sim, FLINK_CORES,
                                 name="flink")
        self.function_cpu = CpuPool(self.sim, self.config.function_cores,
                                    name="remote-functions")
        self._executor = OperatorExecutor(program.entities,
                                          check_state_serializable=False)
        self.task_channel = BatchingChannel(
            self.sim, self.costs.buffer_timeout_ms,
            BUFFER_CAPACITY, self._process_batch)
        self.sink_channel = BatchingChannel(
            self.sim, self.costs.buffer_timeout_ms,
            BUFFER_CAPACITY, self._sink_batch)

        self.broker.create_topic(INGRESS_TOPIC, TOPIC_PARTITIONS)
        self.broker.create_topic(LOOPBACK_TOPIC, TOPIC_PARTITIONS)
        self.broker.create_topic(EGRESS_TOPIC, 1)
        self.broker.subscribe("statefun-flink", INGRESS_TOPIC,
                              self._on_source_record)
        self.broker.subscribe("statefun-flink", LOOPBACK_TOPIC)
        self.broker.subscribe("statefun-client", EGRESS_TOPIC,
                              self._on_egress_record)

        self._request_ids = iter(range(1, 1 << 62))
        self._sync_replies: dict[int, Event] = {}
        self._reply_callbacks: dict[int, Callable[[Event], None]] = {}
        self.invocations = 0
        self.reply_tap: Callable[[Event], None] | None = None
        self.faults: FaultInjector | None = None
        if self.config.fault_plan is not None:
            self.faults = FaultInjector(
                self.config.fault_plan, sim=self.sim, network=self.network,
                broker=self.broker,
                duplicable_topics=(INGRESS_TOPIC, EGRESS_TOPIC)).install()

    # -- dataflow stages ---------------------------------------------------
    def _on_source_record(self, record: KafkaRecord) -> None:
        """Ingress router: keyBy on the entity key (Figure 2)."""
        event: Event = record.value
        self.flink_cpu.submit(self.costs.router_service_ms,
                              lambda: self.task_channel.push(event))

    def _process_batch(self, events: list[Event]) -> None:
        for event in events:
            self._process_event(event)

    def _process_event(self, event: Event) -> None:
        """Stateful operator task: read state, RPC to the remote function
        runtime, apply state effects, route outputs."""

        result: dict[str, list[Event]] = {}

        def with_state_read() -> None:
            def run_remote(done: Callable[[], None]) -> None:
                def execute() -> None:
                    self.invocations += 1
                    result["outbound"] = self._executor.handle(event,
                                                               self.state)
                    done()

                self.function_cpu.submit(self.costs.function_service_ms,
                                         execute)

            def on_response() -> None:
                self.flink_cpu.submit(
                    self.costs.state_service_ms,
                    lambda: self._route_outbound(result["outbound"]))

            self.network.rpc(run_remote, on_response)

        self.flink_cpu.submit(self.costs.state_service_ms, with_state_read)

    def _route_outbound(self, events: list[Event]) -> None:
        """Egress router: replies leave to the client sink; everything
        else loops back into the dataflow through Kafka."""
        for event in events:
            if event.kind is EventKind.REPLY:
                self.sink_channel.push(event)
            else:
                self.broker.produce(
                    LOOPBACK_TOPIC,
                    key=route_hash(event.target.entity, event.target.key),
                    value=event)

    def _sink_batch(self, replies: list[Event]) -> None:
        for reply in replies:
            self.broker.produce(EGRESS_TOPIC, key=reply.request_id,
                                value=reply)

    def _on_egress_record(self, record: KafkaRecord) -> None:
        reply: Event = record.value
        request_id = reply.request_id
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
    def _check_transactional(self, entity: str, method: str) -> None:
        descriptor = self.program.entities[entity].descriptor
        spec = descriptor.methods.get(method)
        if spec and spec.is_transactional and self.config.strict_transactions:
            raise UnsupportedFeatureError(
                f"{entity}.{method} is @transactional; Statefun offers no "
                f"support for transactions (paper Section 4)")

    def submit(self, ref: EntityRef, method: str, args: tuple,
               on_reply: Callable[[Event], None] | None = None) -> int:
        self._check_transactional(ref.entity, method)
        request_id = next(self._request_ids)
        event = Event(kind=EventKind.INVOKE, target=ref, method=method,
                      args=tuple(args), request_id=request_id,
                      ingress_time=self.sim.now)
        if on_reply is not None:
            self._reply_callbacks[request_id] = on_reply
        self.broker.produce(INGRESS_TOPIC,
                            key=route_hash(ref.entity, ref.key), value=event)
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
        return InvocationResult(value=reply.payload,
                                error=reply.error).unwrap()

    def invoke(self, ref: EntityRef, method: str, *args: Any,
               ) -> InvocationResult:
        started = self.sim.now
        request_id = self.submit(ref, method, args)
        reply = self._await_reply(request_id)
        return InvocationResult(value=reply.payload, error=reply.error,
                                latency_ms=self.sim.now - started)

    def preload(self, entity: str | type, rows: list[tuple]) -> list[EntityRef]:
        """Bulk-create entities directly in operator state (bench
        dataset loading)."""
        name = entity if isinstance(entity, str) else entity.__name__
        compiled = self.program.entities[name]
        refs = []
        for args in rows:
            key, state = run_constructor(compiled, tuple(args))
            self.state.put(name, key, state)
            refs.append(EntityRef(name, key))
        return refs

    def entity_state(self, ref: EntityRef) -> dict[str, Any] | None:
        return self.state.get(ref.entity, ref.key)
