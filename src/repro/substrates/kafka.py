"""A simulated Kafka: partitioned, replayable, keyed log.

The paper's deployments use Kafka as (i) the ingress/egress of both
systems, (ii) StateFun's loop-back channel for split-function
continuations, and (iii) the replayable source StateFlow's snapshot
recovery rewinds (Section 3).  This module reproduces the properties those
roles rely on: stable key partitioning, per-partition offset order,
consumer groups with seek/replay, and the kernel's produce/fetch latency
and broker CPU (:mod:`.costs`; the paper gave Kafka 4 of the 14 CPUs).

A record travels produce -> append -> commit -> fetch, one kernel event
per step.  A zeroed cost is free, not merely short: when produce and
fetch latency are the constant 0, the broker charges no CPU, no fault
hook watches and no producer awaits the ack, the record is appended as
it is produced and its delivery is the one kernel event it costs (every
broker on the real clock runs this way; the simulator's costs are never
zero).
Either way a delivery goes through the same pump, so offsets, per
partition order and the ``seek``/``pause`` fences behave alike.

Retention is the owner's call: :meth:`KafkaBroker.truncate_before`
drops a partition's records below an offset, the way a Kafka
``deleteRecords`` moves a log's start.  Offsets stay absolute (a
partition keeps its log-start offset), so positions, ``end_offset`` and
delivery order read as before, and a ``seek`` below the log start is a
:class:`KafkaError`.  A broker nobody truncates keeps every record.

A retried delivery is a fresh closure: one that rescheduled itself by
name would be a reference cycle, left for the cycle collector by every
record delivered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..ir.dataflow import stable_hash
from .costs import KafkaConfig, cost_profile
from .network import DeliveryFault
from .simulation import CpuPool, Simulation

#: How long a faulted (dropped/overtaken) fetch delivery waits before the
#: broker retries it — the simulated consumer's fetch backoff.
FETCH_RETRY_MS = 2.0
#: Broker CPU cores (the paper gave Kafka 4 of the 14 CPUs).
BROKER_CORES = 4


class KafkaError(Exception):
    """Topic/subscription misuse."""


@dataclass(slots=True)
class KafkaRecord:
    topic: str
    partition: int
    offset: int
    key: Any
    value: Any
    timestamp: float


@dataclass(slots=True, eq=False)
class _Partition:
    #: The retained records: offsets ``start, start + 1, ...``.
    records: list[KafkaRecord] = field(default_factory=list)
    #: Offset of ``records[0]`` (the log start; 0 until truncated).
    start: int = 0
    #: Arrival time of the latest in-flight produce; appends are ordered
    #: per partition (single-connection producer semantics).
    last_append: float = 0.0

    @property
    def end(self) -> int:
        return self.start + len(self.records)

    def append(self, record: KafkaRecord) -> int:
        record.offset = self.start + len(self.records)
        self.records.append(record)
        return record.offset


@dataclass(slots=True, eq=False)
class _GroupState:
    """One consumer group's position and delivery machinery.

    Deliveries are *pipelined*: every available record is scheduled
    immediately, ``fetch_latency`` ahead, subject to per-partition order
    (a record never arrives before its predecessor).  ``epoch`` fences
    stale scheduled deliveries after a seek or pause.
    """

    handler: Callable[[KafkaRecord], None]
    offsets: dict[tuple[str, int], int] = field(default_factory=dict)
    scheduled: dict[tuple[str, int], int] = field(default_factory=dict)
    last_arrival: dict[tuple[str, int], float] = field(default_factory=dict)
    epoch: int = 0
    paused: bool = False


class KafkaBroker:
    """In-process Kafka lookalike on the simulation clock."""

    def __init__(self, sim: Simulation, config: KafkaConfig | None = None):
        self.sim = sim
        self.config = config or cost_profile(sim).kafka
        self.cpu = CpuPool(sim, BROKER_CORES, name="kafka")
        self._topics: dict[str, list[_Partition]] = {}
        self._groups: dict[str, _GroupState] = {}
        #: topic -> {group: None}, in subscription order (a dict, so the
        #: delivery order of one record follows no string hash).
        self._subscriptions: dict[str, dict[str, None]] = {}
        self.records_produced = 0
        self.records_delivered = 0
        self.records_duplicated = 0
        self.deliveries_faulted = 0
        #: Fault hook ``(op, name) -> DeliveryFault | None`` where *op* is
        #: ``"produce"`` (name = topic) or ``"fetch"`` (name = group).
        #: The log itself is durable: a produce fault can duplicate or
        #: delay an append (at-least-once producer retries) but never
        #: lose it, and a faulted fetch delivery is retried until it
        #: lands — consumers see at-least-once, dedup is the reader's job.
        self.fault_hook: Callable[[str, str], DeliveryFault | None] | None \
            = None

    # -- topology ------------------------------------------------------
    def create_topic(self, name: str, partitions: int = 1) -> None:
        if partitions < 1:
            raise KafkaError("a topic needs at least one partition")
        if name in self._topics:
            raise KafkaError(f"topic {name!r} already exists")
        self._topics[name] = [_Partition() for _ in range(partitions)]
        self._subscriptions.setdefault(name, {})

    def partitions(self, topic: str) -> int:
        return len(self._topic(topic))

    def _topic(self, name: str) -> list[_Partition]:
        try:
            return self._topics[name]
        except KeyError:
            raise KafkaError(f"unknown topic {name!r}") from None

    # -- producing -------------------------------------------------------
    def partition_for(self, topic: str, key: Any) -> int:
        return stable_hash(key) % len(self._topic(topic))

    def _free(self, partition: _Partition) -> bool:
        """Whether a record on *partition* would travel a path that costs
        exactly nothing and that nobody observes: zero-constant produce
        and fetch latency, no broker CPU, no fault hook, and no earlier
        append still in flight."""
        config = self.config
        return (self.fault_hook is None and config.broker_cpu_ms == 0
                and config.produce_latency.free
                and config.fetch_latency.free
                and partition.last_append <= self.sim.now)

    def produce(self, topic: str, key: Any, value: Any,
                *, on_ack: Callable[[int, int], None] | None = None) -> None:
        """Append (after produce latency + broker CPU); then wake
        subscribed consumer groups.

        A record whose path is free (:meth:`_free`) and that nobody
        awaits an ack for is appended now and delivered one kernel event
        later, through the same append and delivery loop: the three
        zero-length steps of the chain below are one."""
        partition_index = self.partition_for(topic, key)
        partition = self._topics[topic][partition_index]
        if on_ack is None and self._free(partition):
            partition.append(KafkaRecord(topic, partition_index, -1, key,
                                         value, self.sim.now))
            self.records_produced += 1
            for group_name in self._subscriptions.get(topic, ()):
                self._pump(group_name, topic, partition_index)
            return
        fault = (self.fault_hook("produce", topic)
                 if self.fault_hook is not None else None)

        def append() -> None:
            copies = 1 + (fault.copies if fault is not None else 0)
            self.records_duplicated += copies - 1
            for _ in range(copies):
                record = KafkaRecord(topic, partition_index, -1, key, value,
                                     self.sim.now)
                offset = partition.append(record)
                self.records_produced += 1

            def committed() -> None:
                if on_ack is not None:
                    on_ack(partition_index, offset)
                for group_name in self._subscriptions.get(topic, ()):
                    self._pump(group_name, topic, partition_index)

            self.cpu.submit(self.config.broker_cpu_ms, committed)

        extra = fault.extra_delay_ms if fault is not None else 0.0
        arrival = max(self.sim.now + extra
                      + self.config.produce_latency.sample(self.sim),
                      partition.last_append)
        partition.last_append = arrival
        self.sim.schedule_at(arrival, append)

    # -- consuming -------------------------------------------------------
    def subscribe(self, group: str, topic: str,
                  handler: Callable[[KafkaRecord], None] | None = None,
                  ) -> None:
        """Attach *group* to *topic*.  The group's single handler receives
        records of every subscribed topic in per-partition offset order."""
        topic_partitions = self._topic(topic)
        state = self._groups.get(group)
        if state is None:
            if handler is None:
                raise KafkaError(
                    f"first subscription of group {group!r} needs a handler")
            state = _GroupState(handler=handler)
            self._groups[group] = state
        elif handler is not None:
            state.handler = handler
        for index, partition in enumerate(topic_partitions):
            state.offsets.setdefault((topic, index), partition.start)
        self._subscriptions[topic][group] = None
        for index in range(len(topic_partitions)):
            self._pump(group, topic, index)

    def seek(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Rewind a group (snapshot recovery uses this to replay).
        Fences every in-flight delivery of the group first.  An offset
        below the log start names records that are gone."""
        start = self._topic(topic)[partition].start
        if offset < start:
            raise KafkaError(
                f"offset {offset} of {topic}[{partition}] is below its "
                f"log start {start}")
        state = self._group(group)
        state.epoch += 1
        slot = (topic, partition)
        state.offsets[slot] = offset
        state.scheduled[slot] = offset
        state.last_arrival.pop(slot, None)
        self._pump(group, topic, partition)

    def position(self, group: str, topic: str, partition: int) -> int:
        return self._group(group).offsets.get((topic, partition), 0)

    def positions(self, group: str) -> dict[tuple[str, int], int]:
        return dict(self._group(group).offsets)

    def end_offset(self, topic: str, partition: int) -> int:
        return self._topic(topic)[partition].end

    def start_offset(self, topic: str, partition: int) -> int:
        """The log start: the oldest offset still held."""
        return self._topic(topic)[partition].start

    def truncate_before(self, topic: str, partition: int,
                        offset: int) -> None:
        """Drop the records of (topic, partition) below *offset* (the
        new log start); offsets of the rest do not change.  An offset
        at or below the log start drops nothing; one past the end is a
        :class:`KafkaError`."""
        log = self._topic(topic)[partition]
        if offset > log.end:
            raise KafkaError(
                f"offset {offset} of {topic}[{partition}] is past its "
                f"end {log.end}")
        if offset > log.start:
            del log.records[:offset - log.start]
            log.start = offset

    def pause(self, group: str) -> None:
        """Stop deliveries; in-flight scheduled ones are fenced."""
        state = self._group(group)
        state.paused = True
        state.epoch += 1
        # Anything scheduled but undelivered must be rescheduled later.
        for slot, offset in state.offsets.items():
            state.scheduled[slot] = offset

    def resume(self, group: str) -> None:
        state = self._group(group)
        if not state.paused:
            return
        state.paused = False
        for (topic, partition) in list(state.offsets):
            self._pump(group, topic, partition)

    def _group(self, name: str) -> _GroupState:
        try:
            return self._groups[name]
        except KeyError:
            raise KafkaError(f"unknown consumer group {name!r}") from None

    # -- delivery loop -----------------------------------------------------
    def _pump(self, group: str, topic: str, partition: int) -> None:
        """Schedule delivery of every not-yet-scheduled record of
        (topic, partition), pipelined, preserving offset order."""
        state = self._groups[group]
        if state.paused:
            return
        slot = (topic, partition)
        log = self._topics[topic][partition]
        records, start = log.records, log.start
        end = start + len(records)
        next_offset = state.scheduled.get(slot, state.offsets.get(slot, 0))
        epoch = state.epoch
        while next_offset < end:
            record = records[next_offset - start]
            latency = self.config.fetch_latency.sample(self.sim)
            arrival = max(self.sim.now + latency,
                          state.last_arrival.get(slot, 0.0))
            state.last_arrival[slot] = arrival
            self.sim.schedule_at(
                arrival, self._deliver(group, state, slot, record, epoch))
            next_offset += 1
        state.scheduled[slot] = next_offset

    def _deliver(self, group: str, state: _GroupState,
                 slot: tuple[str, int], record: KafkaRecord,
                 epoch: int) -> Callable[[], None]:
        def fire() -> None:
            if state.paused or state.epoch != epoch:
                return  # fenced by a seek/pause
            expected = state.offsets.get(slot, 0)
            if record.offset < expected:
                return  # already delivered past this point
            if record.offset > expected:
                # A predecessor's delivery was faulted and is still in
                # flight: retry later so per-partition order holds.
                self.sim.schedule(FETCH_RETRY_MS, self._deliver(
                    group, state, slot, record, epoch))
                return
            fault = (self.fault_hook("fetch", group)
                     if self.fault_hook is not None else None)
            if fault is not None and (fault.drop or fault.extra_delay_ms):
                # A faulted fetch is never lost — the consumer retries
                # after its backoff (plus any injected delay spike).
                self.deliveries_faulted += 1
                self.sim.schedule(FETCH_RETRY_MS + fault.extra_delay_ms,
                                  self._deliver(group, state, slot, record,
                                                epoch))
                return
            state.offsets[slot] = expected + 1
            self.records_delivered += 1
            state.handler(record)

        return fire
