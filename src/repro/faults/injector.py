"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`
against a simulated runtime.

Message-level faults ride the substrates' ``fault_hook`` interception
points (:class:`~repro.substrates.network.Network` and
:class:`~repro.substrates.kafka.KafkaBroker`); process faults (worker
crash, coordinator fail-over, partitions) are scheduled straight on the
simulation calendar.  Every probabilistic choice comes from a private
``random.Random(plan.seed)``, so a (plan, runtime-seed) pair is a fully
reproducible chaos scenario.

The injector binds to whatever the runtime exposes: ``network`` and
``broker`` enable message faults, ``workers`` enables worker crashes,
``coordinator`` enables fail-over.  Events a runtime cannot host are
counted in ``stats.skipped_events`` (StateFun and Local get the
message-level subset of any plan, per the ISSUE's conformance matrix).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from ..substrates.kafka import KafkaBroker
from ..substrates.network import DeliveryFault, Network
from ..substrates.simulation import Simulation
from .plan import FaultEvent, FaultPlan, MessageFaultProfile


@dataclass(slots=True)
class FaultStats:
    """What the injector actually did (one run's fault ledger)."""

    messages_seen: int = 0
    dropped: int = 0
    #: Duplicate rolls on the network channel that the sequenced
    #: transport suppressed (never delivered twice; see _network_hook).
    duplicates_suppressed: int = 0
    delayed: int = 0
    partition_drops: int = 0
    kafka_records_seen: int = 0
    kafka_duplicated: int = 0
    kafka_delayed: int = 0
    kafka_fetch_faults: int = 0
    worker_crashes: int = 0
    coordinator_crashes: int = 0
    partitions_opened: int = 0
    partitions_healed: int = 0
    rescales_requested: int = 0
    skipped_events: int = 0
    #: Simulation times of process-level faults (crashes, partitions) —
    #: the bench harness derives recovery-time metrics from these.
    disruption_times_ms: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in (
            "messages_seen", "dropped", "duplicates_suppressed", "delayed",
            "partition_drops", "kafka_records_seen", "kafka_duplicated",
            "kafka_delayed", "kafka_fetch_faults", "worker_crashes",
            "coordinator_crashes", "partitions_opened", "partitions_healed",
            "rescales_requested", "skipped_events")}


class FaultInjector:
    """Drives one plan against one simulated runtime (see module doc)."""

    def __init__(self, plan: FaultPlan, *, sim: Simulation,
                 network: Network | None = None,
                 broker: KafkaBroker | None = None,
                 workers: list[Any] | None = None,
                 coordinator: Any | None = None,
                 rescaler: Callable[[int], None] | None = None,
                 duplicable_topics: tuple[str, ...] | None = None):
        plan.validate()
        self.plan = plan
        self.sim = sim
        self.network = network
        self.broker = broker
        self.workers = workers
        self.coordinator = coordinator
        #: ``rescale`` events call this with the target worker count;
        #: runtimes without an elastic topology leave it unset and the
        #: events are counted as skipped.
        self.rescaler = rescaler
        #: Topics whose records may be duplicated (the runtime's dedup
        #: surface — ingress/egress).  ``None`` = every topic.
        self.duplicable_topics = duplicable_topics
        self.stats = FaultStats()
        self._rng = random.Random(plan.seed)
        #: Message windows, preprocessed: (start, end, channel, profile).
        self._windows: list[tuple[float, float, str, MessageFaultProfile]] = []
        #: Node -> number of open partitions isolating it (overlapping
        #: partitions heal independently).
        self._isolated: Counter[str] = Counter()
        self._installed = False

    # -- lifecycle -----------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm the hooks and schedule the plan's timed events."""
        if self._installed:
            return self
        self._installed = True
        for event in self.plan.events:
            if event.kind == "messages":
                self._windows.append((event.at_ms, event.until_ms,
                                      event.channel, event.profile))
            elif event.kind == "crash_worker":
                self._schedule_worker_crash(event)
            elif event.kind == "crash_coordinator":
                self._schedule_coordinator_crash(event)
            elif event.kind == "partition":
                self._schedule_partition(event)
            elif event.kind == "rescale":
                self._schedule_rescale(event)
        if self.network is not None and (self._windows or self._has_partitions):
            self.network.fault_hook = self._network_hook
        if self.broker is not None and self._windows:
            self.broker.fault_hook = self._kafka_hook
        return self

    @property
    def _has_partitions(self) -> bool:
        return any(event.kind == "partition" for event in self.plan.events)

    # -- message-level faults ------------------------------------------
    def _profile_at(self, channel: str) -> MessageFaultProfile | None:
        now = self.sim.now
        for start, end, window_channel, profile in self._windows:
            if window_channel not in (channel, "all"):
                continue
            if start <= now < end:
                return profile
        return None

    def _decide(self, profile: MessageFaultProfile,
                *, allow_drop: bool) -> DeliveryFault | None:
        """Roll the dice for one message.  The draw order is fixed
        (drop, duplicate, delay) so runs replay identically."""
        fault = DeliveryFault()
        hit = False
        if self._rng.random() < profile.drop_p:
            if allow_drop:
                fault.drop = True
                return fault
            hit = True  # kafka: a "dropped" fetch is a retried one
        if self._rng.random() < profile.duplicate_p:
            fault.copies = 1
            hit = True
        if self._rng.random() < profile.delay_p:
            fault.extra_delay_ms = self._rng.expovariate(
                1.0 / max(profile.delay_ms, 1e-9))
            hit = True
        return fault if hit else None

    def _is_isolated(self, node: str | None) -> bool:
        return node is not None and self._isolated[node] > 0

    def _network_hook(self, src: str | None,
                      dst: str | None) -> DeliveryFault | None:
        self.stats.messages_seen += 1
        if self._is_isolated(src) or self._is_isolated(dst):
            self.stats.partition_drops += 1
            return DeliveryFault(drop=True)
        profile = self._profile_at("network")
        if profile is None:
            return None
        fault = self._decide(profile, allow_drop=True)
        if fault is None:
            return None
        # Direct channels model sequenced transports (TCP): the receiver
        # suppresses duplicate segments, so a duplicate roll is a no-op
        # here.  Duplication is a log/producer phenomenon — it bites on
        # the kafka channel, against the runtime's dedup machinery.
        if fault.copies:
            self.stats.duplicates_suppressed += fault.copies
            fault.copies = 0
        if fault.drop:
            self.stats.dropped += 1
        if fault.extra_delay_ms:
            self.stats.delayed += 1
        return fault if (fault.drop or fault.extra_delay_ms) else None

    def _kafka_hook(self, op: str, name: str) -> DeliveryFault | None:
        self.stats.kafka_records_seen += 1
        profile = self._profile_at("kafka")
        if profile is None:
            return None
        fault = self._decide(profile, allow_drop=False)
        if fault is None:
            return None
        if op == "fetch":
            # The broker turns any fetch fault into a delayed retry; a
            # duplicate fetch is meaningless (the offset guard eats it).
            self.stats.kafka_fetch_faults += 1
            return DeliveryFault(drop=True,
                                 extra_delay_ms=fault.extra_delay_ms)
        if (self.duplicable_topics is not None
                and name not in self.duplicable_topics):
            # Mid-transaction continuation topics have no dedup surface;
            # only ingress/egress records may be duplicated.
            fault.copies = 0
        if fault.copies:
            self.stats.kafka_duplicated += fault.copies
        if fault.extra_delay_ms:
            self.stats.kafka_delayed += 1
        fault.drop = False
        return fault if (fault.copies or fault.extra_delay_ms) else None

    # -- process-level faults ------------------------------------------
    def _schedule_worker_crash(self, event: FaultEvent) -> None:
        if not self.workers:
            self.stats.skipped_events += 1
            return
        index = event.worker % len(self.workers)

        def crash() -> None:
            self.stats.worker_crashes += 1
            self.stats.disruption_times_ms.append(self.sim.now)
            self.workers[index].kill()

        self.sim.schedule_at(event.at_ms, crash)

    def _schedule_coordinator_crash(self, event: FaultEvent) -> None:
        if self.coordinator is None:
            self.stats.skipped_events += 1
            return

        def crash() -> None:
            self.stats.coordinator_crashes += 1
            self.stats.disruption_times_ms.append(self.sim.now)
            self.coordinator.crash()
            self.sim.schedule(max(event.duration_ms, 0.0),
                              self.coordinator.failover)

        self.sim.schedule_at(event.at_ms, crash)

    def _schedule_rescale(self, event: FaultEvent) -> None:
        if self.rescaler is None:
            self.stats.skipped_events += 1
            return

        def fire() -> None:
            # Not a disruption (no recovery-time sample): the rescale
            # pause is measured separately via the coordinator's
            # rescale_log.
            self.stats.rescales_requested += 1
            self.rescaler(event.target_workers)  # type: ignore[misc]

        # A plan installed on a clock already past its first resize
        # asks for it at once.
        self.sim.schedule_at(max(event.at_ms, self.sim.now), fire)

    def _schedule_partition(self, event: FaultEvent) -> None:
        if self.network is None or (self.workers is None
                                    and self.coordinator is None):
            # No named nodes -> the runtime's sends carry no src/dst
            # labels and a partition would be a physical no-op; counting
            # it as a disruption would fabricate recovery-time data.
            self.stats.skipped_events += 1
            return
        nodes = set(event.isolate)

        def open_partition() -> None:
            self.stats.partitions_opened += 1
            self.stats.disruption_times_ms.append(self.sim.now)
            self._isolated.update(nodes)

        def heal() -> None:
            self.stats.partitions_healed += 1
            self._isolated.subtract(nodes)

        self.sim.schedule_at(event.at_ms, open_partition)
        self.sim.schedule_at(event.until_ms, heal)
