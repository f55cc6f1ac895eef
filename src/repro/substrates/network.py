"""Network latency models for the simulated cluster.

Per-hop latencies are sampled from a log-normal distribution (the standard
heavy-tailed model for datacenter RPC latency); each model is seeded from
the simulation RNG, so runs are reproducible.

Fault injection (:mod:`repro.faults`) plugs in through ``fault_hook``: a
callable consulted once per :meth:`Network.send` that may return a
:class:`DeliveryFault` — drop the message, deliver extra copies, or add a
delay spike.  Senders may label messages with ``src``/``dst`` node names
so hooks can scope faults to network partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .simulation import Simulation


@dataclass(slots=True)
class DeliveryFault:
    """One message's injected fate, as decided by a fault hook.

    ``drop`` loses the message entirely; ``copies`` delivers that many
    duplicates (each with an independently sampled hop latency);
    ``extra_delay_ms`` adds a latency spike on top of the sampled hop.
    Large random spikes double as reordering: a delayed message arrives
    after its successors.
    """

    drop: bool = False
    copies: int = 0
    extra_delay_ms: float = 0.0


#: Hook signature: ``(src, dst) -> DeliveryFault | None`` for the network,
#: ``(op, name) -> DeliveryFault | None`` for the Kafka broker.
FaultHook = Callable[[str | None, str | None], "DeliveryFault | None"]


@dataclass(slots=True, frozen=True)
class LatencyModel:
    """Log-normal hop latency with a fixed floor.

    ``median_ms`` is the distribution's median; ``sigma`` the log-space
    standard deviation (tail heaviness); ``floor_ms`` a physical minimum.
    Immutable, so the distribution's location is derived once.
    """

    median_ms: float
    sigma: float = 0.3
    floor_ms: float = 0.01
    #: ``log(median_ms)``: the ``mu`` of every draw.
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu",
                           math.log(max(self.median_ms, 1e-9)))

    def sample(self, sim: Simulation) -> float:
        value = sim.rng.lognormvariate(self.mu, self.sigma)
        return max(value, self.floor_ms)

    def scaled(self, factor: float) -> "LatencyModel":
        return LatencyModel(median_ms=self.median_ms * factor,
                            sigma=self.sigma, floor_ms=self.floor_ms)


@dataclass(slots=True)
class NetworkConfig:
    """Latency profile of the simulated datacenter fabric."""

    #: One TCP hop between two nodes in the same cluster.
    intra_cluster: LatencyModel = None  # type: ignore[assignment]
    #: HTTP round-trip half (request *or* response) between the Flink
    #: cluster and the remote Python function runtime (StateFun only).
    rpc_hop: LatencyModel = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.intra_cluster is None:
            self.intra_cluster = LatencyModel(median_ms=0.25, sigma=0.25)
        if self.rpc_hop is None:
            self.rpc_hop = LatencyModel(median_ms=1.0, sigma=0.3)


class Network:
    """Delivers messages between simulated nodes with sampled latency."""

    def __init__(self, sim: Simulation, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        #: Fault-injection hook (see module docstring); ``None`` = a
        #: perfectly reliable fabric.
        self.fault_hook: FaultHook | None = None

    def send(self, callback: Callable[[], None],
             *, model: LatencyModel | None = None,
             size_bytes: int = 0,
             src: str | None = None, dst: str | None = None) -> None:
        """Deliver after one sampled hop (default: intra-cluster).

        ``src``/``dst`` are optional node labels used only to scope
        injected faults (partitions); they do not affect routing."""
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        fault = (self.fault_hook(src, dst)
                 if self.fault_hook is not None else None)
        chosen = model or self.config.intra_cluster
        if fault is not None:
            if fault.drop:
                self.messages_dropped += 1
                return
            for _ in range(fault.copies):
                self.messages_duplicated += 1
                self.sim.schedule(
                    chosen.sample(self.sim) + fault.extra_delay_ms, callback)
        latency = chosen.sample(self.sim)
        if fault is not None:
            latency += fault.extra_delay_ms
        self.sim.schedule(latency, callback)

    def rpc(self, execute: Callable[[Callable[[], None]], None],
            on_complete: Callable[[], None]) -> None:
        """Round trip to a remote service: request hop, then *execute*
        (which calls its continuation when the service finishes), then a
        response hop back to *on_complete*."""

        def deliver_request() -> None:
            execute(lambda: self.send(on_complete,
                                      model=self.config.rpc_hop))

        self.send(deliver_request, model=self.config.rpc_hop)
