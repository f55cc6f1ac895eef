"""The simulated cluster's network: sampled hop latency, injected faults.

Per-hop latencies are sampled from a log-normal distribution (the standard
heavy-tailed model for datacenter RPC latency, see
:class:`~repro.substrates.costs.LatencyModel`); each draw comes from the
kernel's seeded RNG, so runs are reproducible.  The models are the
kernel's cost profile unless a config is passed: on the real clock every
hop is free.

Fault injection (:mod:`repro.faults`) plugs in through ``fault_hook``: a
callable consulted once per :meth:`Network.send` that may return a
:class:`DeliveryFault` — drop the message, deliver extra copies, or add a
delay spike.  Senders may label messages with ``src``/``dst`` node names
so hooks can scope faults to network partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .costs import LatencyModel, NetworkConfig, cost_profile
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


class Network:
    """Delivers messages between simulated nodes with sampled latency."""

    def __init__(self, sim: Simulation, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or cost_profile(sim).network
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        #: Fault-injection hook (see module docstring); ``None`` = a
        #: perfectly reliable fabric.
        self.fault_hook: FaultHook | None = None

    def send(self, callback: Callable[[], None],
             *, model: LatencyModel | None = None,
             src: str | None = None, dst: str | None = None) -> None:
        """Deliver after one sampled hop (default: intra-cluster).

        ``src``/``dst`` are optional node labels used only to scope
        injected faults (partitions); they do not affect routing."""
        self.messages_sent += 1
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
