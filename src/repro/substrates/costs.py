"""Modelled costs: what the simulator charges for work and transport it
does not really do.

A kernel's time is modelled (``Simulation``) or real (``WallClock``), and
:func:`cost_profile` maps that one fact to the simulator's numbers
(:data:`MODELLED`) or to :data:`ZERO`: on a real clock a modelled
millisecond would be a real timer every request sits out.  Every
runtime, simulated worker, coordinator, broker and network reads its
costs from its kernel's profile once, when built; no config carries one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import NV_MAGICCONST
from typing import Any


@dataclass(slots=True, frozen=True)
class LatencyModel:
    """Log-normal hop latency with a fixed floor.

    ``median_ms`` is the distribution's median; ``sigma`` the log-space
    standard deviation (tail heaviness); ``floor_ms`` a physical minimum.
    Immutable, so the distribution's location is derived once.  With
    ``sigma == 0`` the model is the constant ``max(median_ms, floor_ms)``
    and draws nothing from the RNG.
    """

    median_ms: float
    sigma: float = 0.3
    floor_ms: float = 0.01
    #: ``log(median_ms)``: the ``mu`` of every draw.
    mu: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu",
                           math.log(max(self.median_ms, 1e-9)))

    @property
    def free(self) -> bool:
        """Whether every draw is exactly 0 ms (and draws nothing)."""
        return not self.sigma and max(self.median_ms, self.floor_ms) == 0

    def sample(self, sim: Any) -> float:
        if not self.sigma:
            return max(self.median_ms, self.floor_ms)
        # ``sim.rng.lognormvariate(self.mu, self.sigma)``, inlined (a draw
        # runs on every modelled hop and Kafka step, and its two nested
        # calls cost more than the loop): the draws and floats are its own.
        random = sim.rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
        value = math.exp(self.mu + z * self.sigma)
        return value if value > self.floor_ms else self.floor_ms


@dataclass(slots=True, frozen=True)
class KafkaConfig:
    """Latency and CPU profile of the simulated Kafka broker."""

    produce_latency: LatencyModel
    fetch_latency: LatencyModel
    #: Broker-side CPU per record (appending + serving fetches).
    broker_cpu_ms: float


@dataclass(slots=True, frozen=True)
class NetworkConfig:
    """Latency profile of the simulated datacenter fabric."""

    #: One TCP hop between two nodes in the same cluster.
    intra_cluster: LatencyModel
    #: HTTP round-trip half (request *or* response) between the Flink
    #: cluster and the remote Python function runtime (StateFun only).
    rpc_hop: LatencyModel


@dataclass(slots=True, frozen=True)
class CostProfile:
    """Every modelled cost of both simulated systems."""

    #: StateFlow worker CPU per event and per committed key write.
    exec_service_ms: float
    state_op_ms: float
    #: Coordinator CPU per batch member for conflict detection (five
    #: members' worth is the fixed part) and for dispatch.
    conflict_check_ms_per_txn: float
    dispatch_ms_per_txn: float
    #: An idle coordinator seals this fraction of ``batch_interval_ms``
    #: after an admission, so near-simultaneous arrivals share a batch.
    idle_seal_fraction: float
    #: StateFun: Flink CPU per routed event and per state access, remote
    #: function CPU per invocation, and Flink's network-buffer timeout.
    router_service_ms: float
    state_service_ms: float
    function_service_ms: float
    buffer_timeout_ms: float
    kafka: KafkaConfig
    network: NetworkConfig


_KAFKA_HOP = LatencyModel(median_ms=5.0, sigma=0.35)
_FREE = LatencyModel(median_ms=0.0, sigma=0.0, floor_ms=0.0)

#: The simulator's costs.
MODELLED = CostProfile(
    exec_service_ms=0.3, state_op_ms=0.05, conflict_check_ms_per_txn=0.01,
    dispatch_ms_per_txn=0.02, idle_seal_fraction=0.25,
    router_service_ms=0.04, state_service_ms=0.06, function_service_ms=1.0,
    buffer_timeout_ms=25.0,
    kafka=KafkaConfig(produce_latency=_KAFKA_HOP, fetch_latency=_KAFKA_HOP,
                      broker_cpu_ms=0.01),
    network=NetworkConfig(
        intra_cluster=LatencyModel(median_ms=0.25, sigma=0.25),
        rpc_hop=LatencyModel(median_ms=1.0, sigma=0.3)))

#: The real clock's costs: none, and no latency draw touches the RNG.
ZERO = CostProfile(
    exec_service_ms=0.0, state_op_ms=0.0, conflict_check_ms_per_txn=0.0,
    dispatch_ms_per_txn=0.0, idle_seal_fraction=0.0,
    router_service_ms=0.0, state_service_ms=0.0, function_service_ms=0.0,
    buffer_timeout_ms=0.0,
    kafka=KafkaConfig(produce_latency=_FREE, fetch_latency=_FREE,
                      broker_cpu_ms=0.0),
    network=NetworkConfig(intra_cluster=_FREE, rpc_hop=_FREE))


def cost_profile(kernel: Any) -> CostProfile:
    """The costs a component on *kernel* charges: none on a real clock."""
    return ZERO if kernel.real_time else MODELLED
