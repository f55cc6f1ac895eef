"""Simulated infrastructure: DES kernel, network, Kafka, cluster."""

from .cluster import Cluster, ClusterLayout, Node
from .kafka import KafkaBroker, KafkaConfig, KafkaError, KafkaRecord
from .network import LatencyModel, Network, NetworkConfig
from .simulation import (
    CpuPool,
    MetricRecorder,
    Simulation,
    SimulationError,
)
from .spawner import (
    SPAWNERS,
    ProcessSpawner,
    SimulatorSpawner,
    Spawner,
    make_spawner,
)
from .wallclock import WallClock
from .wire import FrameDecoder, FrameError, decode_frame, encode_frame

__all__ = [
    "Cluster",
    "ClusterLayout",
    "CpuPool",
    "FrameDecoder",
    "FrameError",
    "KafkaBroker",
    "KafkaConfig",
    "KafkaError",
    "KafkaRecord",
    "LatencyModel",
    "MetricRecorder",
    "Network",
    "NetworkConfig",
    "Node",
    "ProcessSpawner",
    "SPAWNERS",
    "SimulatorSpawner",
    "Simulation",
    "SimulationError",
    "Spawner",
    "WallClock",
    "decode_frame",
    "encode_frame",
    "make_spawner",
]
