"""Simulated infrastructure: DES kernel, network, Kafka, worker
spawners, the wall clock and the wire format."""

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
