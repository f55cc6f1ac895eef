"""Simulated infrastructure: DES kernel, network, Kafka, worker
spawners, the wall clock and the wire format."""

from .costs import KafkaConfig, LatencyModel, NetworkConfig
from .kafka import KafkaBroker, KafkaError, KafkaRecord
from .network import Network
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
