"""Pluggable execution substrates ("spawners") for StateFlow.

A :class:`Spawner` decides *where a worker runs and what time means*:

- :class:`SimulatorSpawner` (default) — workers are objects inside the
  deterministic single-threaded virtual-time
  :class:`~repro.substrates.simulation.Simulation`.  Perfectly
  reproducible; chaos, replay, rescale and every equivalence test run
  here, bit-for-bit identical to the pre-spawner code path.
- :class:`ProcessSpawner` — each worker is a real OS process driven by
  the :class:`~repro.substrates.wallclock.WallClock` kernel, connected
  to the coordinator over duplex pipes and to the other workers over
  direct channels, all carrying the batched binary frames of
  :mod:`repro.substrates.wire`.  Time is real, cores are real; this is
  the substrate whose bench numbers measure hardware.

The runtime asks its spawner for a kernel and for workers and otherwise
runs the exact same coordinator protocol on both; the spawner choice is
``StateflowConfig.spawner`` / ``repro run|bench --spawner``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .simulation import Simulation
from .wallclock import WallClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtimes.stateflow.runtime import StateflowRuntime


class Spawner:
    """Strategy for placing StateFlow workers on an execution kernel.

    ``make_worker`` must return an object with the full
    :class:`~repro.runtimes.stateflow.worker.Worker` surface — the
    runtime's hooks call it without knowing which substrate is behind
    it.
    """

    name = "abstract"
    #: Whether the kernel's clock is the host's real clock (bench
    #: reports use this to label rows simulator vs wallclock).
    wallclock = False

    def make_kernel(self, seed: int = 42) -> Any:
        raise NotImplementedError

    def make_worker(self, runtime: "StateflowRuntime", index: int) -> Any:
        raise NotImplementedError

    def on_start(self, runtime: "StateflowRuntime") -> None:
        """Hook before the coordinator starts."""

    def on_close(self, runtime: "StateflowRuntime") -> None:
        """Hook when the runtime closes (reap external resources)."""


class SimulatorSpawner(Spawner):
    """The existing deterministic in-process path, unchanged."""

    name = "simulator"
    wallclock = False

    def make_kernel(self, seed: int = 42) -> Simulation:
        return Simulation(seed)

    def make_worker(self, runtime: "StateflowRuntime", index: int) -> Any:
        from ..runtimes.stateflow.worker import Worker
        return Worker(index, runtime.sim, runtime._executor,
                      runtime.committed.partition(index),
                      (lambda event, sender=index:
                       runtime._on_worker_out(event, sender)),
                      exec_service_ms=runtime.config.exec_service_ms,
                      state_op_ms=runtime.config.state_op_ms,
                      committed_reader=runtime.committed)


class ProcessSpawner(Spawner):
    """Real OS processes on the wall clock."""

    name = "process"
    wallclock = True

    def make_kernel(self, seed: int = 42) -> WallClock:
        return WallClock(seed)

    def make_worker(self, runtime: "StateflowRuntime", index: int) -> Any:
        from ..runtimes.stateflow.procworker import ProcessWorkerProxy
        return ProcessWorkerProxy(
            index, runtime.sim, runtime.committed,
            runtime.program.entities,
            (lambda event, sender=index:
             runtime._on_worker_out(event, sender)),
            check_state_serializable=runtime.config.check_state_serializable,
            direct=runtime.config.channel_mode == "direct",
            peers=lambda: runtime.workers)

    def on_close(self, runtime: "StateflowRuntime") -> None:
        for worker in runtime.workers:
            shutdown = getattr(worker, "shutdown", None)
            if shutdown is not None:
                shutdown()


SPAWNERS: dict[str, type[Spawner]] = {
    SimulatorSpawner.name: SimulatorSpawner,
    ProcessSpawner.name: ProcessSpawner,
}


def make_spawner(spec: str | Spawner) -> Spawner:
    """Resolve a spawner name (or pass an instance through)."""
    if isinstance(spec, Spawner):
        return spec
    try:
        return SPAWNERS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown spawner {spec!r}; choose from "
            f"{sorted(SPAWNERS)}") from None
