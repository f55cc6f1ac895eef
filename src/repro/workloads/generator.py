"""Open-loop benchmark client (the paper's "benchmark clients").

Drives a simulated runtime with Poisson arrivals at a target request rate
— YCSB's target-throughput mode — recording per-operation end-to-end
latency on the runtime's virtual clock.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..ir.events import Event
from ..substrates.simulation import MetricRecorder
from .ycsb import YcsbWorkload


@dataclass(slots=True)
class LoadResult:
    """Outcome of one load run."""

    recorder: MetricRecorder
    sent: int
    completed: int
    errors: int
    duration_ms: float
    rps: float

    def percentile(self, pct: float, label: str | None = None) -> float:
        return self.recorder.percentile(pct, label)

    def mean(self, label: str | None = None) -> float:
        return self.recorder.mean(label)

    @property
    def completion_rate(self) -> float:
        return self.completed / self.sent if self.sent else 0.0

    @property
    def achieved_rps(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.completed / (self.duration_ms / 1000.0)


@dataclass(slots=True)
class DriverConfig:
    rps: float = 100.0
    duration_ms: float = 20_000.0
    warmup_ms: float = 2_000.0
    #: Extra virtual time allowed for in-flight requests to finish.
    drain_ms: float = 5_000.0
    #: Stop as soon as every sent request has completed instead of
    #: sitting out the full drain window.  Essential on the wall-clock
    #: substrate, where an idle drain is real seconds, not free virtual
    #: time.
    stop_when_drained: bool = False
    seed: int = 23


class WorkloadDriver:
    """Submits a YCSB operation stream to a simulated runtime.

    The runtime must expose ``sim`` (the simulation) and
    ``submit(ref, method, args, on_reply)`` — both the StateFun-style and
    StateFlow runtimes do.
    """

    def __init__(self, runtime, workload: YcsbWorkload,
                 config: DriverConfig | None = None):
        self.runtime = runtime
        self.workload = workload
        self.config = config or DriverConfig()
        self.recorder = MetricRecorder()
        self.sent = 0
        self.completed = 0
        self.errors = 0
        self._arrivals = random.Random(self.config.seed)
        self._started_at = 0.0
        self._end_at = 0.0

    # ------------------------------------------------------------------
    def _interarrival_ms(self) -> float:
        return self._arrivals.expovariate(self.config.rps) * 1000.0

    def _submit_one(self) -> None:
        operation = self.workload.next_operation()
        submitted_at = self.runtime.sim.now
        label = operation.label
        self.sent += 1

        def on_reply(reply: Event) -> None:
            self.completed += 1
            if reply.error is not None:
                self.errors += 1
            if submitted_at - self._started_at >= self.config.warmup_ms:
                self.recorder.record(self.runtime.sim.now - submitted_at,
                                     self.runtime.sim.now, label=label)

        self.runtime.submit(operation.ref, operation.method, operation.args,
                            on_reply=on_reply)

    def _arrive(self) -> None:
        if self.runtime.sim.now >= self._end_at:
            return
        self._submit_one()
        self.runtime.sim.schedule(self._interarrival_ms(), self._arrive)

    def run(self) -> LoadResult:
        """Generate arrivals for ``duration_ms`` of virtual time, then let
        in-flight requests drain; returns latency statistics (samples
        after warm-up only)."""
        sim = self.runtime.sim
        self._started_at = sim.now
        end_at = self._end_at = sim.now + self.config.duration_ms
        sim.schedule(self._interarrival_ms(), self._arrive)
        if self.config.stop_when_drained:
            sim.run_until(
                lambda: sim.now >= end_at and self.completed >= self.sent,
                max_time=end_at + self.config.drain_ms)
        else:
            sim.run(until=end_at + self.config.drain_ms)
        return LoadResult(
            recorder=self.recorder,
            sent=self.sent,
            completed=self.completed,
            errors=self.errors,
            duration_ms=self.config.duration_ms,
            rps=self.config.rps)
