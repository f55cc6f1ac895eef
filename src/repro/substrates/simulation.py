"""Discrete-event simulation kernel.

The paper's evaluation ran on a physical 14-CPU testbed; we substitute a
deterministic virtual-time simulator (see DESIGN.md §2).  Time is in
*milliseconds*.  The kernel is a classic calendar queue: callbacks are
scheduled at absolute virtual times and executed in order; ties break by
schedule order, so runs are fully deterministic for a given seed.

A calendar entry is the bare tuple ``(time, seq, callback)``: scheduling
is one heap push, returns no handle, and cannot be undone.  A callback
that may go stale checks a generation counter when it fires instead.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable


class SimulationError(Exception):
    """Raised on kernel misuse (negative delays, running twice, ...)."""


#: A calendar entry: ``(time, seq, callback)``.  ``seq`` is unique per
#: kernel, so the heap orders entries by comparing floats and ints in C
#: and never reaches the callback.
QueueEntry = tuple[float, int, Callable[[], None]]


class Simulation:
    """Virtual clock + event calendar + seeded RNG."""

    #: Time is modelled: work costs what :mod:`.costs` models.
    real_time = False

    def __init__(self, seed: int = 42):
        self.seed = seed
        self.rng = random.Random(seed)
        self._now = 0.0
        self._queue: list[QueueEntry] = []
        self._seq = itertools.count()
        self._processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    def schedule(self, delay_ms: float,
                 callback: Callable[[], None]) -> None:
        """Run *callback* ``delay_ms`` from now (0 is allowed and runs
        after already-scheduled same-time events)."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        heapq.heappush(self._queue,
                       (self._now + delay_ms, next(self._seq), callback))

    def schedule_at(self, time_ms: float,
                    callback: Callable[[], None]) -> None:
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time_ms} < {self._now})")
        self.schedule(time_ms - self._now, callback)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; False when the calendar is empty."""
        if not self._queue:
            return False
        self._now, _, callback = heapq.heappop(self._queue)
        callback()
        self._processed += 1
        return True

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Drain the calendar, optionally stopping at virtual time
        *until* or after *max_events* callbacks."""
        executed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self._now = until
                return
            if max_events is not None and executed >= max_events:
                return
            self.step()
            executed += 1

    def run_until(self, predicate: Callable[[], bool],
                  *, max_time: float = float("inf")) -> bool:
        """Run until *predicate* holds; False if the calendar drained or
        ``max_time`` passed first."""
        queue = self._queue
        pop = heapq.heappop
        while not predicate():
            if not queue or queue[0][0] > max_time:
                return False
            # One :meth:`step`, inlined: this loop runs once per event
            # of every driven workload.
            self._now, _, callback = pop(queue)
            callback()
            self._processed += 1
        return True

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return len(self._queue)


class CpuPool:
    """A node's processing capacity: *cores* servers with FIFO queueing.

    ``submit`` requests ``service_ms`` of CPU; the completion callback
    fires when a core has finished the work.  Queueing delay under load is
    what produces the latency knees of Figure 4.
    """

    def __init__(self, sim: Simulation, cores: int, name: str = "cpu"):
        if cores < 1:
            raise SimulationError("CpuPool needs at least one core")
        self.sim = sim
        self.name = name
        #: Per core, the time it is booked until.
        self.busy_until = [0.0] * cores
        self.busy_ms = 0.0
        self.completed_tasks = 0

    def submit(self, service_ms: float,
               callback: Callable[[], None]) -> float:
        """Schedule *service_ms* of work; returns the completion time."""
        if service_ms < 0:
            raise SimulationError(f"negative service time {service_ms}")
        busy_until = self.busy_until
        # The earliest-free core, the first of them on a tie.
        earliest = min(busy_until)
        finish = max(earliest, self.sim.now) + service_ms
        busy_until[busy_until.index(earliest)] = finish
        self.busy_ms += service_ms
        self.completed_tasks += 1
        self.sim.schedule_at(finish, callback)
        return finish

    def utilisation(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return min(self.busy_ms / (elapsed_ms * len(self.busy_until)), 1.0)

    @property
    def queue_depth_ms(self) -> float:
        """How far the least-loaded core is booked beyond *now*."""
        return max(0.0, min(self.busy_until) - self.sim.now)


def percentile(values: list[float], pct: float) -> float:
    """The *pct*-th percentile of *values*, interpolated linearly between
    the two nearest ranks; ``nan`` when there are none."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


@dataclass(slots=True)
class LatencySample:
    """One recorded end-to-end latency."""

    value_ms: float
    at_ms: float
    label: str = ""


class MetricRecorder:
    """Collects latency samples and computes percentiles."""

    def __init__(self) -> None:
        self.samples: list[LatencySample] = []

    def record(self, value_ms: float, at_ms: float, label: str = "") -> None:
        self.samples.append(LatencySample(value_ms, at_ms, label))

    def values(self, label: str | None = None) -> list[float]:
        if label is None:
            return [s.value_ms for s in self.samples]
        return [s.value_ms for s in self.samples if s.label == label]

    def percentile(self, pct: float, label: str | None = None) -> float:
        return percentile(self.values(label), pct)

    def mean(self, label: str | None = None) -> float:
        values = self.values(label)
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def count(self, label: str | None = None) -> int:
        return len(self.values(label))
