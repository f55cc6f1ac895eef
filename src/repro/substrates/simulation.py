"""Discrete-event simulation kernel.

The paper's evaluation ran on a physical 14-CPU testbed; we substitute a
deterministic virtual-time simulator (see DESIGN.md §2).  Time is in
*milliseconds*.  The kernel is a classic calendar queue: callbacks are
scheduled at absolute virtual times and executed in order; ties break by
schedule order, so runs are fully deterministic for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable


class SimulationError(Exception):
    """Raised on kernel misuse (negative delays, running twice, ...)."""


@dataclass(slots=True, eq=False)
class ScheduledEvent:
    """Handle to a scheduled callback; ``cancel()`` to revoke."""

    time: float
    seq: int
    callback: Callable[[], None] | None

    def cancel(self) -> None:
        self.callback = None

    @property
    def cancelled(self) -> bool:
        return self.callback is None


#: A calendar entry: ``(time, seq, event)``.  ``seq`` is unique per
#: kernel, so the heap orders entries by comparing floats and ints in C
#: and never reaches the event handle.
QueueEntry = tuple[float, int, ScheduledEvent]


class Simulation:
    """Virtual clock + event calendar + seeded RNG."""

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
                 callback: Callable[[], None]) -> ScheduledEvent:
        """Run *callback* ``delay_ms`` from now (0 is allowed and runs
        after already-scheduled same-time events)."""
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        when = self._now + delay_ms
        seq = next(self._seq)
        event = ScheduledEvent(when, seq, callback)
        heapq.heappush(self._queue, (when, seq, event))
        return event

    def schedule_at(self, time_ms: float,
                    callback: Callable[[], None]) -> ScheduledEvent:
        if time_ms < self._now:
            raise SimulationError(
                f"cannot schedule in the past ({time_ms} < {self._now})")
        return self.schedule(time_ms - self._now, callback)

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; False when the calendar is empty."""
        while self._queue:
            when, _, event = heapq.heappop(self._queue)
            callback = event.callback
            if callback is None:  # cancelled
                continue
            self._now = when
            event.callback = None
            callback()
            self._processed += 1
            return True
        return False

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
            if self.step():
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
            while queue:
                when, _, event = pop(queue)
                callback = event.callback
                if callback is None:  # cancelled
                    continue
                self._now = when
                event.callback = None
                callback()
                self._processed += 1
                break
        return True

    # ------------------------------------------------------------------
    def pending(self) -> int:
        return sum(1 for _, _, event in self._queue if not event.cancelled)


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
        self.dropped: int = 0

    def record(self, value_ms: float, at_ms: float, label: str = "") -> None:
        self.samples.append(LatencySample(value_ms, at_ms, label))

    def values(self, label: str | None = None) -> list[float]:
        if label is None:
            return [s.value_ms for s in self.samples]
        return [s.value_ms for s in self.samples if s.label == label]

    def percentile(self, pct: float, label: str | None = None) -> float:
        values = sorted(self.values(label))
        if not values:
            return float("nan")
        if len(values) == 1:
            return values[0]
        rank = (pct / 100.0) * (len(values) - 1)
        low = int(rank)
        high = min(low + 1, len(values) - 1)
        fraction = rank - low
        return values[low] * (1 - fraction) + values[high] * fraction

    def mean(self, label: str | None = None) -> float:
        values = self.values(label)
        if not values:
            return float("nan")
        return sum(values) / len(values)

    def count(self, label: str | None = None) -> int:
        return len(self.values(label))
