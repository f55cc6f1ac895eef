"""Wall-clock execution kernel for the process substrate.

:class:`WallClock` is duck-type compatible with
:class:`repro.substrates.simulation.Simulation` — same ``now`` /
``schedule`` / ``schedule_at`` / ``run`` / ``run_until`` surface, same
millisecond time unit, same seeded ``rng`` — but time is the host's
monotonic clock instead of a virtual calendar.  The StateFlow
coordinator, Kafka broker model and CPU pools run on it unmodified;
only the passage of time is real, and so every modelled cost they
charge is zero (``real_time``).

Two differences from the simulator, both forced by real clocks:

* ``schedule_at`` **clamps** past deadlines to "now" instead of raising.
  Virtual time cannot race the scheduler; a real clock advances between
  computing a deadline and scheduling it, so "already past" is a normal
  occurrence (per-partition ``last_append`` arithmetic in the broker,
  CPU-pool backlogs), not a bug.
* The event loop multiplexes **I/O**: duplex connections to worker
  processes are registered with a handler, and the loop blocks in
  :func:`multiprocessing.connection.wait` for whichever comes first —
  the next timer or an inbound frame.

Calendar entries have the simulator's shape and cannot be cancelled.
"""

from __future__ import annotations

import heapq
import random
import time
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable

from .simulation import QueueEntry, SimulationError

#: Longest single poll (ms): keeps the loop responsive to newly
#: scheduled timers and to ``run(until=...)`` bounds.
_MAX_POLL_MS = 50.0

#: Below this slice the loop busy-polls (non-blocking I/O check, then
#: re-reads the clock) instead of blocking.  Blocking waits on Linux
#: overshoot by up to a scheduler tick (~1 ms), which would put a hard
#: ~1 ms floor under every sub-millisecond timer; a request path that
#: crosses a dozen such hops would inflate from ~3 ms modelled to
#: ~15 ms real purely from sleep granularity.  Spinning costs at most
#: this many ms of CPU per short wait.
_SPIN_SLICE_MS = 1.0

#: A timer set at least this far ahead (ms) is waited for by blocking,
#: never by spinning: a scheduler tick of overshoot is a sliver of its
#: delay, and the periodic ticks of the coordinator (10 ms batch, 40 ms
#: epoch, ...) would otherwise burn the last millisecond of every
#: period in non-blocking polls.
_COARSE_DELAY_MS = 5.0


class WallClock:
    """Real-time event kernel with the Simulation's scheduling surface.

    ``now`` is milliseconds since construction (monotonic).  Callbacks
    run on the single thread that calls :meth:`run` / :meth:`run_until`,
    so the runtime keeps the simulator's no-data-races property even
    though workers execute in parallel processes.
    """

    #: Time is real: every modelled cost is zero (:mod:`.costs`).
    real_time = True

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self._origin = time.monotonic()
        self._queue: list[QueueEntry] = []
        self._seq = 0
        #: ``seq`` of every queued timer set ``_COARSE_DELAY_MS`` or more
        #: ahead.
        self._coarse: set[int] = set()
        self.processed_events = 0
        self._connections: dict[Any, Callable[[bytes], None]] = {}

    @property
    def now(self) -> float:
        return (time.monotonic() - self._origin) * 1000.0

    # -- scheduling (Simulation-compatible) -----------------------------

    def schedule(self, delay_ms: float,
                 callback: Callable[[], None]) -> None:
        if delay_ms < 0:
            raise SimulationError(f"negative delay {delay_ms}")
        self._push(self.now + delay_ms, callback,
                   delay_ms >= _COARSE_DELAY_MS)

    def schedule_at(self, time_ms: float,
                    callback: Callable[[], None]) -> None:
        # Clamp instead of raising: see module docstring.
        now = self.now
        self._push(max(time_ms, now), callback,
                   time_ms - now >= _COARSE_DELAY_MS)

    def _push(self, when: float, callback: Callable[[], None],
              coarse: bool) -> None:
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (when, seq, callback))
        if coarse:
            self._coarse.add(seq)

    def pending(self) -> int:
        return len(self._queue)

    # -- connection multiplexing ----------------------------------------

    def register_connection(self, conn: Any,
                            handler: Callable[[bytes], None]) -> None:
        """Route inbound frames from ``conn`` (``recv_bytes`` payloads)
        to ``handler`` whenever the loop polls."""
        self._connections[conn] = handler

    def unregister_connection(self, conn: Any) -> None:
        self._connections.pop(conn, None)

    def _poll(self, timeout_ms: float) -> None:
        """Wait up to ``timeout_ms`` (0 = a non-blocking check) for any
        connection to be ready, then drain every ready one: a burst of
        frames costs one wait, not one per frame."""
        if not self._connections:
            if timeout_ms > 0:
                time.sleep(timeout_ms / 1000.0)
            return
        ready = _conn_wait(list(self._connections),
                           timeout=max(timeout_ms, 0.0) / 1000.0)
        for conn in ready:
            while True:
                handler = self._connections.get(conn)
                if handler is None:
                    break  # unregistered by a handler of this round
                try:
                    payload = conn.recv_bytes()
                except (EOFError, OSError):
                    # Peer died: drop the registration; the runtime's
                    # failure detector owns the recovery decision.
                    self._connections.pop(conn, None)
                    break
                handler(payload)
                if conn not in self._connections or not conn.poll():
                    break

    # -- event loop -----------------------------------------------------

    def _dispatch_due(self) -> int:
        fired = 0
        while self._queue and self._queue[0][0] <= self.now:
            _, seq, callback = heapq.heappop(self._queue)
            self._coarse.discard(seq)
            callback()
            self.processed_events += 1
            fired += 1
        return fired

    def _slice(self) -> float:
        """How long the loop may wait for I/O: until the next timer, at
        most ``_MAX_POLL_MS``, and not at all (a spin) while a timer
        that is not coarse is due within ``_SPIN_SLICE_MS`` — so short
        timers fire within microseconds instead of a scheduler tick."""
        if not self._queue:
            return _MAX_POLL_MS
        when, seq, _ = self._queue[0]
        left = when - self.now
        if left < _SPIN_SLICE_MS and seq not in self._coarse:
            return 0.0
        return min(max(left, 0.0), _MAX_POLL_MS)

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Drive timers and I/O until ``until`` (ms on this clock).
        Unlike the simulator there is no "queue exhausted" early return
        while connections are registered — inbound frames can schedule
        new work at any moment."""
        budget = max_events
        while True:
            if until is not None and self.now >= until:
                return
            fired = self._dispatch_due()
            if budget is not None:
                budget -= fired
                if budget <= 0:
                    return
            if not self._queue and not self._connections:
                return
            slice_ms = self._slice()
            if until is not None:
                slice_ms = min(slice_ms, max(until - self.now, 0.0))
            self._poll(slice_ms)

    def run_until(self, predicate: Callable[[], bool],
                  *, max_time: float = float("inf")) -> bool:
        """Run until ``predicate()`` holds; False once the clock passes
        ``max_time`` (an absolute time on this clock, matching the
        simulator's contract)."""
        deadline = max_time
        while not predicate():
            if self.now >= deadline:
                return False
            self._dispatch_due()
            if predicate():
                return True
            if not self._queue and not self._connections:
                return predicate()
            self._poll(min(self._slice(), max(deadline - self.now, 0.0)))
        return True
