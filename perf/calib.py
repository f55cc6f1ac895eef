"""Host calibration: a fixed pure-Python kernel, independent of ``repro``.

Raw wall-clock medians drifted 44 % between identical sets on the
sizing host, while process-CPU time divided by this kernel's time held
3-10 %.  Every timing the ledger reports for a ``sim-*`` workload is
CPU seconds scaled to a reference host where ``ROUNDS`` rounds of the
kernel take exactly ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The kernel's run time on the reference host the ledger reports in.
NOMINAL_S = 0.200
#: Kernel rounds that take about NOMINAL_S on the sizing host.
ROUNDS = 100_000
#: One calibration slice between two segments of measured work.
SLICE_ROUNDS = 10_000
#: A shortened slice for ``--smoke``.
SMOKE_ROUNDS = 500


def _kernel(rounds: int) -> int:
    """Dict, heap and closure work in roughly the mix the simulator's
    hot path has (calendar queue + per-key dicts + callbacks)."""
    table: dict[str, int] = {}
    heap: list[tuple[int, int]] = []
    total = 0

    def bump(key: str) -> None:
        table[key] = table.get(key, 0) + 1

    for i in range(rounds):
        key = f"k-{i % 997}"
        callback = lambda key=key: bump(key)  # noqa: E731
        heapq.heappush(heap, ((i * 7919) % 10_007, i))
        callback()
        if i % 3 == 0:
            total += heapq.heappop(heap)[0]
        row = {"id": key, "n": i, "s": "x"}
        total += len(dict(row))
    return total + len(table)


def calibrate(rounds: int = ROUNDS) -> float:
    """Process-CPU seconds the kernel takes right now.

    The collector is off while it runs: a full collection of the
    benchmark's heap (35 ms at 160 000 objects on ``sim-views``) landing
    inside a 15 ms slice would read as a slow host, and which slice it
    lands in is decided by the seed."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.process_time()
        _kernel(rounds)
        return time.process_time() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Samples the kernel in short slices around each piece of measured
    work and scales that work's CPU seconds by the two adjacent slices.

    The sizing host's CPU flips between two speeds 1.75x apart and
    stays in one for about a second: the same 10 000 rounds take 13 ms
    or 23 ms of process CPU time.  A bracket around a whole rep misses
    flips inside it; slices every ~100 ms of work follow them."""

    def __init__(self, rounds: int = SLICE_ROUNDS):
        self._rounds = rounds
        self.samples: list[float] = []

    def sample(self) -> float:
        self.samples.append(calibrate(self._rounds))
        return self.samples[-1]

    def scale(self, seconds: float, before: float, after: float,
              share: float = 1.0) -> float:
        """*seconds* measured between the slices *before* and *after*,
        in seconds on the reference host.  ``share`` is the part of the
        measured time that follows the host's speed: 1 for process CPU
        time."""
        nominal = NOMINAL_S * self._rounds / ROUNDS
        return seconds * (nominal / ((before + after) / 2)) ** share

    @property
    def calib_s(self) -> float:
        """Mean slice, as seconds of the full kernel."""
        return (sum(self.samples) / len(self.samples)
                * ROUNDS / self._rounds)
