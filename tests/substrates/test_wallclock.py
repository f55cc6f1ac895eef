"""WallClock kernel: the Simulation surface on a real monotonic clock.

These are tier-1 tests, so every real wait is kept to tens of
milliseconds.
"""

from __future__ import annotations

import multiprocessing
import time
from types import SimpleNamespace

import pytest

from repro.substrates import wallclock
from repro.substrates.simulation import CpuPool, SimulationError
from repro.substrates.wallclock import WallClock


def test_now_advances_with_real_time() -> None:
    clock = WallClock()
    before = clock.now
    time.sleep(0.01)
    assert clock.now >= before + 5.0


def test_schedule_negative_delay_raises() -> None:
    with pytest.raises(SimulationError):
        WallClock().schedule(-1.0, lambda: None)


def test_schedule_at_clamps_past_deadlines() -> None:
    clock = WallClock()
    fired: list[float] = []
    # A deadline already in the past must fire promptly, not raise —
    # real clocks race the scheduler (unlike the simulator).
    clock.schedule_at(clock.now - 100.0, lambda: fired.append(clock.now))
    assert clock.run_until(lambda: bool(fired), max_time=clock.now + 2_000)
    assert fired


def test_timers_fire_in_deadline_order() -> None:
    clock = WallClock()
    order: list[str] = []
    assert clock.schedule(30.0, lambda: order.append("late")) is None
    clock.schedule(5.0, lambda: order.append("early"))
    assert clock.pending() == 2
    clock.run()
    assert order == ["early", "late"]
    assert clock.pending() == 0


def test_run_until_max_time_is_absolute() -> None:
    clock = WallClock()
    ok = clock.run_until(lambda: False, max_time=clock.now + 30.0)
    assert not ok
    # The deadline bound the wait: well under a second of real time.
    assert clock.now < 2_000.0


def test_run_until_bound_returns_events_processed() -> None:
    clock = WallClock()
    hits: list[int] = []
    clock.schedule(1.0, lambda: hits.append(1))
    assert clock.run_until(lambda: bool(hits),
                           max_time=clock.now + 2_000.0)
    assert clock.processed_events == 1


def test_connection_polling_delivers_frames() -> None:
    clock = WallClock()
    parent, child = multiprocessing.Pipe(duplex=True)
    got: list[bytes] = []
    clock.register_connection(parent, got.append)
    child.send_bytes(b"hello")
    assert clock.run_until(lambda: bool(got), max_time=clock.now + 2_000)
    assert got == [b"hello"]
    clock.unregister_connection(parent)
    parent.close()
    child.close()


def test_dead_peer_drops_registration() -> None:
    clock = WallClock()
    parent, child = multiprocessing.Pipe(duplex=True)
    clock.register_connection(parent, lambda payload: None)
    child.close()
    # The closed peer surfaces as ready-with-EOF; the poll must drop the
    # registration instead of spinning or crashing.
    clock.run_until(lambda: not clock._connections,
                    max_time=clock.now + 2_000)
    assert not clock._connections
    parent.close()


def _count_waits(monkeypatch) -> list[float]:
    """The timeout of every wait the kernel makes, in seconds."""
    timeouts: list[float] = []
    wait = wallclock._conn_wait

    def counting(connections, timeout):
        timeouts.append(timeout)
        return wait(connections, timeout)

    monkeypatch.setattr(wallclock, "_conn_wait", counting)
    return timeouts


def test_a_burst_of_frames_costs_one_wait(monkeypatch) -> None:
    """A ready connection is drained before the loop waits again."""
    clock = WallClock()
    parent, child = multiprocessing.Pipe(duplex=True)
    got: list[bytes] = []
    clock.register_connection(parent, got.append)
    waits = _count_waits(monkeypatch)
    for payload in (b"out", b"ack", b"out"):
        child.send_bytes(payload)
    assert clock.run_until(lambda: len(got) == 3, max_time=clock.now + 2_000)
    assert got == [b"out", b"ack", b"out"]
    assert len(waits) == 1
    parent.close()
    child.close()


def test_only_a_fine_timer_is_spun_for(monkeypatch) -> None:
    """Within a spin slice of its deadline, a timer set well ahead — a
    periodic tick — is waited for by blocking; one set under a
    millisecond ahead gets non-blocking polls, so it fires within
    microseconds instead of a scheduler tick.  The clock's time source
    is pinned, 0.1 ms further on each turn of the loop: on a real one a
    preemption between the loop and ``_slice()`` could outlast the gap
    left and make the timer due."""
    seconds = [100.0]
    monkeypatch.setattr(wallclock, "time",
                        SimpleNamespace(monotonic=lambda: seconds[0]))
    clock = WallClock()
    clock.schedule(10.0, lambda: None)
    while clock._queue[0][0] - clock.now >= 0.9:
        seconds[0] += 0.0001
    assert clock._slice() > 0.0
    clock.schedule(0.5, lambda: None)
    assert clock._slice() == 0.0


def test_run_with_until_bound_returns() -> None:
    clock = WallClock()
    clock.schedule(10_000.0, lambda: None)  # far-future timer
    start = clock.now
    clock.run(until=start + 20.0)
    assert clock.now >= start + 20.0
    assert clock.now < start + 2_000.0
    assert clock.pending() == 1


@pytest.mark.parametrize("cores", [1, 4])
def test_cpu_pool_core_choice_on_the_real_clock(cores: int) -> None:
    """The pool reads the kernel's public ``now``: an idle core starts a
    task at the real instant of the submit, a booked one when it is
    free, and the earliest-free core is chosen, the first on a tie."""
    clock = WallClock()
    pool = CpuPool(clock, cores)
    hour = 3_600_000.0  # booked far beyond any real delay of the test
    for service_ms in (3 * hour, hour, hour, 2 * hour, hour, hour):
        busy = list(pool.busy_until)
        chosen = min(range(cores), key=busy.__getitem__)
        before = clock.now
        finish = pool.submit(service_ms, lambda: None)
        after = clock.now
        if busy[chosen] > after:
            assert finish == busy[chosen] + service_ms
        else:
            assert before + service_ms <= finish <= after + service_ms
        busy[chosen] = finish
        assert pool.busy_until == busy
    assert clock.pending() == 6
