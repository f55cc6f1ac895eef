"""The "System overhead" experiment (paper Section 4).

"We created a synthetic workload in which we varied different state sizes
from 50 to 200kb.  For each event, we measured the duration of different
runtime components.  Some of the components, like object construction,
are attributed to program transformation overhead, whereas others, like
state storage, are attributed to the runtime.  In short, function
splitting/instrumentation is only responsible for less than 1% of the
total overhead."

We run a synthetic entity whose state is a payload of the requested size
through the Local runtime with wall-clock instrumentation enabled, and
report the per-component breakdown.

``function_execution`` is timed, and counted, once per operator visit:
the single call into the method's compiled function, which runs every
block up to the next remote call or return (a split method that crosses
three blocks on one visit counts one, not three).
``split_instrumentation`` is what it always was — the frame bookkeeping
when a visit suspends at a remote call or pops on return.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable

from ..compiler.pipeline import compile_program
from ..core.entity import entity
from ..runtimes.executor import Instrumentation
from ..runtimes.local import LocalRuntime
from ..runtimes.state import make_state_backend

#: Components reported, in presentation order.
COMPONENTS = ["object_construction", "function_execution", "state_serde",
              "state_storage", "split_instrumentation"]


@entity
class Blob:
    """Synthetic entity with a configurable state footprint."""

    def __init__(self, blob_id: str, size_bytes: int):
        self.blob_id: str = blob_id
        self.payload: str = "x" * size_bytes
        self.version: int = 0

    def __key__(self):
        return self.blob_id

    def touch(self, tag: str) -> int:
        """Size-preserving state rewrite (one YCSB-style update)."""
        self.version += 1
        self.payload = tag + self.payload[len(tag):]
        return self.version

    def peek(self) -> int:
        return self.version


@dataclass(slots=True)
class OverheadRow:
    """Breakdown for one state size.

    ``component_ms``/``component_counts`` hold *measured* components
    only; a component the run never timed is absent, and ``share``
    reports it as ``None`` rather than 0.0 — "we didn't measure it" is
    not the same claim as "it was free".
    """

    state_kb: int
    operations: int
    total_ms: float
    component_ms: dict[str, float]
    component_counts: dict[str, int] = dataclass_field(default_factory=dict)

    def share(self, component: str) -> float | None:
        if component not in self.component_ms or self.total_ms == 0:
            return None
        return self.component_ms[component] / self.total_ms

    @property
    def split_share(self) -> float | None:
        return self.share("split_instrumentation")


def run_overhead_breakdown(state_kbs: list[int] | None = None,
                           operations: int = 300,
                           *, clock: Callable[[], float] | None = None,
                           ) -> list[OverheadRow]:
    """Measure the runtime component breakdown for each state size.

    ``clock`` overrides the instrumentation time source (default: wall
    clock); tests inject a deterministic counter so assertions don't
    ride on scheduler jitter."""
    program = compile_program([Blob])
    rows = []
    for state_kb in state_kbs or [50, 100, 150, 200]:
        instrumentation = (Instrumentation(clock=clock) if clock is not None
                           else Instrumentation())
        runtime = LocalRuntime(program, instrumentation=instrumentation)
        ref = runtime.create(Blob, f"blob-{state_kb}", state_kb * 1024)
        # Measure steady-state operations only: reset after the create.
        instrumentation.components.clear()
        instrumentation.counts.clear()
        for index in range(operations):
            runtime.call(ref, "touch", f"t{index}")
        total_s = instrumentation.total()
        rows.append(OverheadRow(
            state_kb=state_kb,
            operations=operations,
            total_ms=total_s * 1000.0,
            component_ms={c: seconds * 1000.0 for c, seconds
                          in instrumentation.components.items()},
            component_counts=dict(instrumentation.counts)))
    return rows


# ---------------------------------------------------------------------------
# Snapshot overhead: dict (pointer copy) vs cow (version-chained) backends
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class SnapshotOverheadRow:
    """Median snapshot cost for one (backend, key count) cell."""

    backend: str
    keys: int
    snapshot_ms: float
    restore_ms: float


def run_snapshot_overhead(key_counts: list[int] | None = None,
                          *, rounds: int = 5, writes_per_round: int = 64,
                          payload_bytes: int = 64,
                          ) -> list[SnapshotOverheadRow]:
    """Measure steady-state snapshot cost per backend and key count.

    Models the coordinator's cadence: between two snapshots a batch
    commits a bounded write set, then the whole committed store
    snapshots.  The dict backend copies its map (one reference per key,
    entries shared); the cow backend freezes its write head (O(recent
    writes)) — the gap this experiment quantifies.  ``restore`` copies
    every entry in on dict and adopts the frozen layers on cow.
    """
    rows = []
    for keys in key_counts or [1_000, 10_000]:
        for name in ("dict", "cow"):
            backend = make_state_backend(name)
            payload = "x" * payload_bytes
            for index in range(keys):
                backend.put("Blob", f"k{index}",
                            {"blob_id": f"k{index}", "payload": payload,
                             "version": 0})
            snapshot_timings, restore_timings = [], []
            snapshot = backend.snapshot()  # warm: initial snapshot
            for round_ in range(rounds):
                backend.apply_writes({
                    ("Blob", f"k{(round_ * writes_per_round + i) % keys}"):
                    {"blob_id": "w", "payload": payload, "version": round_}
                    for i in range(writes_per_round)})
                started = time.perf_counter()
                snapshot = backend.snapshot()
                snapshot_timings.append(time.perf_counter() - started)
                started = time.perf_counter()
                backend.restore(snapshot)
                restore_timings.append(time.perf_counter() - started)
            rows.append(SnapshotOverheadRow(
                backend=name, keys=keys,
                snapshot_ms=sorted(snapshot_timings)[rounds // 2] * 1000.0,
                restore_ms=sorted(restore_timings)[rounds // 2] * 1000.0))
    return rows


def snapshot_speedups(rows: list[SnapshotOverheadRow]) -> dict[int, float]:
    """dict-vs-cow snapshot speedup per key count."""
    by_cell = {(row.backend, row.keys): row for row in rows}
    speedups = {}
    for (backend, keys), row in by_cell.items():
        if backend != "dict":
            continue
        cow = by_cell.get(("cow", keys))
        if cow is not None:
            # Clamp: a cow snapshot under the timer's resolution must
            # count as a huge speedup, not drop the cell.
            speedups[keys] = row.snapshot_ms / max(cow.snapshot_ms, 1e-6)
    return speedups


def format_snapshot_table(rows: list[SnapshotOverheadRow]) -> str:
    speedups = snapshot_speedups(rows)
    lines = ["Snapshot overhead by state backend",
             "-" * 42,
             "  ".join(h.ljust(12) for h in
                       ["backend", "keys", "snapshot_ms", "restore_ms",
                        "speedup"])]
    for row in rows:
        speedup = (f"{speedups[row.keys]:.1f}x"
                   if row.backend == "cow" and row.keys in speedups else "")
        lines.append("  ".join([
            row.backend.ljust(12), str(row.keys).ljust(12),
            f"{row.snapshot_ms:.3f}".ljust(12),
            f"{row.restore_ms:.3f}".ljust(12), speedup.ljust(12)]))
    return "\n".join(lines)


def format_overhead_table(rows: list[OverheadRow]) -> str:
    header = (["state_kb", "ops", "total_ms"]
              + [f"{c}_%" for c in COMPONENTS])
    lines = ["System overhead breakdown (Section 4)",
             "-" * 42,
             "  ".join(h.ljust(22 if "_%" in h else 9) for h in header)]
    for row in rows:
        cells = [str(row.state_kb).ljust(9), str(row.operations).ljust(9),
                 f"{row.total_ms:.1f}".ljust(9)]
        cells += ["n/a".ljust(22) if (share := row.share(c)) is None
                  else f"{share * 100:.2f}".ljust(22) for c in COMPONENTS]
        lines.append("  ".join(cells))
    return "\n".join(lines)
