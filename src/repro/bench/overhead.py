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

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from typing import Callable

from ..compiler.pipeline import compile_program
from ..core.entity import entity
from ..runtimes.executor import Instrumentation
from ..runtimes.local import LocalRuntime

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
