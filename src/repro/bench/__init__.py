"""Benchmark harness for the paper's evaluation section.

Each ``repro bench`` cell is a module here (``repro.cli.BENCH_CELLS``
names it); the package exports what is shared across them.
"""

from .chaos import (
    chaos_coordinator_config,
    run_chaos_cell,
    verify_history,
)
from .harness import (
    ExperimentRow,
    build_runtime,
    format_table,
    write_bench_artifact,
    ycsb_program,
    ycsb_row,
)
from .overhead import (
    Blob,
    OverheadRow,
    format_overhead_table,
    run_overhead_breakdown,
)

__all__ = [
    "Blob",
    "ExperimentRow",
    "OverheadRow",
    "build_runtime",
    "chaos_coordinator_config",
    "format_overhead_table",
    "format_table",
    "run_chaos_cell",
    "run_overhead_breakdown",
    "verify_history",
    "write_bench_artifact",
    "ycsb_program",
    "ycsb_row",
]
