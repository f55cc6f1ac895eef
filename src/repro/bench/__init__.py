"""Benchmark harness for the paper's evaluation section."""

from .autoscale import (
    AutoscalePhaseRow,
    AutoscaleRunReport,
    RampPhase,
    format_autoscale_summary,
    run_autoscale_bench,
    run_autoscale_cell,
)
from .chaos import (
    ChaosReport,
    chaos_coordinator_config,
    run_chaos_cell,
    trace_state_digest,
    verify_history,
)
from .harness import (
    FIG3_CELLS,
    FIG4_RATES,
    ExperimentRow,
    build_runtime,
    check_figure3_shape,
    check_figure4_shape,
    env_ms,
    format_table,
    process_stateflow_overrides,
    run_figure3,
    run_figure4,
    run_ycsb_cell,
    write_bench_artifact,
    ycsb_program,
)
from .pipeline import (
    PipelineReport,
    PipelineRow,
    run_pipeline_bench,
    run_pipeline_cell,
)
from .recovery import (
    RecoveryReport,
    RecoveryRow,
    run_recovery_cell,
)
from .rescale import (
    RescaleReport,
    run_rescale_cell,
)
from .views import (
    format_views_summary,
    run_views_cell,
    run_views_leg,
)
from .overhead import (
    COMPONENTS,
    Blob,
    OverheadRow,
    format_overhead_table,
    run_overhead_breakdown,
)

__all__ = [
    "AutoscalePhaseRow",
    "AutoscaleRunReport",
    "Blob",
    "COMPONENTS",
    "RampPhase",
    "format_autoscale_summary",
    "run_autoscale_bench",
    "run_autoscale_cell",
    "ChaosReport",
    "ExperimentRow",
    "chaos_coordinator_config",
    "run_chaos_cell",
    "FIG3_CELLS",
    "FIG4_RATES",
    "OverheadRow",
    "PipelineReport",
    "PipelineRow",
    "RecoveryReport",
    "RecoveryRow",
    "RescaleReport",
    "process_stateflow_overrides",
    "run_pipeline_bench",
    "run_pipeline_cell",
    "run_recovery_cell",
    "build_runtime",
    "run_rescale_cell",
    "trace_state_digest",
    "verify_history",
    "write_bench_artifact",
    "check_figure3_shape",
    "check_figure4_shape",
    "env_ms",
    "format_overhead_table",
    "format_table",
    "format_views_summary",
    "run_views_cell",
    "run_views_leg",
    "run_figure3",
    "run_figure4",
    "run_overhead_breakdown",
    "run_ycsb_cell",
    "ycsb_program",
]
