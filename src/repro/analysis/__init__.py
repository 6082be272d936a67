"""Static analyses backing the global view (paper Section IV).

- :mod:`repro.analysis.movement` — logical data-movement volumes per edge,
  per container and whole-program (symbolic, from memlets).
- :mod:`repro.analysis.opcount` — arithmetic-operation counts per tasklet /
  scope / program, obtained by walking tasklet ASTs.
- :mod:`repro.analysis.intensity` — arithmetic intensity (ops per moved
  byte) per scope and program.
- :mod:`repro.analysis.parametric` — re-evaluation of symbolic metrics
  under concrete parameter values and parameter sweeps (the "parametric
  scaling analysis" of Section IV-D).
- :mod:`repro.analysis.executor` — fault-tolerant parallel execution of
  local-view sweeps with retries, timeouts and structured per-point
  error records.
"""

from repro.analysis.executor import (
    CancelToken,
    SweepExecutor,
    SweepPointError,
    SweepRun,
)
from repro.analysis.intensity import (
    program_intensity,
    scope_intensities,
)
from repro.analysis.movement import (
    container_movement_bytes,
    edge_movement_bytes,
    edge_movement_volumes,
    total_movement_bytes,
)
from repro.analysis.opcount import (
    count_expression_ops,
    program_ops,
    scope_ops,
    tasklet_ops,
)
from repro.analysis.parametric import (
    LocalSweepPoint,
    ParameterSweep,
    evaluate_metrics,
    parameter_grid,
    sweep_local_views,
)

__all__ = [
    "edge_movement_volumes",
    "edge_movement_bytes",
    "container_movement_bytes",
    "total_movement_bytes",
    "count_expression_ops",
    "tasklet_ops",
    "scope_ops",
    "program_ops",
    "scope_intensities",
    "program_intensity",
    "evaluate_metrics",
    "ParameterSweep",
    "LocalSweepPoint",
    "parameter_grid",
    "sweep_local_views",
    "CancelToken",
    "SweepExecutor",
    "SweepPointError",
    "SweepRun",
]
