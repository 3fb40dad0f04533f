"""Declarative experiment/sweep engine (``repro sweep``).

The paper's headline evidence is parameter sweeps — raster-unit scaling
(Fig. 18), supertile-size and threshold sensitivity (Fig. 19), DRAM
bandwidth sensitivity.  This package makes those first-class:

* :class:`ExperimentSpec` — a declarative grid (benchmarks x kinds x
  axes), loadable from YAML/JSON.
* :func:`run_sweep` / :class:`SweepResult` — the one way simulations
  run: each point through :func:`execute_point` (which summarizes
  :func:`simulate_point`, the one builder of a configured simulator,
  which the CLI's single-run commands call too), with per-point
  retry/timeout, forked-worker parallelism, and crash-safe per-point
  checkpoints in an :class:`ArtifactStore` so an interrupted sweep
  *resumes* instead of restarting.  ``repro suite``
  (:func:`repro.harness.run_suite`) is a sweep with no axes, and the
  sweep service's workers run their points through the same executor.
* :func:`speedup_matrix` / :class:`SpeedupMatrix` — aggregation:
  speedup-vs-baseline matrices, geomeans, per-axis marginals, with
  per-cell provenance (completed/degraded/tripped) and a PARTIAL
  marker on matrices with holes.

Parallel and chaos-mode sweeps run under the worker-lifecycle
supervisor (:mod:`repro.supervision`): heartbeat/hang detection,
adaptive deadlines, escalating preemption, and a circuit breaker whose
trips persist in the :class:`ArtifactStore` (see
``docs/robustness.md``).

See ``docs/experiments.md`` for the spec schema, the artifact layout
and a worked Figure 18/19 reproduction.
"""

from .aggregate import MatrixRow, SpeedupMatrix, speedup_matrix
from .engine import (PointOutcome, SweepResult, execute_point, run_sweep,
                     simulate_point, sweep_result_from_store)
from .spec import (AXIS_ALIASES, BUILD_AXES, ExperimentSpec, SweepPoint,
                   parse_axis_option, parse_axis_value, resolve_axes)
from .store import ArtifactStore

__all__ = [
    "ExperimentSpec",
    "SweepPoint",
    "AXIS_ALIASES",
    "BUILD_AXES",
    "resolve_axes",
    "parse_axis_option",
    "parse_axis_value",
    "ArtifactStore",
    "run_sweep",
    "sweep_result_from_store",
    "execute_point",
    "simulate_point",
    "SweepResult",
    "PointOutcome",
    "MatrixRow",
    "SpeedupMatrix",
    "speedup_matrix",
]
