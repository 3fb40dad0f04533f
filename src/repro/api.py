"""The supported public surface of :mod:`repro`.

Everything in ``__all__`` here is stable API: importing it emits no
warnings, its signatures only change with a deprecation cycle, and
``tests/test_api.py`` pins the contract.  Anything reachable elsewhere
in the package (simulator internals, scheduler plumbing, cache-file
layout) is implementation detail that may change between releases —
see ``docs/api.md`` for the full public/internal split.

The verbs:

* :func:`build_traces` — frame traces for a benchmark (disk-cached).
* :func:`simulate` — one benchmark under one GPU variant → RunSummary.
* :func:`compare` — several variants on identical traces, with
  speedups over the first (what ``repro compare`` prints).
* :func:`sweep` — a declarative, resumable parameter-grid sweep (what
  ``repro sweep`` runs); :func:`load_spec` reads the YAML/JSON spec.
* :func:`serve` / :func:`run_worker` / :class:`SweepClient` — the
  distributed sweep service (what ``repro serve``/``worker``/``submit``
  run): submit a spec over HTTP, a worker fleet sharing the store
  directory executes it, and the client returns the aggregated
  :class:`SpeedupMatrix`.  Failures raise :class:`ServiceError`
  carrying the HTTP status.  See ``docs/service.md``.

Configuration enters through :class:`~repro.config.GPUConfig` — either
a preset (:func:`baseline_config` / :func:`libra_config` /
:func:`small_config`) or the named-variant entry point
:meth:`GPUConfig.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from . import harness
from .config import (GPUConfig, baseline_config, libra_config, parse_kind,
                     small_config)
from .errors import ConfigValidationError, ReproError, ServiceError
from .experiments import (ExperimentSpec, SpeedupMatrix, SweepPoint,
                          SweepResult, execute_point, run_sweep,
                          speedup_matrix)
from .gpu import FrameTrace
from .harness import RunSummary, run_suite
from .service import JobRecord, SweepClient, run_worker, serve

__all__ = [
    # verbs
    "build_traces",
    "simulate",
    "compare",
    "sweep",
    "load_spec",
    "run_suite",
    # the sweep service (repro serve / worker / submit / status)
    "serve",
    "run_worker",
    "SweepClient",
    "JobRecord",
    # configuration constructors
    "GPUConfig",
    "baseline_config",
    "libra_config",
    "small_config",
    "parse_kind",
    # report / result types
    "RunSummary",
    "ComparisonReport",
    "ExperimentSpec",
    "SweepPoint",
    "SweepResult",
    "SpeedupMatrix",
    "speedup_matrix",
    "FrameTrace",
    # error root (catch this to handle anything the package raises)
    "ReproError",
    "ServiceError",
]


def build_traces(benchmark: str, frames: int = harness.FRAMES,
                 width: int = harness.WIDTH,
                 height: int = harness.HEIGHT) -> List[FrameTrace]:
    """Frame traces for ``benchmark``, built once and cached on disk.

    Traces are configuration-independent, so every variant you simulate
    afterwards shares them; the cache lives under ``$REPRO_CACHE_DIR``
    (default ``.repro_cache/``) with checksummed crash-safe entries.
    """
    return harness.get_traces(benchmark, frames, width, height)


def simulate(benchmark: str, kind: str = "libra",
             frames: int = harness.FRAMES,
             width: int = harness.WIDTH, height: int = harness.HEIGHT,
             raster_units: int = 2, cores_per_unit: int = 4,
             settings: Optional[dict] = None) -> RunSummary:
    """Run one benchmark under one named GPU variant.

    ``kind`` follows the :func:`~repro.config.parse_kind` grammar
    (``baseline``, ``baseline8``, ``ptr``, ``libra``,
    ``temperature<N>``, ``supertile<N>``); ``settings`` takes dotted
    config overrides (``{"dram.requests_per_cycle": 0.16}``) exactly
    like a sweep axis.  Uses the shared trace cache; the simulation
    itself always executes (:func:`run_suite` and :func:`sweep` keep
    each result in an artifact store and resume from it).
    """
    axes = dict(settings or {})
    axes["raster_units"] = raster_units
    axes["cores_per_unit"] = cores_per_unit
    point = SweepPoint(benchmark=benchmark, kind=kind,
                       axes=tuple(sorted(axes.items())),
                       frames=frames, width=width, height=height)
    return execute_point(point)


@dataclass
class ComparisonReport:
    """Several GPU variants over identical traces, first = baseline."""

    benchmark: str
    kinds: List[str]
    summaries: Dict[str, RunSummary] = field(default_factory=dict)

    @property
    def baseline_kind(self) -> str:
        """The kind every speedup is normalized against."""
        return self.kinds[0]

    def speedups(self) -> Dict[str, float]:
        """kind -> execution-time speedup over the first kind."""
        base = self.summaries[self.baseline_kind].total_cycles
        return {kind: base / s.total_cycles
                for kind, s in self.summaries.items()}

    def format(self) -> str:
        """The ``repro compare`` table."""
        from .stats import format_table
        speedups = self.speedups()
        rows = []
        for kind in self.kinds:
            s = self.summaries[kind]
            rows.append([kind, s.frames, s.total_cycles, f"{s.fps:.1f}",
                         f"{s.texture_hit_ratio:.3f}",
                         f"{s.texture_latency:.1f}",
                         s.raster_dram_accesses,
                         f"{s.energy_j * 1000:.2f}",
                         f"{speedups[kind]:.3f}"])
        return format_table(
            ("config", "frames", "cycles", "fps", "tex hit", "tex lat",
             "dram", "energy mJ", "speedup"), rows,
            title=f"{self.benchmark}: {' vs '.join(self.kinds)}")


def compare(benchmark: str,
            kinds: Sequence[str] = ("baseline", "ptr", "libra"),
            frames: int = harness.FRAMES,
            width: int = harness.WIDTH,
            height: int = harness.HEIGHT) -> ComparisonReport:
    """Simulate ``kinds`` over identical traces; speedups vs the first.

    The same config-resolution path (:meth:`GPUConfig.build`) and trace
    cache the sweep engine uses, so a ``compare`` row equals the sweep
    point with the same settings.
    """
    if not kinds:
        raise ConfigValidationError("compare needs at least one kind")
    report = ComparisonReport(benchmark=benchmark, kinds=list(kinds))
    for kind in kinds:
        point = SweepPoint(benchmark=benchmark, kind=kind, axes=(),
                           frames=frames, width=width, height=height)
        report.summaries[kind] = execute_point(point)
    return report


def load_spec(path: Union[str, Path]) -> ExperimentSpec:
    """Load and validate an experiment spec from a YAML/JSON file."""
    return ExperimentSpec.from_file(path)


def sweep(spec: Union[ExperimentSpec, str, Path],
          store_root: Union[str, Path, None] = None,
          workers: Optional[int] = None,
          timeout_s: Optional[float] = None,
          retries: Optional[int] = None) -> SweepResult:
    """Execute (or resume) a declarative sweep.

    ``spec`` is an :class:`ExperimentSpec` or a path to one.  Completed
    points are checkpointed per point into ``store_root`` (default
    ``.repro_sweeps/<name>``); rerunning with the same spec and store
    resumes instead of restarting.  See :func:`repro.experiments.run_sweep`.
    """
    if not isinstance(spec, ExperimentSpec):
        spec = load_spec(spec)
    return run_sweep(spec, store_root=store_root, workers=workers,
                     timeout_s=timeout_s, retries=retries)
