"""Experiment harness: shared geometry, the trace cache, run summaries.

Every figure/table reproduction in ``benchmarks/`` goes through this
module so that:

* all experiments agree on the screen geometry and GPU variants;
* frame traces (configuration-independent) are built once per benchmark
  and cached on disk;
* every simulation is condensed into the same picklable
  :class:`RunSummary` (:func:`summarize`, which
  :func:`repro.experiments.execute_point` calls).

Simulation results are not cached here: they are the per-point
checkpoints of a sweep's :class:`~repro.experiments.ArtifactStore`.
:func:`run_suite` is a sweep with no axes whose store lives under the
cache directory, so a repeated suite resumes instead of simulating.

Cache location: ``$REPRO_CACHE_DIR`` or ``.repro_cache/`` under the
current directory.  Delete it after changing simulator internals (the
cache key includes a manual generation number plus the experiment
parameters, not a hash of the source).

Cache integrity: every entry is written through :mod:`repro.cachefile`
(atomic replace + SHA-256 checksum + advisory lock), so the generation
numbers and the checksum play different roles — the checksum detects
*storage* faults (truncation, bit flips, interrupted writes, legacy
unchecksummed entries) and triggers quarantine-and-rebuild
automatically, while ``TRACE_GENERATION``/``RESULT_GENERATION`` must
still be bumped manually for *semantic* staleness (simulator behaviour
changed but old entries are bytewise intact; a checksum cannot see
that).  Corrupt entries are renamed to ``*.corrupt`` with a logged
warning, never silently deleted or served.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from . import cachefile
from .errors import ConfigValidationError
from .gpu import FrameTrace, RunResult
from .workloads import TraceBuilder, make_scene_builder
from .workloads.traces import TRACE_FORMAT_VERSION

if TYPE_CHECKING:
    from .experiments import SweepResult

#: Screen geometry of all experiments (see DESIGN.md for why not FHD).
WIDTH = 960
HEIGHT = 512
TILE = 32

#: Frames simulated per benchmark (the paper uses 25; results stabilize
#: after a handful because of frame coherence, and the bench suite must
#: finish in minutes, not hours).
FRAMES = 8

#: Bump to invalidate cached *traces* (scene generator or trace-builder
#: changes).  Traces are configuration-independent and expensive to
#: build, so this moves rarely.
TRACE_GENERATION = 1

#: Bump to invalidate stored *results* (any semantic change to the
#: timing model): it names :func:`run_suite`'s store, and the sweep
#: service refuses jobs submitted at another generation.  g2:
#: geometry-phase interval accounting made deterministic when the
#: vertex stream does not divide evenly.  g3: RunSummary grew the
#: ``telemetry`` metrics-snapshot field.  g4: RunSummary grew the
#: ``telemetry_state`` typed metrics state (the mergeable counterpart
#: of the flat snapshot).
RESULT_GENERATION = 4


def cache_dir() -> Path:
    """The trace cache directory (env REPRO_CACHE_DIR); suite stores too."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


# -- traces ----------------------------------------------------------------

#: In-process memo of recently loaded trace lists.  A figure sweep runs
#: the same benchmark under many configurations back to back; without
#: this every ``execute_point`` call re-unpickles a multi-megabyte
#: trace file.  Kept tiny (a sweep touches one benchmark at a time) and
#: keyed like the disk entry.  Callers must treat the traces as
#: read-only, which the simulator does.
_TRACE_MEMO: Dict[Tuple[str, int, int, int], List[FrameTrace]] = {}
_TRACE_MEMO_SLOTS = 4


def get_traces(benchmark: str, frames: int = FRAMES, width: int = WIDTH,
               height: int = HEIGHT) -> List[FrameTrace]:
    """Frame traces for a benchmark, built once and cached on disk.

    The entry is read through :func:`cachefile.load_or_quarantine`: a
    corrupt cache file (truncated, bit-flipped, interrupted write,
    legacy format) is quarantined with a logged warning naming the path
    and reason, then rebuilt from the scene generator.  The advisory
    per-entry lock is held across the check, the build and the write,
    so concurrent bench runs build the traces exactly once.  A small
    in-process memo short-circuits repeat loads within one sweep; the
    returned list is shared, so treat it as read-only.
    """
    memo_key = (benchmark, frames, width, height)
    memoized = _TRACE_MEMO.get(memo_key)
    if memoized is not None:
        return list(memoized)
    key = f"trace-g{TRACE_GENERATION}-{benchmark}-{width}x{height}-f{frames}"
    path = cache_dir() / f"{key}.v{TRACE_FORMAT_VERSION}.pkl"
    with cachefile.file_lock(path):
        cached = cachefile.load_or_quarantine(path)
        if cached is not None:
            _memoize_traces(memo_key, cached)
            return cached
        builder = TraceBuilder(make_scene_builder(benchmark, width, height),
                               width, height, TILE)
        traces = builder.build_many(frames)
        cachefile.write_cache(traces, path)
    _memoize_traces(memo_key, traces)
    return traces


def _memoize_traces(key: Tuple[str, int, int, int],
                    traces: List[FrameTrace]) -> None:
    while len(_TRACE_MEMO) >= _TRACE_MEMO_SLOTS:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = list(traces)


# -- run summaries -------------------------------------------------------------

@dataclass
class RunSummary:
    """The per-run metrics the figures consume (picklable, compact)."""

    benchmark: str
    kind: str
    frames: int
    total_cycles: int
    geometry_cycles: int
    raster_cycles: int
    fps: float
    energy_j: float
    energy_breakdown: Dict[str, float]
    raster_dram_accesses: int
    texture_hit_ratio: float
    texture_latency: float
    frame_cycles: List[int]
    frame_orders: List[str]
    frame_supertile_sizes: List[int]
    frame_hit_ratios: List[float]
    frame_dram: List[int]
    #: Per-interval DRAM request series of the last frame (Figure 7).
    last_frame_intervals: List[int]
    #: Per-tile DRAM access maps of the last two frames (Figures 2, 8, 9).
    per_tile_dram_prev: Dict[Tuple[int, int], int]
    per_tile_dram_last: Dict[Tuple[int, int], int]
    #: Flat telemetry-metrics snapshot of the run (None when the
    #: telemetry hub was disabled).
    telemetry: Optional[Dict[str, float]] = None
    #: Typed :meth:`MetricsRegistry.dump` state of the run — unlike the
    #: flat snapshot this distinguishes counters, gauges and histograms,
    #: so per-point states can be merged across a whole sweep grid with
    #: :meth:`MetricsRegistry.merge`.  None under the same conditions as
    #: ``telemetry``.
    telemetry_state: Optional[Dict[str, dict]] = None

    def speedup_over(self, other: "RunSummary") -> float:
        """Execution-time speedup of this run over another."""
        return other.total_cycles / self.total_cycles


def summarize(benchmark: str, kind: str, result: RunResult) -> RunSummary:
    """Condense a RunResult into a picklable RunSummary."""
    frames = result.frames
    last = frames[-1]
    prev = frames[-2] if len(frames) >= 2 else last
    breakdown: Dict[str, float] = {}
    for frame in frames:
        for component, joules in frame.energy.breakdown().items():
            breakdown[component] = breakdown.get(component, 0.0) + joules
    return RunSummary(
        benchmark=benchmark,
        kind=kind,
        frames=len(frames),
        total_cycles=result.total_cycles,
        geometry_cycles=result.geometry_cycles,
        raster_cycles=result.raster_cycles,
        fps=result.fps,
        energy_j=result.total_energy_j,
        energy_breakdown=breakdown,
        raster_dram_accesses=result.raster_dram_accesses,
        texture_hit_ratio=result.mean_texture_hit_ratio,
        texture_latency=result.mean_texture_latency,
        frame_cycles=[f.total_cycles for f in frames],
        frame_orders=[f.order for f in frames],
        frame_supertile_sizes=[f.supertile_size for f in frames],
        frame_hit_ratios=[f.texture_hit_ratio for f in frames],
        frame_dram=[f.raster_dram_accesses for f in frames],
        last_frame_intervals=list(last.dram_interval_requests),
        per_tile_dram_prev=dict(prev.per_tile_dram),
        per_tile_dram_last=dict(last.per_tile_dram),
    )


# -- the suite -----------------------------------------------------------------

def run_suite(benchmarks: Sequence[str],
              kinds: Sequence[str] = ("libra",),
              frames: int = FRAMES,
              width: int = WIDTH,
              height: int = HEIGHT,
              timeout_s: Optional[float] = None,
              max_attempts: int = 2,
              backoff_s: float = 0.25,
              workers: int = 1) -> "SweepResult":
    """Every ``benchmarks x kinds`` pair at one geometry: a sweep, no axes.

    Builds the :class:`~repro.experiments.ExperimentSpec` of the pairs
    and runs it through :func:`~repro.experiments.run_sweep` in a store
    under :func:`cache_dir` named by :data:`RESULT_GENERATION` and the
    grid fingerprint, so a repeated suite resumes every pair it already
    completed.  Each pair gets the sweep's failure handling: an optional
    per-run wall-clock ``timeout_s``, up to ``max_attempts`` attempts
    for transient faults with backoff from ``backoff_s``, and a
    terminal failure recorded in the returned
    :class:`~repro.experiments.SweepResult` while the other pairs keep
    running.  ``workers > 1`` runs the pairs on monitored forked workers
    (:class:`~repro.supervision.Supervisor`), where ``timeout_s`` is a
    floor the adaptive deadline may extend.  A ``KeyboardInterrupt``
    still returns the result, with the pairs it never reached
    ``skipped``.

    Unknown benchmark or kind names raise
    :class:`~repro.errors.ConfigValidationError` (listing the valid
    ones) before anything runs.
    """
    from .experiments import ExperimentSpec, run_sweep
    if max_attempts < 1:
        raise ConfigValidationError("max_attempts must be >= 1")
    spec = ExperimentSpec(
        name="suite", benchmarks=list(benchmarks), kinds=list(kinds),
        frames=frames, width=width, height=height,
        baseline_kind=kinds[0] if kinds else "", workers=workers,
        timeout_s=timeout_s, retries=max_attempts - 1, backoff_s=backoff_s)
    root = cache_dir() / f"suite-g{RESULT_GENERATION}-{spec.fingerprint()}"
    return run_sweep(spec, store_root=root)
