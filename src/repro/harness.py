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

import contextlib
import logging
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from .errors import ConfigValidationError
from .gpu import FrameTrace, RunResult
from .workloads import TraceBuilder, TraceCache, make_scene_builder
from .workloads.traces import may_fork, quiet_fork, works_beside_parent

if TYPE_CHECKING:
    from .experiments import SweepResult

log = logging.getLogger(__name__)

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

#: ``(benchmark, frames, width, height)``: what names one trace set.
TraceKey = Tuple[str, int, int, int]

#: In-process memo of recently loaded trace lists.  A figure sweep runs
#: the same benchmark under many configurations back to back; without
#: this every ``execute_point`` call re-unpickles a multi-megabyte
#: trace file.  Kept tiny (a sweep touches one benchmark at a time) and
#: keyed like the disk entry.  Callers must treat the traces as
#: read-only, which the simulator does.
_TRACE_MEMO: Dict[TraceKey, List[FrameTrace]] = {}
_TRACE_MEMO_SLOTS = 4

#: The forked process of the running :func:`prefetch_traces` block.
_PREFETCH: Optional["_Prefetch"] = None

#: Seconds a stopped prefetch gets to remove its temporary file and
#: exit after ``SIGTERM`` before it is killed.
_PREFETCH_GRACE_S = 10.0


def get_traces(benchmark: str, frames: int = FRAMES, width: int = WIDTH,
               height: int = HEIGHT) -> List[FrameTrace]:
    """Frame traces for a benchmark, built once and cached on disk.

    The disk entry is :meth:`TraceCache.get_or_build`'s, keyed by the
    generation, benchmark, geometry and frame count under
    :func:`cache_dir`: a corrupt cache file (truncated, bit-flipped,
    interrupted write, legacy format) is quarantined with a logged
    warning naming the path and reason, then rebuilt from the scene
    generator.  The advisory per-entry lock is held across the check,
    the build and the write, so concurrent bench runs build the traces
    exactly once.  A small in-process memo short-circuits repeat loads
    within one sweep; the returned list is shared, so treat it as
    read-only.

    Inside a :func:`prefetch_traces` block, a set the prefetch process
    is building holds the entry's lock, so this call waits for it and
    reads it; a prefetch that has exited non-zero is reported first.
    """
    memo_key = (benchmark, frames, width, height)
    memoized = _TRACE_MEMO.get(memo_key)
    if memoized is not None:
        return list(memoized)
    if _PREFETCH is not None:
        _PREFETCH.poll()
    builder = TraceBuilder(make_scene_builder(benchmark, width, height),
                           width, height, TILE)
    traces = TraceCache(cache_dir()).get_or_build(_cache_key(memo_key),
                                                  builder, frames)
    _memoize_traces(memo_key, traces)
    return traces


def _cache_key(key: TraceKey) -> str:
    benchmark, frames, width, height = key
    return f"trace-g{TRACE_GENERATION}-{benchmark}-{width}x{height}-f{frames}"


def _memoize_traces(key: TraceKey, traces: List[FrameTrace]) -> None:
    while len(_TRACE_MEMO) >= _TRACE_MEMO_SLOTS:
        _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
    _TRACE_MEMO[key] = list(traces)


@contextlib.contextmanager
def prefetch_traces(keys: Sequence[TraceKey]) -> Iterator[None]:
    """Have the trace sets ``keys`` built for the block that follows.

    The first set is built (or loaded) here before the block starts.
    Where :func:`~repro.workloads.traces.may_fork` allows, one forked
    process builds the rest the cache lacks, in order, through
    :func:`get_traces`, while the block runs; a :func:`get_traces`
    call of the block then waits on the entry's lock for a set in
    progress and reads it, never builds it twice.  Elsewhere every set
    is built here, up front.  A prefetch that exits non-zero costs one
    warning, and the block builds the sets it lacks itself.  On every
    way out of the block a prefetch still running is stopped with
    ``SIGTERM``, which removes the temporary file of an entry it was
    writing, and reaped.
    """
    global _PREFETCH
    keys = list(keys)
    prefetch = None
    try:
        if keys:
            get_traces(*keys[0])
        cache = TraceCache(cache_dir())
        missing = [key for key in keys[1:]
                   if _cache_key(key) not in cache]
        if missing and may_fork():
            prefetch = _Prefetch.start(missing)
        if prefetch is None:
            for key in keys[1:]:
                get_traces(*key)
        _PREFETCH = prefetch
        yield
    finally:
        _PREFETCH = None
        if prefetch is not None:
            prefetch.stop()


class _Prefetch:
    """The parent's handle of the process :func:`prefetch_traces`
    forked."""

    def __init__(self, pid: int):
        self.pid = pid
        self.exited = False

    @classmethod
    def start(cls, keys: List[TraceKey]) -> Optional["_Prefetch"]:
        """Fork the prefetch of ``keys``; None after one warning if it
        could not start."""
        try:
            pid = quiet_fork()
        except OSError as exc:
            log.warning("could not fork a trace prefetch (%s); building "
                        "its %d trace sets in this process", exc,
                        len(keys))
            return None
        if pid == 0:
            _prefetch_main(keys)
        return cls(pid)

    def poll(self) -> None:
        """Reap the process if it has exited, with one warning if it
        failed."""
        if not self.exited and self._wait(os.WNOHANG):
            self.exited = True

    def stop(self) -> None:
        """Stop the process if it still runs (``SIGTERM``, ``SIGKILL``
        after :data:`_PREFETCH_GRACE_S`), and reap it."""
        self.poll()
        if self.exited:
            return
        with contextlib.suppress(ProcessLookupError):
            os.kill(self.pid, signal.SIGTERM)
        deadline = time.monotonic() + _PREFETCH_GRACE_S
        while not self._wait(os.WNOHANG, report=False):
            if time.monotonic() > deadline:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(self.pid, signal.SIGKILL)
                self._wait(0, report=False)
                break
            time.sleep(0.01)
        self.exited = True

    def _wait(self, options: int, report: bool = True) -> bool:
        """``waitpid`` on the process: True once it is reaped."""
        try:
            pid, status = os.waitpid(self.pid, options)
        except ChildProcessError:
            return True  # reaped elsewhere
        if not pid:
            return False
        code = os.waitstatus_to_exitcode(status)
        if code and report:
            log.warning("trace prefetch pid %d exited with status %d; "
                        "building the trace sets it lacked in this "
                        "process", self.pid, code)
        return True


def _prefetch_main(keys: List[TraceKey]) -> None:
    """The forked prefetch: build ``keys`` through :func:`get_traces`
    and leave through ``os._exit`` (never back into the caller's
    frames, whatever happens).

    ``SIGTERM`` raises ``SystemExit``, so an entry being written loses
    its temporary file on the way out.  ``SIGINT`` is ignored: a Ctrl-C
    is the parent's to handle, and the parent stops this process.  It
    also stops by itself once the parent is gone.  The parent keeps a
    CPU busy simulating, so a build here forks a render helper only
    where a third CPU is free.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _exit_on_signal)
        works_beside_parent()
        parent = os.getppid()
        _TRACE_MEMO.clear()
        for key in keys:
            if os.getppid() != parent:
                break
            get_traces(*key)
            _TRACE_MEMO.clear()
        status = 0
    finally:
        os._exit(status)


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


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
