"""Experiment harness: shared configs, trace/result caching, run helpers.

Every figure/table reproduction in ``benchmarks/`` goes through this
module so that:

* all experiments agree on the screen geometry and GPU variants;
* frame traces (configuration-independent) are built once per benchmark
  and cached on disk;
* simulation results are cached on disk too — the figures share runs
  (e.g. Figures 11-15 all need baseline/PTR/LIBRA on the memory-intensive
  suite), and a re-run of the bench suite is incremental.

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

Suite supervision: :func:`run_suite` runs many (benchmark, kind) pairs
with per-benchmark wall-clock timeouts, bounded retry with backoff for
transient faults, and graceful degradation — one failing benchmark is
recorded in the returned :class:`SuiteReport` while every other result
is still delivered.  ``workers == 1`` runs the pairs in-process;
``workers > 1`` runs them on up to that many monitored forked workers
under :class:`~repro.supervision.Supervisor`, each forked once and
reused pair after pair.
"""

from __future__ import annotations

import hashlib
import logging
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from . import cachefile
from .config import GPUConfig
from .errors import (BenchmarkTimeoutError, ConfigValidationError,
                     ReproError, SimulationError, is_transient)
from .supervision import (SupervisedJob, SupervisionPolicy, Supervisor,
                          backoff_delay)
from .gpu import FrameTrace, GPUSimulator, RunResult
from .telemetry import HUB, HarnessSpan
from .workloads import TraceBuilder, benchmark_names, make_scene_builder
from .workloads.traces import TRACE_FORMAT_VERSION

logger = logging.getLogger(__name__)

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

#: Bump to invalidate cached *results* (any semantic change to the
#: timing model).  g2: geometry-phase interval accounting made
#: deterministic when the vertex stream does not divide evenly.
#: g3: RunSummary grew the ``telemetry`` metrics-snapshot field.
#: g4: RunSummary grew the ``telemetry_state`` typed metrics state
#: (the mergeable counterpart of the flat snapshot).
RESULT_GENERATION = 4


def cache_dir() -> Path:
    """The trace/result cache directory (env REPRO_CACHE_DIR)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro_cache"))


# -- traces ----------------------------------------------------------------

#: In-process memo of recently loaded trace lists.  A figure sweep runs
#: the same benchmark under many configurations back to back; without
#: this every ``run_simulation`` call re-unpickles a multi-megabyte
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


# -- cached simulation runs ---------------------------------------------------

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
    #: telemetry hub was disabled or the summary came from the cache).
    telemetry: Optional[Dict[str, float]] = None
    #: Typed :meth:`MetricsRegistry.dump` state of the run — unlike the
    #: flat snapshot this distinguishes counters, gauges and histograms,
    #: so per-point states can be merged across a whole sweep grid with
    #: :meth:`MetricsRegistry.merge`.  None under the same conditions as
    #: ``telemetry``; read with ``getattr(summary, "telemetry_state",
    #: None)`` — artifacts pickled before g4 predate the field.
    telemetry_state: Optional[Dict[str, dict]] = None

    def speedup_over(self, other: "RunSummary") -> float:
        """Execution-time speedup of this run over another."""
        return other.total_cycles / self.total_cycles


def run_simulation(benchmark: str, kind: str, frames: int = FRAMES,
                   raster_units: int = 2, cores_per_unit: int = 4,
                   ideal_memory: bool = False,
                   hit_threshold: Optional[float] = None,
                   order_switch_threshold: Optional[float] = None,
                   resize_threshold: Optional[float] = None,
                   use_cache: bool = True) -> RunSummary:
    """Run (or fetch from cache) one benchmark under one GPU variant.

    The three ``*_threshold`` overrides tweak the LIBRA scheduler's
    decision thresholds (the Figure 19 sensitivity sweeps).
    """
    key = (f"run-g{RESULT_GENERATION}-{benchmark}-{kind}-f{frames}"
           f"-r{raster_units}x{cores_per_unit}"
           f"{'-ideal' if ideal_memory else ''}"
           f"-h{hit_threshold}-o{order_switch_threshold}"
           f"-s{resize_threshold}")
    digest = hashlib.sha1(key.encode()).hexdigest()[:16]
    path = (cache_dir()
            / f"run-g{RESULT_GENERATION}-{benchmark}-{kind}-{digest}.pkl")
    if use_cache:
        cached = cachefile.load_or_quarantine(path)
        if cached is not None:
            return cached
    traces = get_traces(benchmark, frames)
    settings = {}
    if hit_threshold is not None:
        settings["scheduler.hit_ratio_threshold"] = hit_threshold
    if order_switch_threshold is not None:
        settings["scheduler.order_switch_threshold"] = order_switch_threshold
    if resize_threshold is not None:
        settings["scheduler.supertile_resize_threshold"] = resize_threshold
    config, scheduler = GPUConfig.build(
        kind, raster_units=raster_units, cores_per_unit=cores_per_unit,
        screen_width=WIDTH, screen_height=HEIGHT, settings=settings)
    simulator = GPUSimulator(config, scheduler=scheduler,
                             ideal_memory=ideal_memory, name=kind)
    result = simulator.run(traces)
    summary = summarize(benchmark, kind, result)
    if HUB.enabled:
        summary.telemetry = HUB.metrics.snapshot()
        summary.telemetry_state = HUB.metrics.dump()
    if use_cache:
        with cachefile.file_lock(path):
            cachefile.write_cache(summary, path)
    return summary


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


def memory_time_fraction(benchmark: str, frames: int = FRAMES,
                         kind: str = "ptr") -> float:
    """Fraction of execution time spent on memory (Figure 6a method).

    Simulates with the real memory system and again with an ideal one
    (every access hits the L1); the difference is memory time.
    """
    real = run_simulation(benchmark, kind, frames)
    ideal = run_simulation(benchmark, kind, frames, ideal_memory=True)
    if real.total_cycles == 0:
        return 0.0
    return max(1.0 - ideal.total_cycles / real.total_cycles, 0.0)


def classify_suite(names: Sequence[str], frames: int = FRAMES,
                   threshold: float = 0.25) -> Dict[str, float]:
    """Per-benchmark memory-time fraction (>= threshold => memory-bound)."""
    return {name: memory_time_fraction(name, frames) for name in names}


# -- run supervisor ----------------------------------------------------------

@dataclass
class BenchmarkOutcome:
    """What happened to one supervised (benchmark, kind) run."""

    benchmark: str
    kind: str
    #: ``ok`` (summary present), ``failed`` (all attempts exhausted),
    #: ``skipped`` (never attempted: unknown name or aborted suite) or
    #: ``tripped`` (quarantined by the supervisor's circuit breaker
    #: without being attempted).
    status: str
    summary: Optional[RunSummary] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    #: How the result was obtained: ``completed`` (clean first attempt),
    #: ``degraded`` (recovered via retry/preemption), ``failed``,
    #: ``tripped`` or ``skipped``.
    provenance: str = ""
    #: Times the supervisor had to SIGTERM/SIGKILL a worker for this
    #: pair (always 0 in-process).
    preemptions: int = 0

    @property
    def ok(self) -> bool:
        """True when the run produced a summary."""
        return self.status == "ok"

    def describe(self) -> str:
        """One-line description for reports."""
        if self.ok and self.summary is not None:
            return f"{self.summary.total_cycles:,} cycles"
        return f"{self.error_type}: {self.error}"


@dataclass
class SuiteReport:
    """Structured result of a supervised suite run.

    A suite run *always* returns one of these — a failing benchmark is
    recorded here instead of propagating its exception and discarding
    everyone else's multi-minute results.
    """

    outcomes: List[BenchmarkOutcome] = field(default_factory=list)
    #: Flat telemetry-metrics snapshot taken when the sweep finished
    #: (None when the telemetry hub was disabled).
    metrics: Optional[Dict[str, float]] = None

    @property
    def succeeded(self) -> List[BenchmarkOutcome]:
        """Outcomes that produced a summary."""
        return [o for o in self.outcomes if o.status == "ok"]

    @property
    def failed(self) -> List[BenchmarkOutcome]:
        """Outcomes whose every attempt raised."""
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def skipped(self) -> List[BenchmarkOutcome]:
        """Outcomes never attempted (unknown name, aborted suite)."""
        return [o for o in self.outcomes if o.status == "skipped"]

    def summaries(self) -> Dict[Tuple[str, str], RunSummary]:
        """The partial results: (benchmark, kind) -> RunSummary."""
        return {(o.benchmark, o.kind): o.summary for o in self.succeeded}

    def format(self) -> str:
        """Human-readable one-line-per-outcome report."""
        lines = [f"suite: {len(self.succeeded)} ok, {len(self.failed)} "
                 f"failed, {len(self.skipped)} skipped"]
        for o in self.outcomes:
            lines.append(f"  [{o.status:>7}] {o.benchmark}/{o.kind} "
                         f"(attempts={o.attempts}, "
                         f"{o.elapsed_s:.1f}s) {o.describe()}")
        return "\n".join(lines)


@contextmanager
def _wall_clock_limit(seconds: Optional[float], label: str) -> Iterator[None]:
    """Raise :class:`BenchmarkTimeoutError` if the block exceeds ``seconds``.

    Uses ``SIGALRM``/``setitimer``, so it only engages on the main
    thread of a POSIX process; elsewhere (worker threads, Windows) it
    degrades to no enforcement rather than failing the run.

    Timers nest: an enclosing ``_wall_clock_limit`` (or any other
    ``ITIMER_REAL`` user) gets both its handler *and its remaining
    time* back on exit — with the seconds this block consumed
    subtracted, so an outer budget keeps counting across inner blocks.
    An outer timer that expired entirely inside the block fires
    immediately on restore instead of being silently cancelled.
    """
    usable = (seconds is not None and seconds > 0
              and hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise BenchmarkTimeoutError(
            f"{label}: exceeded {seconds:.1f}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    prior_remaining, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    entered = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if prior_remaining > 0.0:
            elapsed = time.monotonic() - entered
            # An outer budget that ran out while we were inside must
            # still fire — re-arm with an epsilon, never with <= 0
            # (which setitimer would read as "cancel").
            signal.setitimer(signal.ITIMER_REAL,
                             max(prior_remaining - elapsed, 1e-6))


def _attempt_pair(benchmark: str, kind: str, frames: int,
                  timeout_s: Optional[float], max_attempts: int,
                  backoff_s: float, runner: Callable[..., RunSummary],
                  run_kwargs: dict) -> BenchmarkOutcome:
    """Run one (benchmark, kind) pair in-process with timeout and retry.

    A ``KeyboardInterrupt`` during an attempt is recorded on the
    returned outcome (``error_type == "KeyboardInterrupt"``) for the
    caller to act on rather than propagating.  Provenance follows the
    supervisor's rules: a success after a retry is ``degraded``.
    """
    outcome = BenchmarkOutcome(benchmark, kind, "failed",
                               provenance="failed")
    start = time.monotonic()
    wall_start = time.time()
    for attempt in range(1, max_attempts + 1):
        outcome.attempts = attempt
        try:
            with _wall_clock_limit(timeout_s, f"{benchmark}/{kind}"):
                summary = runner(benchmark, kind, frames=frames,
                                 **run_kwargs)
            outcome.status = "ok"
            outcome.summary = summary
            outcome.error = outcome.error_type = None
            outcome.provenance = "completed" if attempt == 1 \
                else "degraded"
            break
        except KeyboardInterrupt:
            outcome.error = "interrupted"
            outcome.error_type = "KeyboardInterrupt"
            break
        except Exception as exc:
            wrapped = exc if isinstance(exc, ReproError) \
                else SimulationError(f"{benchmark}/{kind}: {exc!r}")
            outcome.error = str(wrapped)
            outcome.error_type = type(wrapped).__name__
            retryable = is_transient(exc) and attempt < max_attempts
            logger.warning(
                "%s/%s attempt %d/%d failed (%s: %s)%s",
                benchmark, kind, attempt, max_attempts,
                type(exc).__name__, exc,
                "; retrying" if retryable else "")
            if not retryable:
                break
            # Jittered: concurrent workers retrying the same transient
            # fault (a quarantined shared cache entry) must fan out,
            # not thunder back in at the exact same instant.
            time.sleep(backoff_delay(backoff_s, attempt))
    outcome.elapsed_s = time.monotonic() - start
    if HUB.enabled:
        HUB.emit(HarnessSpan(
            name=f"{benchmark}/{kind}", wall_start_s=wall_start,
            wall_dur_s=outcome.elapsed_s, status=outcome.status,
            attempts=outcome.attempts,
            args={"error": outcome.error_type}
            if outcome.error_type else None))
    return outcome


def _skipped(benchmark: str, kind: str, error: str,
             error_type: str) -> BenchmarkOutcome:
    return BenchmarkOutcome(benchmark, kind, "skipped",
                            error=error, error_type=error_type,
                            provenance="skipped")


def _unknown_benchmark(benchmark: str, kind: str,
                       valid: Sequence[str]) -> BenchmarkOutcome:
    return _skipped(benchmark, kind,
                    (f"unknown benchmark {benchmark!r}; "
                     f"valid: {', '.join(valid)}"),
                    "ConfigValidationError")


def run_suite(benchmarks: Sequence[str],
              kinds: Sequence[str] = ("libra",),
              frames: int = FRAMES,
              timeout_s: Optional[float] = None,
              max_attempts: int = 2,
              backoff_s: float = 0.25,
              runner: Optional[Callable[..., RunSummary]] = None,
              known_benchmarks: Optional[Sequence[str]] = None,
              workers: int = 1,
              **run_kwargs) -> SuiteReport:
    """Supervised sweep over ``benchmarks`` x ``kinds``.

    The resilient entry point for long campaigns: each (benchmark, kind)
    pair runs under an optional per-run wall-clock ``timeout_s``;
    transient faults (corrupt cache entries, I/O errors) are retried up
    to ``max_attempts`` times with exponential backoff starting at
    ``backoff_s``; and any terminal failure is recorded in the returned
    :class:`SuiteReport` while the remaining pairs keep running.
    Unknown benchmark names are reported as ``skipped`` (with the valid
    names in the message) instead of aborting the sweep.

    ``workers`` > 1 runs up to that many pairs at once on monitored
    forked workers under :class:`~repro.supervision.Supervisor` (see
    :func:`run_pairs`): a hung, crashed or OOM-killed worker is
    detected, retried when transient, and isolated to its pair, and a
    pair that needed a retry or a preemption is reported ``degraded``.
    ``timeout_s`` is then a floor that the adaptive deadline may
    extend, not a cap; without it no pair gets a deadline, and only a
    worker whose heartbeat stops is preempted.  Outcome order matches
    the sequential run, and
    the on-disk trace/result caches stay consistent because every entry
    is written under an advisory file lock.  The workers inherit
    ``runner`` and ``run_kwargs`` at fork without pickling, so closures
    work; the summaries they return must pickle.  A worker runs many
    pairs, so a runner must not count on a fresh process per pair;
    with the telemetry hub on, each pair still starts from an empty
    metrics registry.

    ``runner`` defaults to :func:`run_simulation` and exists for tests
    and alternative backends; it receives ``(benchmark, kind,
    frames=..., **run_kwargs)`` and must return a :class:`RunSummary`.
    A ``KeyboardInterrupt`` stops the sweep but still returns the
    report, with untouched pairs marked ``skipped``.
    """
    valid = list(known_benchmarks) if known_benchmarks is not None \
        else benchmark_names()
    pairs = [(b, k) for b in benchmarks for k in kinds]
    return run_pairs(pairs, frames=frames, timeout_s=timeout_s,
                     max_attempts=max_attempts, backoff_s=backoff_s,
                     runner=runner, workers=workers, valid=valid,
                     **run_kwargs)


def run_pairs(pairs: Sequence[Tuple[str, str]],
              frames: int = FRAMES,
              timeout_s: Optional[float] = None,
              max_attempts: int = 2,
              backoff_s: float = 0.25,
              runner: Optional[Callable[..., RunSummary]] = None,
              workers: int = 1,
              valid: Optional[Sequence[str]] = None,
              supervisor: Optional[Supervisor] = None,
              breaker_key_for: Optional[Callable[[str, str], str]] = None,
              **run_kwargs) -> SuiteReport:
    """Supervised execution of an explicit ``(benchmark, kind)`` pair list.

    The execution core of :func:`run_suite`, exposed for callers whose
    work list is not a full ``benchmarks x kinds`` cross product — the
    sweep engine (:mod:`repro.experiments`) routes arbitrary grid points
    through here with the point id in the ``kind`` slot.  Everything
    else carries over from :func:`run_suite`: per-pair wall-clock
    timeout, bounded retry with backoff, failure isolation and stable
    outcome order.

    ``valid`` is an optional allow-list of benchmark names; pairs whose
    benchmark falls outside it are reported as ``skipped``.  ``None``
    (the default here, unlike :func:`run_suite`) runs every pair as
    given.

    The backend follows from the arguments.  With ``workers > 1`` (a
    default :class:`~repro.supervision.Supervisor` is built when none is
    passed; its adaptive deadline only engages when ``timeout_s`` is
    given) or an explicit ``supervisor``, the pairs run on up to
    ``workers`` monitored forked workers, each forked once and reused,
    with per-pair heartbeat/hang detection, adaptive deadlines learned
    per ``breaker_key_for(benchmark, kind)``, escalating preemption,
    parent-side jittered retries and (when the supervisor carries a
    breaker) circuit breaking keyed the same way; outcomes may then
    carry the ``tripped`` status.  Otherwise the pairs run one by one
    in this process with a ``SIGALRM`` timeout and in-process retry,
    which costs no fork and keeps a runner's in-memory state (a
    test's call log, say) visible to the caller.  Both backends set
    every outcome's ``provenance``.
    """
    if max_attempts < 1:
        raise ConfigValidationError("max_attempts must be >= 1")
    if workers < 1:
        raise ConfigValidationError("workers must be >= 1")
    runner = runner or run_simulation
    suite_wall_start = time.time()
    if supervisor is None and workers > 1:
        # No timeout means no cap, as on the in-process path: a cold
        # pair after a run of result-cache hits must not inherit their
        # millisecond median as its deadline.  Hang detection stays.
        supervisor = Supervisor(None if timeout_s is not None else
                                SupervisionPolicy(
                                    deadline_min_samples=len(pairs) + 1))
    if supervisor is not None:
        report = _run_suite_supervised(pairs, valid, workers, frames,
                                       timeout_s, max_attempts,
                                       backoff_s, runner, run_kwargs,
                                       supervisor, breaker_key_for)
        return _finalize_suite(report, suite_wall_start)
    report = SuiteReport()
    aborted = False
    for benchmark, kind in pairs:
        if aborted:
            report.outcomes.append(_skipped(
                benchmark, kind, "suite interrupted", "KeyboardInterrupt"))
            continue
        if valid is not None and benchmark not in valid:
            report.outcomes.append(
                _unknown_benchmark(benchmark, kind, valid))
            continue
        outcome = _attempt_pair(benchmark, kind, frames, timeout_s,
                                max_attempts, backoff_s, runner,
                                run_kwargs)
        if outcome.error_type == "KeyboardInterrupt":
            aborted = True
        report.outcomes.append(outcome)
    return _finalize_suite(report, suite_wall_start)


def _finalize_suite(report: SuiteReport, wall_start: float) -> SuiteReport:
    """Attach the suite-level telemetry span and metrics snapshot.

    Under the supervisor each pair runs in a forked worker whose copy
    of the hub is reset before every pair, so the snapshot taken here
    reflects the parent only (the supervisor's per-pair spans and
    counters, not the simulations' metrics, which travel in each
    pair's summary); the in-process path captures everything.
    """
    if HUB.enabled:
        HUB.emit(HarnessSpan(
            name="suite", wall_start_s=wall_start,
            wall_dur_s=time.time() - wall_start, status="done",
            attempts=len(report.outcomes),
            args={"ok": len(report.succeeded),
                  "failed": len(report.failed),
                  "skipped": len(report.skipped)}))
        report.metrics = HUB.metrics.snapshot()
    return report


def _run_suite_supervised(pairs: Sequence[Tuple[str, str]],
                          valid: Optional[Sequence[str]], workers: int,
                          frames: int, timeout_s: Optional[float],
                          max_attempts: int, backoff_s: float,
                          runner: Callable[..., RunSummary],
                          run_kwargs: dict, supervisor: Supervisor,
                          breaker_key_for: Optional[Callable[[str, str],
                                                             str]]
                          ) -> SuiteReport:
    """The :class:`~repro.supervision.Supervisor` backend of run_pairs.

    Translates pairs to :class:`~repro.supervision.SupervisedJob`\\ s and
    worker outcomes back to :class:`BenchmarkOutcome`\\ s, preserving the
    report's outcome order.  The workers are forked once per slot and
    look each job up in the list they inherited; a worker calls the
    runner once per attempt, with no retry or timeout of its own:
    deadlines, preemption and retries all live in the supervising
    parent, which can also handle the failures in-process code cannot
    (hangs, OOM kills), and a worker lost to one of them is replaced by
    a fresh fork for the next pair.  Works with ``workers == 1`` too,
    which is what makes chaos-injected crashes and hangs in a
    sequential sweep survivable.
    """
    slots: List[Optional[BenchmarkOutcome]] = [None] * len(pairs)
    jobs: List[SupervisedJob] = []
    job_slots: List[int] = []
    for i, (benchmark, kind) in enumerate(pairs):
        if valid is not None and benchmark not in valid:
            slots[i] = _unknown_benchmark(benchmark, kind, valid)
            continue
        jobs.append(SupervisedJob(
            label=f"{benchmark}/{kind}", fn=runner,
            args=(benchmark, kind),
            kwargs={"frames": frames, **run_kwargs},
            breaker_key=breaker_key_for(benchmark, kind)
            if breaker_key_for else ""))
        job_slots.append(i)
    worker_outcomes = supervisor.run(
        jobs, timeout_s=timeout_s, max_attempts=max_attempts,
        backoff_s=backoff_s, workers=workers)
    for slot, wo in zip(job_slots, worker_outcomes):
        benchmark, kind = pairs[slot]
        slots[slot] = BenchmarkOutcome(
            benchmark, kind, wo.status,
            summary=wo.result if wo.ok else None,
            error=wo.error, error_type=wo.error_type,
            attempts=wo.attempts, elapsed_s=wo.elapsed_s,
            provenance=wo.provenance, preemptions=wo.preemptions)
    return SuiteReport(outcomes=[s for s in slots if s is not None])
