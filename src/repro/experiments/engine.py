"""The sweep engine: expand, dedupe, execute, checkpoint, resume.

:func:`run_sweep` is the one entry point.  It expands an
:class:`~repro.experiments.spec.ExperimentSpec` into grid points, loads
whatever a previous (possibly killed) run already completed from the
:class:`~repro.experiments.store.ArtifactStore`, prebuilds each unique
frame trace exactly once, and executes the remaining points through
:func:`execute_points` — the executor the sweep service's workers use
too, and ``repro suite`` is a sweep with no axes — so every point gets
the per-run wall-clock timeout, bounded retry with backoff and failure
isolation.  :func:`execute_point` is the one function that turns a
point into a :class:`~repro.harness.RunSummary`.  Each point's summary
is checkpointed to the store *from inside the runner*, i.e. in the
worker process, the moment it finishes — killing the driver mid-grid
loses at most the points that were in flight.

Parallel and chaos-mode runs go through the worker-lifecycle supervisor
(:mod:`repro.supervision`): monitored workers, forked once per slot and
reused point after point, with heartbeat hang detection, adaptive
deadlines learned per ``benchmark|kind``, SIGTERM→SIGKILL preemption,
and a circuit breaker (keyed ``benchmark|kind``, persisted in the store as
``breakers.json``) that quarantines systematically failing
combinations.  Every outcome carries a provenance tag
(completed/resumed/degraded/failed/tripped/skipped) and a grid with
holes is reported ``[PARTIAL]`` — see ``docs/robustness.md``.  The
deterministic fault injector (:mod:`repro.chaos`, ``repro sweep
--chaos SEED``) exercises all of it end to end.

Telemetry: when the hub is enabled the engine emits a ``sweep`` span
plus one ``sweep.point.<id>`` span per executed point, and counts
``sweep.points.{total,resumed,executed,failed,tripped}``.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from .. import chaos, harness
from ..config import GPUConfig
from ..errors import ConfigValidationError
from ..gpu import GPUSimulator
from ..harness import RunSummary
from ..supervision import (CircuitBreaker, SupervisedJob, SupervisionPolicy,
                           Supervisor, run_in_process)
from ..telemetry import HUB, HarnessSpan
from .spec import ExperimentSpec, SweepPoint
from .store import ArtifactStore

logger = logging.getLogger(__name__)


@dataclass
class PointOutcome:
    """What happened to one grid point."""

    point: SweepPoint
    #: ``ok`` (summary present), ``failed``, ``skipped`` or ``tripped``
    #: (quarantined by the circuit breaker, never attempted) — plus
    #: ``resumed`` as a flag, not a status: a resumed point is ``ok``.
    status: str
    summary: Optional[RunSummary] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    resumed: bool = False
    #: How the result was obtained: ``completed`` (clean first
    #: attempt), ``resumed`` (artifact served from the store),
    #: ``degraded`` (ok, but only after retries or a preemption),
    #: ``failed``, ``tripped`` or ``skipped``.
    provenance: str = ""
    #: Times the supervisor had to SIGTERM/SIGKILL a worker for this
    #: point (always 0 in-process).
    preemptions: int = 0

    @property
    def ok(self) -> bool:
        """True when the point has a summary (fresh or resumed)."""
        return self.status == "ok"


@dataclass
class SweepResult:
    """Everything a finished (or interrupted) sweep produced."""

    spec: ExperimentSpec
    store_root: Path
    outcomes: List[PointOutcome] = field(default_factory=list)

    @property
    def completed(self) -> List[PointOutcome]:
        """Points with a summary, resumed ones included."""
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> List[PointOutcome]:
        """Points whose every attempt raised."""
        return [o for o in self.outcomes if o.status == "failed"]

    @property
    def skipped(self) -> List[PointOutcome]:
        """Points never attempted (interrupted sweep)."""
        return [o for o in self.outcomes if o.status == "skipped"]

    @property
    def tripped(self) -> List[PointOutcome]:
        """Points quarantined by the circuit breaker (never attempted)."""
        return [o for o in self.outcomes if o.status == "tripped"]

    @property
    def partial(self) -> bool:
        """True when any point lacks a summary (the matrix has holes)."""
        return len(self.completed) < len(self.outcomes)

    def provenance(self) -> Dict[str, str]:
        """point_id -> provenance for every point of the grid."""
        return {o.point.point_id: o.provenance for o in self.outcomes}

    @property
    def resumed(self) -> List[PointOutcome]:
        """Points served from the artifact store instead of re-executed."""
        return [o for o in self.outcomes if o.resumed]

    def summaries(self) -> Dict[str, RunSummary]:
        """point_id -> RunSummary for every completed point."""
        return {o.point.point_id: o.summary for o in self.completed}

    def merged_metrics(self) -> Optional["MetricsRegistry"]:
        """One registry aggregating every completed point's telemetry.

        Counters and histograms add across the grid (merged DRAM
        accesses equal the sum over the per-point artifacts); gauges
        keep the last point's value.  Returns None when no completed
        point carries a telemetry state — point telemetry disabled, or
        every artifact predates the ``telemetry_state`` field (such a
        pickle reads the field's class default, None).
        """
        from ..telemetry import MetricsRegistry
        merged: Optional[MetricsRegistry] = None
        for outcome in self.completed:
            state = outcome.summary.telemetry_state
            if not state:
                continue
            if merged is None:
                merged = MetricsRegistry()
            merged.merge(state)
        return merged

    def format(self) -> str:
        """Human-readable per-point report.

        A sweep with any hole (failed/skipped/tripped point) carries a
        ``[PARTIAL]`` marker on the header line — scripts consuming
        sweep output must never mistake a degraded grid for a complete
        one.
        """
        tripped = f", {len(self.tripped)} tripped" if self.tripped else ""
        lines = [f"sweep {self.spec.name!r}: {len(self.completed)} ok "
                 f"({len(self.resumed)} resumed), {len(self.failed)} "
                 f"failed, {len(self.skipped)} skipped{tripped} "
                 f"of {len(self.outcomes)} points"
                 + (" [PARTIAL]" if self.partial else "")]
        for o in self.outcomes:
            tag = "resumed" if o.resumed else o.status
            if o.ok:
                detail = f"{o.summary.total_cycles:,} cycles"
                if o.provenance == "degraded":
                    detail += (f" (degraded: {o.attempts} attempts, "
                               f"{o.preemptions} preemptions)")
            else:
                detail = f"{o.error_type}: {o.error}"
            lines.append(f"  [{tag:>7}] {o.point.describe()} — {detail}")
        return "\n".join(lines)


def execute_point(point: SweepPoint) -> RunSummary:
    """Simulate one grid point (no caching, no store) and summarize it.

    The single source of truth for how axis values become a simulator:
    organization axes go to :meth:`GPUConfig.build`, everything else is
    applied as dotted settings *before* validation and scheduler
    construction, so threshold and supertile axes genuinely steer the
    LIBRA decision logic.  ``repro compare`` and the sweep engine both
    resolve configs through :meth:`GPUConfig.build`, which is what makes
    their numbers comparable point for point.
    """
    traces = harness.get_traces(point.benchmark, point.frames,
                                point.width, point.height)
    build_kwargs, settings = point.resolved()
    config, scheduler = GPUConfig.build(
        point.kind, screen_width=point.width, screen_height=point.height,
        settings=settings, **build_kwargs)
    simulator = GPUSimulator(config, scheduler=scheduler, name=point.kind)
    result = simulator.run(traces)
    return harness.summarize(point.benchmark, point.kind, result)


def _point_runner(point: SweepPoint, store_root: str,
                  point_telemetry: bool = True,
                  driver_pid: Optional[int] = None,
                  trace_dir: str = "",
                  correlation: Optional[Dict[str, str]] = None
                  ) -> RunSummary:
    """The job :func:`execute_points` runs for one sweep point.

    The summary is checkpointed to the artifact store here, inside the
    worker, so a completed point survives any later crash of the
    driver.  A concurrent or crashed predecessor may have finished the
    point already — the store is re-checked first and the artifact
    reused (idempotent under races).

    With ``point_telemetry`` the runner collects metrics *per point
    even in worker processes*, where the driver's hub does not reach
    and one worker runs many points:
    a disabled hub is enabled (sinkless) around the simulation and the
    registry reset before and disabled after, so each checkpointed
    artifact carries exactly its own point's counters.  A hub the
    caller already enabled (sequential in-process sweep) is left
    untouched — its accumulation is the caller's business — except the
    registry is snapshotted into the summary as before.

    ``driver_pid`` closes the inverse leak: forked workers inherit the
    driver's *enabled* hub (and the supervisor re-enables it, with an
    empty registry, before each point), so ``point_telemetry=False``
    alone would leave inherited collection running in every worker.
    When the pid shows this process is a fork of the driver and
    telemetry was asked off, the inherited hub is disabled here — the
    worker's copy only; the driver's own hub (same pid) is never
    touched.

    ``trace_dir``/``correlation`` (the sweep-service worker path): the
    runner's own telemetry session additionally streams every event to
    ``<trace_dir>/<point_id>.<pid>.jsonl`` stamped with the given
    correlation fields plus ``point_id``, so per-point streams from a
    whole fleet merge into one timeline
    (:func:`repro.telemetry.fleet_trace.fleet_chrome_trace`).  The
    pid-qualified name keeps a hung original and its adopting rerunner
    from clobbering each other's files.  The sink degrades on OSError
    — tracing never fails a point — and a local in-process sweep
    (no ``trace_dir``) is byte-for-byte unaffected.
    """
    point_id = point.point_id
    if (not point_telemetry and driver_pid is not None
            and os.getpid() != driver_pid and HUB.enabled):
        HUB.disable()
    store = ArtifactStore(store_root)
    existing = store.load(point_id)
    if existing is not None:
        return existing
    # Chaos fires *after* the resume check (a completed point is never
    # re-faulted) and *before* any simulation work, so an injected
    # crash/hang costs nothing but the supervised retry.
    chaos.on_point_start(point_id, store_root)
    own_session = point_telemetry and not HUB.enabled
    trace_sink = None
    if own_session:
        HUB.metrics.reset()
        if trace_dir:
            from ..telemetry.fleet_trace import PointTraceSink
            trace_sink = PointTraceSink(
                Path(trace_dir) / f"{point_id}.{os.getpid()}.jsonl",
                extra={**(correlation or {}), "point_id": point_id})
            HUB.enable(trace_sink)
        else:
            HUB.enable()
    wall_start = time.time()
    try:
        summary = execute_point(point)
        if HUB.enabled:
            summary.telemetry = HUB.metrics.snapshot()
            summary.telemetry_state = HUB.metrics.dump()
            HUB.emit(HarnessSpan(
                name=f"sweep.point.{point_id}", wall_start_s=wall_start,
                wall_dur_s=time.time() - wall_start, status="ok",
                attempts=1,
                args={"benchmark": point.benchmark, "kind": point.kind,
                      **point.axis_values}))
            HUB.metrics.counter("sweep.points.executed").inc()
    finally:
        if own_session:
            HUB.disable()
        if trace_sink is not None:
            trace_sink.close()
    store.save(point_id, summary)
    # The crash_late chaos window: checkpoint durable, result not yet
    # returned.  The retry must be served from the store, not re-run.
    chaos.on_checkpoint_saved(point_id)
    return summary


def execute_points(points: Sequence[SweepPoint],
                   store_root: Union[str, Path],
                   timeout_s: Optional[float] = None,
                   max_attempts: int = 2,
                   backoff_s: float = 0.25,
                   supervisor: Optional[Supervisor] = None,
                   workers: int = 1,
                   point_telemetry: bool = True,
                   trace_dir: str = "",
                   correlation: Optional[Dict[str, str]] = None
                   ) -> List[PointOutcome]:
    """Run ``points``, checkpointing each into the store at ``store_root``.

    With a ``supervisor`` the points run on up to ``workers`` of its
    forked workers (:meth:`Supervisor.run`); without one they run one by
    one in this process (:func:`~repro.supervision.run_in_process`).
    Either executor retries transient failures up to ``max_attempts``
    times after ``backoff_s`` and enforces ``timeout_s``; the
    supervisor's adaptive deadline and circuit breaker key on
    ``benchmark|kind``, so one doomed combination trips once, not once
    per grid point.  Outcomes align with ``points``.  The remaining
    options reach :func:`_point_runner`.
    """
    options = dict(store_root=str(store_root),
                   point_telemetry=point_telemetry, driver_pid=os.getpid(),
                   trace_dir=trace_dir, correlation=correlation)
    jobs = [SupervisedJob(label=p.describe(), fn=_point_runner, args=(p,),
                          kwargs=options, breaker_key=breaker_key(p))
            for p in points]
    if supervisor is not None:
        outcomes = supervisor.run(jobs, timeout_s=timeout_s,
                                  max_attempts=max_attempts,
                                  backoff_s=backoff_s, workers=workers)
    else:
        outcomes = run_in_process(jobs, timeout_s=timeout_s,
                                  max_attempts=max_attempts,
                                  backoff_s=backoff_s)
    return [PointOutcome(point=p, status=o.status,
                         summary=o.result if o.ok else None,
                         error=o.error, error_type=o.error_type,
                         attempts=o.attempts, elapsed_s=o.elapsed_s,
                         provenance=o.provenance,
                         preemptions=o.preemptions)
            for p, o in zip(points, outcomes)]


def breaker_key(point: SweepPoint) -> str:
    """The circuit-breaker and adaptive-deadline key of ``point``."""
    return f"{point.benchmark}|{point.kind}"


def store_breaker(store: ArtifactStore,
                  policy: Optional[SupervisionPolicy] = None
                  ) -> CircuitBreaker:
    """The circuit breaker as ``store`` last recorded it.

    Trips recorded by an earlier run (``breakers.json``) stay open until
    their cooldown; the caller writes the breaker back with
    :meth:`ArtifactStore.record_breaker_state` once its points ran.
    """
    policy = policy or SupervisionPolicy()
    return CircuitBreaker.from_state(
        store.load_breaker_state(), threshold=policy.breaker_threshold,
        cooldown_s=policy.breaker_cooldown_s)


def run_sweep(spec: ExperimentSpec,
              store_root: Union[str, Path, None] = None,
              workers: Optional[int] = None,
              timeout_s: Optional[float] = None,
              retries: Optional[int] = None,
              point_telemetry: bool = True,
              policy: Optional[SupervisionPolicy] = None) -> SweepResult:
    """Execute (or resume) the sweep a spec describes.

    ``store_root`` defaults to ``.repro_sweeps/<spec name>``; pointing a
    later invocation at the same directory resumes it — completed points
    are loaded from their checkpoints and only the remainder executes.
    ``workers``/``timeout_s``/``retries`` override the spec's execution
    policy when given.  Returns a :class:`SweepResult` whose outcome
    order matches ``spec.expand()`` regardless of resume state or
    completion order; an interrupted sweep (Ctrl-C) still returns, with
    untouched points ``skipped``.

    ``point_telemetry`` (default on) has every point — including ones
    executed on forked workers, whose processes the driver's hub never
    sees — record its own metrics state into its checkpointed artifact;
    :meth:`SweepResult.merged_metrics` then aggregates them across the
    whole grid.  Its cost is one sinkless hub session per point; pass
    ``False`` to run points with telemetry fully disabled.

    The backend follows from the inputs.  With ``workers > 1`` or an
    active chaos plan (:mod:`repro.chaos`) — injected crashes in an
    in-process sweep would kill the driver — points run on up to
    ``workers`` monitored workers (:mod:`repro.supervision`), each
    forked once after the traces are loaded and reused for point after
    point, so what one point derived (tile stream plans, touched pages)
    serves the next.  Each point still gets heartbeat/hang detection,
    an adaptive deadline learned from completed points of its
    ``(benchmark, kind)``, escalating SIGTERM→SIGKILL preemption that
    costs only its own worker, and a circuit breaker keyed by
    ``(benchmark, kind)`` whose state persists in the artifact store
    across resumes.  Otherwise points run in-process, which saves the
    forks and the result pipe and keeps sequential sweeps
    monkeypatch-friendly.  ``policy`` overrides the supervision
    tunables.
    """
    spec.validate()
    workers = spec.workers if workers is None else workers
    timeout_s = spec.timeout_s if timeout_s is None else timeout_s
    retries = spec.retries if retries is None else retries
    if workers < 1 or retries < 0:
        raise ConfigValidationError("workers must be >= 1, retries >= 0")
    chaos_plan = chaos.active()
    if chaos_plan is not None:
        logger.warning("sweep %s runs under %s", spec.name,
                       chaos_plan.describe())
    root = Path(store_root) if store_root is not None \
        else Path(".repro_sweeps") / spec.name
    store = ArtifactStore(root)
    resuming = store.initialize(spec)

    points = spec.expand()
    done = store.load_completed(points) if resuming else {}
    pending = [p for p in points if p.point_id not in done]
    wall_start = time.time()
    if HUB.enabled:
        HUB.metrics.counter("sweep.points.total").inc(len(points))
        HUB.metrics.counter("sweep.points.resumed").inc(len(done))
    logger.info("sweep %s: %d points (%d resumed, %d to run) -> %s",
                spec.name, len(points), len(done), len(pending), root)

    # Build each distinct trace set once up front: concurrent workers
    # would otherwise serialize on the trace-cache lock rebuilding the
    # same benchmark, and with the fork start method the in-process
    # memo is inherited for free.
    for key in sorted({(p.benchmark, p.frames, p.width, p.height)
                       for p in pending}):
        harness.get_traces(*key)

    supervisor: Optional[Supervisor] = None
    if workers > 1 or chaos_plan is not None:
        supervisor = Supervisor(policy, breaker=store_breaker(store, policy))
    executed = execute_points(
        pending, root, timeout_s=timeout_s, max_attempts=retries + 1,
        backoff_s=spec.backoff_s, supervisor=supervisor, workers=workers,
        point_telemetry=point_telemetry)
    if supervisor is not None:
        store.record_breaker_state(supervisor.breaker.to_state())

    # ``pending`` keeps the grid order, so its outcomes interleave back
    # with the resumed points in sequence.
    fresh = iter(executed)
    result = SweepResult(spec=spec, store_root=root)
    for point in points:
        pid = point.point_id
        if pid in done:
            result.outcomes.append(PointOutcome(
                point=point, status="ok", summary=done[pid],
                resumed=True, provenance="resumed"))
        else:
            result.outcomes.append(next(fresh))
    if HUB.enabled:
        HUB.metrics.counter("sweep.points.failed").inc(len(result.failed))
        if result.tripped:
            HUB.metrics.counter("sweep.points.tripped").inc(
                len(result.tripped))
        HUB.emit(HarnessSpan(
            name=f"sweep.{spec.name}", wall_start_s=wall_start,
            wall_dur_s=time.time() - wall_start, status="done",
            attempts=len(points),
            args={"ok": len(result.completed),
                  "resumed": len(result.resumed),
                  "failed": len(result.failed),
                  "skipped": len(result.skipped),
                  "tripped": len(result.tripped)}))
    return result


def sweep_result_from_store(
        spec: ExperimentSpec,
        store_root: Union[str, Path],
        summaries: Optional[Dict[str, RunSummary]] = None) -> SweepResult:
    """Rebuild a :class:`SweepResult` purely from on-disk artifacts.

    The distributed sweep service has no single driver process holding
    a live result object — points complete in whatever worker claimed
    them, possibly on another host.  Everything a result needs is in
    the shared store, though: checkpointed summaries (``points/``),
    terminal failures (``failures.json``) and the manifest's grid
    fingerprint, which this verifies against ``spec`` so a store is
    never aggregated under the wrong grid.  Points with an artifact are
    ``ok`` (provenance ``resumed`` — served from a checkpoint, which
    renders unmarked, exactly like a locally completed cell), recorded
    failures are ``failed``, everything else ``skipped``.  Feeding the
    result to :func:`~repro.experiments.aggregate.speedup_matrix`
    yields a matrix bit-identical to a local :func:`run_sweep` of the
    same spec once every point has checkpointed.

    ``summaries`` are the verified checkpoints of the grid as
    :meth:`ArtifactStore.load_completed` returns them, for a caller that
    has just read them (the service finalizer); without them every
    artifact is read and verified here.
    """
    spec.validate()
    store = ArtifactStore(store_root)
    manifest = store.read_manifest()
    if manifest is not None \
            and manifest.get("fingerprint") != spec.fingerprint():
        raise ConfigValidationError(
            f"artifact store {store.root} belongs to a different grid "
            f"(stored fingerprint {manifest.get('fingerprint')!r}, "
            f"this spec {spec.fingerprint()!r})")
    points = spec.expand()
    done = store.load_completed(points) if summaries is None else summaries
    failures = store.load_point_failures()
    result = SweepResult(spec=spec, store_root=Path(store_root))
    for point in points:
        pid = point.point_id
        if pid in done:
            result.outcomes.append(PointOutcome(
                point=point, status="ok", summary=done[pid],
                resumed=True, provenance="resumed"))
        elif pid in failures:
            record = failures[pid]
            result.outcomes.append(PointOutcome(
                point=point, status="failed",
                error=str(record.get("error", "")),
                error_type=str(record.get("error_type", "")),
                provenance="failed"))
        else:
            result.outcomes.append(PointOutcome(
                point=point, status="skipped", provenance="skipped"))
    return result
