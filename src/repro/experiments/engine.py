"""The sweep engine: expand, dedupe, execute, checkpoint, resume.

:func:`run_sweep` is the one entry point; :func:`run_sweeps`, which it
calls, runs several specs as one grid, each distinct point once.  It
expands an :class:`~repro.experiments.spec.ExperimentSpec` into grid
points, loads whatever a previous (possibly killed) run already
completed from the :class:`~repro.experiments.store.ArtifactStore`,
has each unique frame trace built exactly once (up front, or by a
forked prefetch while the points run), and executes the remaining
points through :func:`execute_points` — the executor the sweep
service's workers use too, and ``repro suite`` is a sweep with no
axes — so every point gets
the per-run wall-clock timeout, bounded retry with backoff and failure
isolation.  :func:`simulate_point` is the one function that builds a
configured simulator and runs a point, and :func:`execute_point`, which
summarizes its run, the one that turns a point into a
:class:`~repro.harness.RunSummary`.  Each point's summary
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

import contextlib
import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import chaos, harness
from ..config import GPUConfig
from ..errors import ConfigValidationError
from ..gpu import GPUSimulator, RunResult
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


def simulate_point(point: SweepPoint) -> RunResult:
    """Simulate one grid point on its cached traces (no store).

    The single source of truth for how a point becomes a simulator:
    organization axes go to :meth:`GPUConfig.build`, everything else is
    applied as dotted settings *before* validation and scheduler
    construction, so threshold and supertile axes genuinely steer the
    LIBRA decision logic, and ``ideal_memory`` runs the ideal memory
    system.  The sweep engine, ``repro compare`` and the CLI's ``run``,
    ``trace``, ``report`` and ``heatmap`` all simulate through here,
    which is what makes their numbers comparable point for point.
    """
    traces = harness.get_traces(*point.trace_key)
    build_kwargs, settings = point.resolved()
    config, scheduler = GPUConfig.build(
        point.kind, screen_width=point.width, screen_height=point.height,
        settings=settings, **build_kwargs)
    return GPUSimulator(config, scheduler=scheduler,
                        name=point.kind).run(traces)


def execute_point(point: SweepPoint) -> RunSummary:
    """Simulate one grid point (no caching, no store) and summarize it."""
    return harness.summarize(point.benchmark, point.kind,
                             simulate_point(point))


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
            # Counted before the copy, so the artifact counts itself.
            HUB.metrics.counter("sweep.points.executed").inc()
            summary.telemetry = HUB.metrics.snapshot()
            summary.telemetry_state = HUB.metrics.dump()
            HUB.emit(HarnessSpan(
                name=f"sweep.point.{point_id}", wall_start_s=wall_start,
                wall_dur_s=time.time() - wall_start, status="ok",
                attempts=1,
                args={"benchmark": point.benchmark, "kind": point.kind,
                      **point.axis_values}))
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
                   store_root: Union[str, Path, Sequence[Union[str, Path]]],
                   timeout_s: Optional[float] = None,
                   max_attempts: int = 2,
                   backoff_s: float = 0.25,
                   supervisor: Optional[Supervisor] = None,
                   workers: int = 1,
                   point_telemetry: bool = True,
                   trace_dir: str = "",
                   correlation: Optional[Dict[str, str]] = None
                   ) -> List[PointOutcome]:
    """Run ``points``, checkpointing each into the store at
    ``store_root``, or at its own entry of a ``store_root`` list.

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
    if isinstance(store_root, (str, Path)):
        store_root = [store_root] * len(points)
    options = dict(point_telemetry=point_telemetry, driver_pid=os.getpid(),
                   trace_dir=trace_dir, correlation=correlation)
    jobs = [SupervisedJob(label=p.describe(), fn=_point_runner, args=(p,),
                          kwargs=dict(options, store_root=str(root)),
                          breaker_key=breaker_key(p))
            for p, root in zip(points, store_root)]
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
    monkeypatch-friendly; there a forked process builds the trace sets
    after the first while the points run (:func:`run_sweeps`).
    ``policy`` overrides the supervision tunables.
    """
    root = Path(store_root) if store_root is not None \
        else Path(".repro_sweeps") / spec.name
    (result,) = run_sweeps([(spec, root)], workers=workers,
                           timeout_s=timeout_s, retries=retries,
                           point_telemetry=point_telemetry, policy=policy)
    return result


def run_sweeps(sweeps: Sequence[Tuple[ExperimentSpec, Union[str, Path]]],
               workers: Optional[int] = None,
               timeout_s: Optional[float] = None,
               retries: Optional[int] = None,
               point_telemetry: bool = True,
               policy: Optional[SupervisionPolicy] = None
               ) -> List[SweepResult]:
    """Execute (or resume) several sweeps as one grid, each distinct
    point once; one :class:`SweepResult` per ``(spec, store root)``.

    Each spec keeps its own store, resumed as :func:`run_sweep` resumes
    it.  A point (by ``point_id``) that some store already holds is not
    run again; one that is pending runs once, checkpointed into the
    store of the first sweep listing it.  The pending points run as one
    grid through one executor, grouped by trace set in order of first
    appearance.  Afterwards every store receives each completed
    artifact of its grid it lacks (:meth:`ArtifactStore.share`); in its
    result such a point is ``resumed``, so a point executed here counts
    as executed in one sweep only.

    The execution policy is :func:`run_sweep`'s; ``workers``,
    ``timeout_s`` and ``retries`` default to the first spec's.  The
    supervised backend builds every trace set up front and keeps one
    circuit breaker for the grid, started from the stores' recorded
    states (a key takes the first store's cell) and written back to
    each store for its own keys.  In-process without ``timeout_s``, the
    first trace set is built up front and a forked process builds the
    rest in grid order while the points run
    (:func:`~repro.harness.prefetch_traces`); with a per-point timeout
    every set is built up front, so no point's budget includes a wait
    for its traces.
    """
    if not sweeps:
        return []
    for spec, _ in sweeps:
        spec.validate()
    first = sweeps[0][0]
    workers = first.workers if workers is None else workers
    timeout_s = first.timeout_s if timeout_s is None else timeout_s
    retries = first.retries if retries is None else retries
    if workers < 1 or retries < 0:
        raise ConfigValidationError("workers must be >= 1, retries >= 0")
    names = ", ".join(spec.name for spec, _ in sweeps)
    chaos_plan = chaos.active()
    if chaos_plan is not None:
        logger.warning("sweep %s runs under %s", names,
                       chaos_plan.describe())

    opened = []
    for spec, root in sweeps:
        store = ArtifactStore(root)
        resuming = store.initialize(spec)
        points = spec.expand()
        done = store.load_completed(points) if resuming else {}
        opened.append((spec, store, points, done))
        if HUB.enabled:
            HUB.metrics.counter("sweep.points.total").inc(len(points))
            HUB.metrics.counter("sweep.points.resumed").inc(len(done))
        logger.info("sweep %s: %d points (%d resumed) -> %s", spec.name,
                    len(points), len(done), store.root)
    # Where each point's artifact comes from: a store that holds it
    # already, else the first sweep that lists it, which runs it.
    source: Dict[str, ArtifactStore] = {}
    summaries: Dict[str, RunSummary] = {}
    for _, store, _, done in opened:
        for pid, summary in done.items():
            source.setdefault(pid, store)
            summaries.setdefault(pid, summary)
    pending: List[SweepPoint] = []
    for _, store, points, _ in opened:
        for point in points:
            if point.point_id not in source:
                source[point.point_id] = store
                pending.append(point)
    pending = _by_trace_set(pending)
    wall_start = time.time()
    logger.info("sweep %s: %d points to run", names, len(pending))

    supervisor: Optional[Supervisor] = None
    if workers > 1 or chaos_plan is not None:
        supervisor = Supervisor(policy, breaker=_grid_breaker(
            [store for _, store, _, _ in opened], policy))
    executed = _execute_grid(
        pending, [source[p.point_id].root for p in pending],
        supervisor=supervisor, workers=workers, timeout_s=timeout_s,
        max_attempts=retries + 1, backoff_s=first.backoff_s,
        point_telemetry=point_telemetry)
    outcomes = dict(zip((p.point_id for p in pending), executed))
    summaries.update((pid, o.summary) for pid, o in outcomes.items()
                     if o.ok)

    results = []
    for spec, store, points, done in opened:
        if supervisor is not None:
            store.record_breaker_state(_breaker_state_for(
                supervisor.breaker.to_state(),
                {breaker_key(p) for p in points}))
        result = SweepResult(spec=spec, store_root=store.root)
        for point in points:
            pid = point.point_id
            summary = done.get(pid)
            if summary is None and source[pid] is not store:
                # Another store holds it, or another sweep ran it.
                summary = summaries.get(pid)
                if summary is not None:
                    store.share(pid, source[pid], summary)
            if summary is not None:
                result.outcomes.append(PointOutcome(
                    point=point, status="ok", summary=summary,
                    resumed=True, provenance="resumed"))
            else:
                result.outcomes.append(outcomes[pid])
        results.append(result)
        if HUB.enabled:
            _count_sweep(result, len(done), wall_start)
    return results


def _by_trace_set(points: List[SweepPoint]) -> List[SweepPoint]:
    """``points`` grouped by trace set, the sets in order of first
    appearance and each set's points in their order."""
    groups: Dict[Tuple[str, int, int, int], List[SweepPoint]] = {}
    for point in points:
        groups.setdefault(point.trace_key, []).append(point)
    return [point for group in groups.values() for point in group]


def _execute_grid(points: List[SweepPoint], roots: List[Path],
                  supervisor: Optional[Supervisor], workers: int,
                  timeout_s: Optional[float], max_attempts: int,
                  backoff_s: float,
                  point_telemetry: bool) -> List[PointOutcome]:
    """Run ``points`` (grouped by trace set), each checkpointed into
    its ``roots`` entry, with their trace sets built as
    :func:`run_sweeps` describes."""
    keys = list(dict.fromkeys(point.trace_key for point in points))
    if supervisor is not None or timeout_s is not None:
        # Workers fork after the traces are loaded, inheriting the
        # in-process memo, and a per-point budget never pays for a
        # build: every set is built here first.
        for key in keys:
            harness.get_traces(*key)
        traces = contextlib.nullcontext()
    else:
        traces = harness.prefetch_traces(keys)
    with traces:
        return execute_points(
            points, roots, timeout_s=timeout_s, max_attempts=max_attempts,
            backoff_s=backoff_s, supervisor=supervisor, workers=workers,
            point_telemetry=point_telemetry)


def _grid_breaker(stores: List[ArtifactStore],
                  policy: Optional[SupervisionPolicy]) -> CircuitBreaker:
    """One circuit breaker over the states ``stores`` recorded: a key
    takes the cell of the first store holding one."""
    cells: Dict[str, dict] = {}
    trips: List[dict] = []
    for store in stores:
        state = store_breaker(store, policy).to_state()
        for key, cell in state["cells"].items():
            cells.setdefault(key, cell)
        trips += [trip for trip in state["trips"] if trip not in trips]
    policy = policy or SupervisionPolicy()
    return CircuitBreaker.from_state(
        {"cells": cells, "trips": trips},
        threshold=policy.breaker_threshold,
        cooldown_s=policy.breaker_cooldown_s)


def _breaker_state_for(state: dict, keys: set) -> dict:
    """``state`` with only the cells and trips of ``keys``."""
    return dict(state,
                cells={k: c for k, c in state["cells"].items() if k in keys},
                trips=[t for t in state["trips"]
                       if isinstance(t, dict) and t.get("key") in keys])


def _count_sweep(result: SweepResult, resumed_before: int,
                 wall_start: float) -> None:
    """The counters and span of one finished sweep whose store served
    ``resumed_before`` points before it ran."""
    HUB.metrics.counter("sweep.points.resumed").inc(
        len(result.resumed) - resumed_before)
    HUB.metrics.counter("sweep.points.failed").inc(len(result.failed))
    if result.tripped:
        HUB.metrics.counter("sweep.points.tripped").inc(
            len(result.tripped))
    HUB.emit(HarnessSpan(
        name=f"sweep.{result.spec.name}", wall_start_s=wall_start,
        wall_dur_s=time.time() - wall_start, status="done",
        attempts=len(result.outcomes),
        args={"ok": len(result.completed),
              "resumed": len(result.resumed),
              "failed": len(result.failed),
              "skipped": len(result.skipped),
              "tripped": len(result.tripped)}))


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
