"""The worker fleet: claim, execute, checkpoint, finalize.

``repro worker --root DIR`` runs this loop.  Any number of workers —
started before or after the jobs they serve, on one host or many
sharing the store directory — cooperate with **no coordinator
process**: each scans the job store, claims one pending point under a
lease (:mod:`repro.service.queue`), executes it through the *exact*
local sweep stack, and the worker that accounts for the last point
aggregates the matrix and finalizes the job.  The server
(:mod:`repro.service.server`) only reads; killing it mid-sweep costs
nothing but the API.

"Exact local stack" is the correctness argument of the whole service:
a claimed point runs through :func:`repro.experiments.engine.execute_points`
with the same point runner, the same supervised fork backend
(:class:`repro.supervision.Supervisor` — heartbeat hang detection,
SIGTERM→SIGKILL preemption, jittered retries), the same store-persisted
circuit breaker, and the same chaos injection sites as a local ``repro
sweep``.  A chaos plan in the worker's environment therefore fires
per-point exactly as it does locally, which is what lets the e2e suite
demand bit-identical matrices between the two paths.  As in a local
sweep, the supervised worker is forked once and reused point after
point: each drain of one job opens one
:class:`~repro.supervision.Supervisor` (``with supervisor:``) and runs
every point it claims on that supervisor's worker, which forks at the
first claim and is reaped when the drain returns.  What the job's
points share — the trace memo, derived tile-stream data, the adaptive
deadline learned per ``benchmark|kind`` — therefore lasts for the job
and no longer: a tiny grid never sets the deadline of another job's
large points.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from pathlib import Path
from typing import Optional, Set, Union

from .. import cachefile, chaos
from ..errors import ConfigValidationError
from ..experiments import ExperimentSpec, speedup_matrix
from ..experiments.engine import (breaker_key, execute_points,
                                  store_breaker, sweep_result_from_store)
from ..harness import RESULT_GENERATION
from ..supervision import SupervisionPolicy, Supervisor
from .fleet import DEFAULT_FLEET_INTERVAL_S, FleetReporter
from .jobs import JobStore
from .queue import DEFAULT_LEASE_TTL_S, PointClaim, claim_point
from .schema import JobRecord

logger = logging.getLogger(__name__)

#: Wire discriminator of the cached ``result.json`` payload.
RESULT_SCHEMA = "repro.result/v1"


def default_worker_id() -> str:
    """Host-qualified worker identity (shows up in leases and events)."""
    return f"{socket.gethostname()}-{os.getpid()}"


def run_worker(root: Union[str, Path],
               worker_id: Optional[str] = None,
               poll_s: float = 0.5,
               lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
               idle_exit_s: Optional[float] = None,
               max_points: Optional[int] = None,
               once: bool = False,
               policy: Optional[SupervisionPolicy] = None,
               stop=None,
               fleet_interval_s: float = DEFAULT_FLEET_INTERVAL_S) -> int:
    """Serve the job store at ``root`` until told (or idle) to stop.

    Returns the number of points this worker executed.  Exit
    conditions: ``stop`` (a ``threading.Event``) is set, ``max_points``
    points were executed, ``once`` is set and a full scan found no
    claimable work, or ``idle_exit_s`` seconds pass without any work
    (None = wait forever — the daemon default).

    For the whole run a :class:`~repro.service.fleet.FleetReporter`
    beats an atomic ``<root>/fleet/<worker_id>.json`` health snapshot
    every ``fleet_interval_s`` seconds — the raw material of the
    server's ``GET /v1/fleet`` — and a SIGKILL simply stops the beat,
    so the fleet view flags this worker stale by mtime exactly like an
    abandoned lease.
    """
    store = JobStore(root)
    worker_id = worker_id or default_worker_id()
    logger.info("worker %s serving %s", worker_id, store.root)
    reporter = FleetReporter(store.root, worker_id,
                             interval_s=fleet_interval_s).start()
    if os.environ.get(chaos.ENV_SEED) is not None:
        reporter.note(chaos_active=True)
    try:
        return _worker_loop(store, worker_id, poll_s, lease_ttl_s,
                            idle_exit_s, max_points, once, policy, stop,
                            reporter)
    finally:
        reporter.stop()


def _worker_loop(store: JobStore, worker_id: str, poll_s: float,
                 lease_ttl_s: float, idle_exit_s: Optional[float],
                 max_points: Optional[int], once: bool,
                 policy: Optional[SupervisionPolicy], stop,
                 reporter: FleetReporter) -> int:
    executed = 0
    idle_since: Optional[float] = None
    refused: Set[str] = set()
    while not (stop is not None and stop.is_set()):
        claimed_any = False
        for record in store.list_jobs():
            if stop is not None and stop.is_set():
                break
            if record.state not in ("queued", "running"):
                continue
            spec = _job_spec(store, record, refused)
            if spec is None:
                continue
            ran = _drain_job(store, record.job_id, spec, worker_id,
                             lease_ttl_s, policy, stop,
                             remaining=None if max_points is None
                             else max_points - executed,
                             reporter=reporter)
            executed += ran
            claimed_any = claimed_any or ran > 0
            if max_points is not None and executed >= max_points:
                return executed
        if claimed_any:
            idle_since = None
            continue
        if once:
            return executed
        now = time.time()
        idle_since = idle_since if idle_since is not None else now
        if idle_exit_s is not None and now - idle_since >= idle_exit_s:
            logger.info("worker %s idle for %.1fs, exiting",
                        worker_id, idle_exit_s)
            return executed
        if stop is not None:
            stop.wait(poll_s)
        else:
            time.sleep(poll_s)
    return executed


def _job_spec(store: JobStore, record: JobRecord,
              refused: Set[str]) -> Optional[ExperimentSpec]:
    """The job's validated spec, or None when this worker must not run it.

    A generation mismatch is refused (logged + one event, the job is
    left for a matching worker); an unparsable spec fails the job —
    no worker will ever be able to run it.
    """
    if record.generation != RESULT_GENERATION:
        if record.job_id not in refused:
            refused.add(record.job_id)
            logger.warning(
                "job %s was submitted at generation %s; this worker "
                "runs generation %s and refuses it", record.job_id,
                record.generation, RESULT_GENERATION)
            store.events(record.job_id).emit(
                "generation_refused", job_id=record.job_id,
                job_generation=record.generation,
                worker_generation=RESULT_GENERATION)
        return None
    try:
        spec = record.experiment_spec()
        spec.validate()
        store.sweep_store(record.job_id).initialize(spec)
        return spec
    except (ConfigValidationError, KeyError, TypeError) as exc:
        _finish_job(store, record.job_id, "failed",
                    error=f"{type(exc).__name__}: {exc}")
        return None


def _drain_job(store: JobStore, job_id: str, spec: ExperimentSpec,
               worker_id: str, lease_ttl_s: float,
               policy: Optional[SupervisionPolicy], stop,
               remaining: Optional[int],
               reporter: Optional[FleetReporter] = None) -> int:
    """Claim and execute points of one job until none remains.

    Every point of the drain runs on one supervisor, whose worker is
    forked at the first claim (a drain that claims nothing forks
    nothing) and reaped when the drain returns.  The job is finalized
    by the scan that finds nothing left to claim, or after the last
    point when the drain stops early (``remaining`` spent, ``stop``
    set), so finalizing costs one store scan per drain, not per point.
    """
    ran = 0
    with Supervisor(policy) as supervisor:
        while not (stop is not None and stop.is_set()):
            if remaining is not None and ran >= remaining:
                return ran
            fresh = store.read(job_id)
            if fresh is None or fresh.terminal:
                return ran
            claim = claim_point(store, job_id, spec, worker_id,
                                lease_ttl_s=lease_ttl_s)
            if claim is None:
                if _maybe_finalize(store, job_id, spec, lease_ttl_s):
                    return ran
                # Finalize declined: either another worker still holds
                # a live lease (it will finalize), or verification just
                # quarantined a torn artifact and re-opened its point.
                # One more scan tells the two apart.
                claim = claim_point(store, job_id, spec, worker_id,
                                    lease_ttl_s=lease_ttl_s)
                if claim is None:
                    return ran
            _mark_running(store, job_id, worker_id)
            store.events(job_id).emit(
                "point_claimed", job_id=job_id,
                point_id=claim.point.point_id, owner=worker_id,
                adopted_from=claim.adopted_from)
            if reporter is not None:
                reporter.point_started(job_id, claim.point.point_id)
            try:
                outcome = _execute_claim(store, fresh, spec, claim,
                                         lease_ttl_s, supervisor)
            finally:
                claim.release()
            if reporter is not None:
                reporter.point_finished(outcome.status == "ok",
                                        attempts=outcome.attempts)
            ran += 1
            if (remaining is not None and ran >= remaining) \
                    or (stop is not None and stop.is_set()):
                _maybe_finalize(store, job_id, spec, lease_ttl_s)
            if reporter is not None:
                reporter.idle()
    return ran


def _mark_running(store: JobStore, job_id: str, worker_id: str) -> None:
    """``queued`` → ``running`` exactly once (first claimer wins)."""
    transitioned = []

    def mutate(record: JobRecord) -> None:
        if record.state == "queued":
            record.state = "running"
            transitioned.append(True)

    store.update(job_id, mutate)
    if transitioned:
        store.events(job_id).emit("job_started", job_id=job_id,
                                  worker=worker_id)


def _execute_claim(store: JobStore, record: JobRecord,
                   spec: ExperimentSpec, claim: PointClaim,
                   lease_ttl_s: float, supervisor: Supervisor):
    """Run one claimed point through the local sweep stack.

    ``supervisor`` is the drain's, so the point runs on the worker the
    job's earlier points warmed.  Its circuit breaker is loaded from the
    job's ``breakers.json`` before the point, since other workers of the
    fleet record theirs there too, and only the point's own
    ``benchmark|kind`` cell is merged back afterwards
    (:meth:`~repro.experiments.ArtifactStore.record_breaker_state`); a
    point that left that cell as it was writes nothing.

    The lease renewer beats for the whole execution (simulation plus
    supervised retries), so a live worker grinding a slow point is
    never mistaken for a dead one; it stops before the lease is
    released either way.  Returns the point's
    :class:`~repro.experiments.PointOutcome`.

    With per-point telemetry on, the runner also writes a correlated
    trace stream to ``<job>/traces/<point_id>.<pid>.jsonl`` — every
    record stamped with this job/worker/point — which is what lets
    ``repro trace --store DIR`` merge a whole fleet's execution into
    one timeline afterwards.
    """
    point = claim.point
    sweep_store = store.sweep_store(claim.job_id)
    events = store.events(claim.job_id)
    renewer = claim.renewer(lease_ttl_s)
    wall_start = time.time()
    try:
        tracing = {}
        if record.point_telemetry:
            tracing = dict(trace_dir=str(store.traces_dir(claim.job_id)),
                           correlation={"job_id": claim.job_id,
                                        "worker_id": claim.worker_id})
        key = breaker_key(point)
        breaker = supervisor.breaker = store_breaker(sweep_store,
                                                     supervisor.policy)
        cell = breaker.to_state()["cells"].get(key)
        [outcome] = execute_points(
            [point], sweep_store.root, timeout_s=spec.timeout_s,
            max_attempts=spec.retries + 1, backoff_s=spec.backoff_s,
            supervisor=supervisor, point_telemetry=record.point_telemetry,
            **tracing)
        state = breaker.to_state()
        if state["cells"].get(key) != cell:
            sweep_store.record_breaker_state(state, key=key)
    finally:
        renewer.stop()
    elapsed = round(time.time() - wall_start, 6)
    if outcome.status == "ok":
        events.emit("point_done", job_id=claim.job_id,
                    point_id=point.point_id, owner=claim.worker_id,
                    cycles=outcome.summary.total_cycles,
                    attempts=outcome.attempts,
                    provenance=outcome.provenance,
                    elapsed_s=elapsed)
    else:
        sweep_store.record_point_failure(
            point.point_id, error=outcome.error or "",
            error_type=outcome.error_type or outcome.status)
        events.emit("point_failed", job_id=claim.job_id,
                    point_id=point.point_id, owner=claim.worker_id,
                    error=outcome.error or "",
                    error_type=outcome.error_type or outcome.status,
                    attempts=outcome.attempts, elapsed_s=elapsed)
    return outcome


def _maybe_finalize(store: JobStore, job_id: str, spec: ExperimentSpec,
                    lease_ttl_s: float) -> bool:
    """Aggregate and finish the job once every point is accounted for.

    Safe to call from any worker at any time: the counts gate rejects
    jobs with pending or actively-leased points, the matrix is a pure
    function of the store (two racing finalizers write identical
    bytes), and the state transition is guarded so events fire once.
    """
    counts = store.counts(job_id, spec, lease_ttl_s=lease_ttl_s)
    if not counts or counts["pending"] or counts["leased"]:
        return False
    # The counts gate goes by artifact existence, which a torn write
    # (power loss, chaos 'corrupt') satisfies with bytes that fail
    # their checksum.  Read every completed point through the checksum
    # layer first: a corrupt artifact is quarantined aside, which
    # re-opens its point, and the re-checked gate declines so the
    # caller rescans and reruns it instead of serving a partial matrix.
    store.sweep_store(job_id).load_completed(spec.expand())
    counts = store.counts(job_id, spec, lease_ttl_s=lease_ttl_s)
    if counts["pending"] or counts["leased"]:
        return False
    # Every point is accounted for, so a lease still on disk names a
    # finished point whose worker died before releasing it (a SIGKILLed
    # worker's child still checkpoints its in-flight point).  No one
    # else would ever remove it.
    for lease in store.leases_dir(job_id).glob("*.lease"):
        try:
            lease.unlink()
        except OSError:
            pass
    result = sweep_result_from_store(spec,
                                     store.sweep_store(job_id).root)
    matrix = speedup_matrix(result)
    payload = {"schema": RESULT_SCHEMA,
               "generation": RESULT_GENERATION, "job_id": job_id,
               "fingerprint": spec.fingerprint(),
               "partial": matrix.partial,
               "counts": counts, "matrix": matrix.to_dict(),
               "markdown": matrix.to_markdown()}
    cachefile.atomic_write_bytes(
        store.result_path(job_id),
        json.dumps(payload, indent=2, sort_keys=True).encode())
    state = "failed" if counts["failed"] else "done"
    error = (f"{counts['failed']} of {counts['total']} points failed"
             if counts["failed"] else "")
    return _finish_job(store, job_id, state, error=error, counts=counts)


def _finish_job(store: JobStore, job_id: str, state: str,
                error: str = "", counts: Optional[dict] = None) -> bool:
    """Terminal transition + event, exactly once across the fleet."""
    transitioned = []

    def mutate(record: JobRecord) -> None:
        if record.terminal:
            return
        record.state = state
        record.error = error
        record.finished_at = round(time.time(), 6)
        transitioned.append(True)

    store.update(job_id, mutate)
    if transitioned:
        store.events(job_id).emit(
            f"job_{state}", job_id=job_id, error=error,
            **({"counts": counts} if counts else {}))
        logger.info("job %s finished: %s%s", job_id, state,
                    f" ({error})" if error else "")
    return bool(transitioned)
