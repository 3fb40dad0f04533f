"""Worker-lifecycle supervision: heartbeats, preemption, circuit breaking.

An in-process ``SIGALRM`` timeout catches a *slow* run, but not a
worker that hangs (deadlocked C extension, livelocked retry loop), is
OOM-killed, or dumps core mid-grid — any of which would stall or
silently degrade an entire sweep.  This module holds both executors of
:mod:`repro.experiments.engine`, with one set of retry, backoff and
provenance rules: :func:`run_in_process` for a sequential sweep, and the
:class:`Supervisor` for every ``workers > 1`` and chaos-mode sweep.

The pieces:

* :func:`run_in_process` — runs jobs one by one in the calling process
  under a per-attempt ``SIGALRM`` limit (:func:`_wall_clock_limit`): no
  fork, so it cannot survive a crash or a hang, but a job's in-memory
  effects stay visible to the caller.
* :class:`HeartbeatWriter` — a daemon thread in each worker touching a
  per-attempt heartbeat file.  Tolerant of unwritable filesystems
  (read-only, ENOSPC): it degrades to silence instead of killing the
  worker, and the supervisor falls back to deadline-only monitoring.
* :class:`Supervisor` / :func:`Supervisor.run` — forks each of its
  ``workers`` slots once, when a job first needs it, and sends the
  worker each job pickled over a duplex pipe; the worker runs it under
  a fresh heartbeat, so what one point warmed (traces, tile stream
  plans, touched pages) serves the next.  A bare :meth:`~Supervisor.run`
  reaps its workers before it returns; inside ``with supervisor:`` they
  outlive each run and are reaped when the block exits, so a caller
  that hands over its jobs a few at a time (the sweep service, one
  claimed point per run) keeps one warm worker for all of them.  A
  stale heartbeat (hung worker) or a blown deadline preempts the worker
  with escalating SIGTERM → SIGKILL; a worker that dies without
  returning (crash, OOM SIGKILL) is detected by its exit code.  Either
  way only that worker is lost: the attempt fails, and the next job
  gets a fresh fork.  Transient failures are retried with exponential
  backoff plus jitter (:func:`backoff_delay`).
* :class:`AdaptiveDeadline` — per-job deadlines derived from the median
  of completed durations of the job's key times a factor, floored at
  the caller's ``timeout_s``, so one pathologically imbalanced grid
  point (the SLTarch-style workloads) cannot stall a sweep that has no
  global timeout configured.
* :class:`CircuitBreaker` — quarantines a key (the engine uses
  ``benchmark|kind``) after N systematic failures instead of burning
  retries on every remaining grid point of a doomed combination.
  Open breakers transition to half-open after a cooldown and admit a
  single probe; a successful probe closes the breaker.

Telemetry: the supervisor counts ``supervision.{preemptions,
heartbeat_gaps, worker_deaths, retries}`` and ``supervision.breaker.
{trips, short_circuits}``, and emits :class:`~repro.telemetry.events.
SupervisorEvent` records (plus per-job ``HarnessSpan``\\ s) when the hub
is enabled.

The chaos harness (:mod:`repro.chaos`) injects worker crashes, hangs
and I/O faults underneath this layer; ``tests/test_supervision.py`` and
``tests/test_chaos.py`` prove every chaos run terminates and converges.
"""

from __future__ import annotations

import contextlib
import logging
import multiprocessing
import os
import random
import shutil
import signal
import statistics
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from . import chaos
from .errors import (BenchmarkTimeoutError, ReproError, SimulationError,
                     is_transient)
from .telemetry import HUB, HarnessSpan, SupervisorEvent

logger = logging.getLogger(__name__)


# -- retry backoff -----------------------------------------------------------

#: Jitter source for retry backoff.  Module-level so tests can seed or
#: replace it; deliberately *not* derived from any simulation seed —
#: backoff randomness must decorrelate parallel workers, nothing else.
_JITTER = random.Random()


def backoff_delay(backoff_s: float, attempt: int) -> float:
    """Exponential backoff with jitter for retry ``attempt`` (1-based).

    The base delay doubles per attempt; a uniform random fraction of up
    to half the base is added so parallel workers
    retrying the same transient fault (a quarantined shared cache
    entry, say) fan out instead of thundering back in lockstep.
    """
    base = backoff_s * (2 ** (attempt - 1))
    return base * (1.0 + _JITTER.uniform(0.0, 0.5))


# -- heartbeats --------------------------------------------------------------

#: The worker process's active writer (set by :func:`_run_job`), so
#: in-worker code — the chaos harness — can simulate a frozen process.
_ACTIVE_HEARTBEAT: Optional["HeartbeatWriter"] = None


def replace_text(path: os.PathLike, text: str) -> None:
    """Replace ``path`` whole with ``text``: a temporary file beside it,
    then ``os.replace``, so a reader (or a SIGKILL mid-write) sees the
    old body or the new, never a torn one.

    No ``fsync``: a file written this way (a lease, a heartbeat) means
    its mtime while its writer lives, and a crash that loses it loses
    nothing a live writer would not rewrite.  The temporary name is
    unique per thread, so a process's claim and its renewer never
    share one.
    """
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class HeartbeatWriter(threading.Thread):
    """Daemon thread touching ``path`` every ``interval_s`` seconds.

    The supervisor watches the file's mtime; a worker whose main thread
    is alive keeps the mtime moving, and a frozen process goes silent.
    An unwritable destination (read-only filesystem, ENOSPC) must never
    take the worker down with it: the first ``OSError`` flips
    ``degraded`` and the thread stops touching the file, leaving the
    supervisor on deadline-only monitoring.

    ``payload`` customizes what each beat writes (default: pid + wall
    time).  The sweep service reuses this thread as its lease renewer —
    the lease file's mtime is the liveness signal exactly like a
    heartbeat, and the payload callable keeps the lease's JSON body
    (owner, claim time) intact across renewals.  Payload beats replace
    the file atomically: a process killed mid-beat leaves the previous
    body, never an empty file that would lose the lease's owner.  A
    payload that raises is treated like an unwritable path: degrade,
    never crash the worker.
    """

    def __init__(self, path: os.PathLike, interval_s: float,
                 payload: Optional[Callable[[], str]] = None):
        super().__init__(name="repro-heartbeat", daemon=True)
        self.path = str(path)
        self.interval_s = interval_s
        self.payload = payload
        self.degraded = False
        # Named to avoid shadowing threading.Thread._stop(), which
        # CPython's after-fork fixup invokes on surviving thread objects.
        self._stop_requested = threading.Event()
        self._paused = threading.Event()

    def run(self) -> None:
        while not self._stop_requested.is_set():
            if not self._paused.is_set() and not self.degraded:
                try:
                    if self.payload is not None:
                        replace_text(self.path, self.payload())
                    else:
                        with open(self.path, "w") as handle:
                            handle.write(
                                f"{os.getpid()} {time.time():.6f}\n")
                except Exception as exc:
                    self.degraded = True
                    logger.debug("heartbeat %s unwritable (%s); worker "
                                 "continues without heartbeats",
                                 self.path, exc)
            self._stop_requested.wait(self.interval_s)

    def pause(self) -> None:
        """Stop beating (used by chaos to simulate a frozen worker)."""
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def stop(self) -> None:
        self._stop_requested.set()


def pause_heartbeat() -> None:
    """Silence the current worker's heartbeat (no-op outside a worker).

    The chaos harness calls this before hanging so the hang looks like
    a genuinely frozen process — main thread *and* heartbeats stalled —
    which is the failure mode heartbeat monitoring exists to catch.
    """
    if _ACTIVE_HEARTBEAT is not None:
        _ACTIVE_HEARTBEAT.pause()


# -- adaptive deadlines ------------------------------------------------------

class AdaptiveDeadline:
    """Per-job deadline from completed-run statistics of the job's key.

    Grid points of one sweep are usually similar in cost, but pathological
    workloads (extreme tile imbalance, memory-latency cliffs) produce a
    long tail that defeats any single global timeout.  The deadline is
    ``median(completed durations) * factor``, floored at the caller's
    ``timeout_s`` — so it only ever *extends* an explicit budget — and
    engages once ``min_samples`` durations are in.  ``floor_s`` keeps a
    grid of sub-millisecond points from preempting normal variance.

    Durations are kept per key (the supervisor passes each job's
    ``breaker_key``, which the sweep engine sets to ``benchmark|kind``):
    points of one combination cost alike, while a median taken over
    every job would let cheap combinations preempt an expensive one.
    """

    def __init__(self, factor: float = 4.0, min_samples: int = 3,
                 floor_s: float = 0.5):
        self.factor = factor
        self.min_samples = min_samples
        self.floor_s = floor_s
        self.durations: Dict[str, List[float]] = {}

    def add(self, seconds: float, key: str = "") -> None:
        """Record one completed duration of a job on ``key``."""
        self.durations.setdefault(key, []).append(seconds)

    def deadline_for(self, timeout_s: Optional[float],
                     key: str = "") -> Optional[float]:
        """The budget for the next attempt on ``key``, or None (no limit)."""
        candidates: List[float] = []
        if timeout_s is not None and timeout_s > 0:
            candidates.append(timeout_s)
        samples = self.durations.get(key, ())
        if len(samples) >= self.min_samples:
            median = statistics.median(samples)
            candidates.append(max(median * self.factor, self.floor_s))
        return max(candidates) if candidates else None


# -- circuit breaker ---------------------------------------------------------

class CircuitBreaker:
    """Closed → open → half-open quarantine per failure key.

    ``record_failure`` counts failed attempts per key; hitting
    ``threshold`` consecutive failures opens the breaker, and
    :meth:`allow` then short-circuits every further attempt on that key
    — the sweep stops burning retries on a systematically broken
    (benchmark, config) combination and reports those cells as
    ``tripped``.  After ``cooldown_s`` an open breaker admits exactly
    one half-open probe; success closes it (and resets the count),
    failure reopens it.  State round-trips through :meth:`to_state` /
    :meth:`from_state` so the engine can persist trips in the
    :class:`~repro.experiments.store.ArtifactStore` and honour them on
    resume.
    """

    def __init__(self, threshold: int = 3, cooldown_s: float = 300.0):
        self.threshold = max(int(threshold), 1)
        self.cooldown_s = cooldown_s
        self._cells: Dict[str, Dict[str, Any]] = {}
        self.trip_log: List[Dict[str, Any]] = []

    def _cell(self, key: str) -> Dict[str, Any]:
        return self._cells.setdefault(key, {
            "state": "closed", "failures": 0, "opened_at": 0.0,
            "trips": 0, "probing": False})

    def state_of(self, key: str) -> str:
        """``closed`` / ``open`` / ``half_open`` for one key."""
        return self._cells.get(key, {}).get("state", "closed")

    def allow(self, key: str, now: Optional[float] = None) -> bool:
        """Whether an attempt on ``key`` may run right now."""
        cell = self._cells.get(key)
        if cell is None or cell["state"] == "closed":
            return True
        now = time.time() if now is None else now
        if cell["state"] == "open":
            if now - cell["opened_at"] >= self.cooldown_s:
                cell["state"] = "half_open"
                cell["probing"] = True
                self._emit("breaker_probe", key,
                           f"half-open after {self.cooldown_s:.0f}s "
                           "cooldown; admitting one probe")
                return True
            return False
        # half-open: exactly one probe in flight.
        if not cell["probing"]:
            cell["probing"] = True
            return True
        return False

    def record_failure(self, key: str,
                       now: Optional[float] = None) -> bool:
        """Count one failed attempt; True when this call trips the key."""
        now = time.time() if now is None else now
        cell = self._cell(key)
        cell["failures"] += 1
        if cell["state"] == "half_open":
            cell.update(state="open", opened_at=now, probing=False)
            cell["trips"] += 1
            self._trip(key, cell, now, reprobe=True)
            return True
        if cell["state"] == "closed" and cell["failures"] >= self.threshold:
            cell.update(state="open", opened_at=now)
            cell["trips"] += 1
            self._trip(key, cell, now, reprobe=False)
            return True
        return False

    def record_success(self, key: str) -> None:
        """A run on ``key`` succeeded: close and reset the breaker."""
        cell = self._cells.get(key)
        if cell is None:
            return
        reclosed = cell["state"] != "closed"
        cell.update(state="closed", failures=0, probing=False)
        if reclosed:
            self._emit("breaker_close", key, "probe succeeded; closed")

    def _trip(self, key: str, cell: Dict[str, Any], now: float,
              reprobe: bool) -> None:
        entry = {"key": key, "failures": cell["failures"],
                 "tripped_at": now, "reprobe": reprobe}
        self.trip_log.append(entry)
        logger.warning(
            "circuit breaker OPEN for %s after %d failure(s)%s; further "
            "attempts are quarantined for %.0fs", key, cell["failures"],
            " (half-open probe failed)" if reprobe else "",
            self.cooldown_s)
        if HUB.enabled:
            HUB.metrics.counter("supervision.breaker.trips").inc()
            self._emit("breaker_trip", key,
                       f"{cell['failures']} failures", now)

    @staticmethod
    def _emit(kind: str, key: str, detail: str,
              now: Optional[float] = None) -> None:
        if HUB.enabled:
            HUB.emit(SupervisorEvent(
                kind=kind, target=key, detail=detail,
                wall_s=time.time() if now is None else now))

    @property
    def open_keys(self) -> List[str]:
        """Keys currently open or half-open (quarantined)."""
        return sorted(k for k, c in self._cells.items()
                      if c["state"] != "closed")

    def to_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot (inverse of :meth:`from_state`)."""
        return {"version": 1, "threshold": self.threshold,
                "cooldown_s": self.cooldown_s,
                "cells": {k: dict(v) for k, v in self._cells.items()},
                "trips": list(self.trip_log)}

    @classmethod
    def from_state(cls, state: Optional[Dict[str, Any]],
                   threshold: int = 3,
                   cooldown_s: float = 300.0) -> "CircuitBreaker":
        """Rebuild from a persisted snapshot (None/garbage → fresh)."""
        breaker = cls(threshold=threshold, cooldown_s=cooldown_s)
        if not isinstance(state, dict):
            return breaker
        cells = state.get("cells")
        if isinstance(cells, dict):
            for key, cell in cells.items():
                if isinstance(cell, dict) and "state" in cell:
                    breaker._cells[key] = dict(breaker._cell(key), **cell)
        trips = state.get("trips")
        if isinstance(trips, list):
            breaker.trip_log = list(trips)
        return breaker


# -- jobs, policy and outcomes -----------------------------------------------

@dataclass
class SupervisionPolicy:
    """Tunables of the worker-lifecycle supervisor."""

    #: How often workers touch their heartbeat file.
    heartbeat_interval_s: float = 0.05
    #: Stale-heartbeat threshold: a worker whose heartbeat has not
    #: moved for this long is declared hung and preempted.  Only
    #: engages once a first heartbeat was observed, so a worker on a
    #: read-only filesystem degrades to deadline-only monitoring.
    hang_grace_s: float = 2.0
    #: SIGTERM → SIGKILL escalation grace.
    term_grace_s: float = 0.5
    #: Adaptive deadline = median(completed) * factor (see
    #: :class:`AdaptiveDeadline`).
    deadline_factor: float = 4.0
    deadline_min_samples: int = 3
    deadline_floor_s: float = 0.5
    #: Circuit-breaker policy (see :class:`CircuitBreaker`).
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 300.0
    #: Parent poll cadence.
    poll_interval_s: float = 0.05
    #: Where heartbeat files live (None: a private temp dir per run).
    heartbeat_root: Optional[Path] = None


@dataclass
class SupervisedJob:
    """One unit of supervised work: ``fn(*args, **kwargs)`` in a child."""

    label: str
    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Circuit-breaker key ("" = not subject to the breaker).
    breaker_key: str = ""


@dataclass
class WorkerOutcome:
    """What happened to one supervised job across all its attempts."""

    label: str
    #: ``ok`` | ``failed`` | ``tripped`` (breaker short-circuit) |
    #: ``skipped`` (interrupted before any attempt finished).
    status: str = "failed"
    result: Any = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    attempts: int = 0
    elapsed_s: float = 0.0
    #: How many attempts the supervisor had to SIGTERM/SIGKILL.
    preemptions: int = 0
    #: Largest observed heartbeat gap before a hung-preemption, seconds.
    heartbeat_gap_s: float = 0.0
    #: ``completed`` (clean first attempt), ``degraded`` (recovered via
    #: retry or preemption), ``failed``, ``tripped`` or ``skipped``.
    provenance: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _describe_failure(exc: BaseException, label: str) -> Tuple[str, str]:
    """``(error type name, message)`` recorded for a job that raised.

    A :class:`ReproError` keeps its own type and text; anything else is
    a bug in the simulation and is reported as a ``SimulationError``.
    """
    if isinstance(exc, KeyboardInterrupt):
        return "KeyboardInterrupt", "interrupted"
    if isinstance(exc, ReproError):
        return type(exc).__name__, str(exc)
    return "SimulationError", f"{label}: {exc!r}"


# -- in-process execution ----------------------------------------------------

@contextlib.contextmanager
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


def run_in_process(jobs: List[SupervisedJob],
                   timeout_s: Optional[float] = None,
                   max_attempts: int = 2,
                   backoff_s: float = 0.25) -> List[WorkerOutcome]:
    """Run every job in this process, one after another.

    The fork-free counterpart of :meth:`Supervisor.run`, with the same
    outcomes in the same order and the same rules: a transient failure
    is retried up to ``max_attempts`` times after :func:`backoff_delay`,
    a success after a retry is ``degraded``, and a ``KeyboardInterrupt``
    fails the job it hit and leaves every later job ``skipped``.
    ``timeout_s`` is a hard per-attempt ``SIGALRM`` limit.  There is no
    circuit breaker, and a crash or a signal-blocking hang takes the
    caller down with it; in exchange nothing forks, and whatever a job
    changes in memory (a test's call log, say) stays visible.
    """
    outcomes: List[WorkerOutcome] = []
    interrupted = False
    for job in jobs:
        if interrupted:
            outcomes.append(WorkerOutcome(
                label=job.label, status="skipped", error="run interrupted",
                error_type="KeyboardInterrupt", provenance="skipped"))
            continue
        outcome = _attempt_in_process(job, timeout_s, max_attempts,
                                      backoff_s)
        interrupted = outcome.error_type == "KeyboardInterrupt"
        outcomes.append(outcome)
    return outcomes


def _attempt_in_process(job: SupervisedJob, timeout_s: Optional[float],
                        max_attempts: int,
                        backoff_s: float) -> WorkerOutcome:
    """One job's attempts in this process, under its own timer."""
    outcome = WorkerOutcome(label=job.label, provenance="failed")
    start = time.monotonic()
    wall_start = time.time()
    for attempt in range(1, max_attempts + 1):
        outcome.attempts = attempt
        try:
            with _wall_clock_limit(timeout_s, job.label):
                outcome.result = job.fn(*job.args, **job.kwargs)
            outcome.status = "ok"
            outcome.error = outcome.error_type = None
            outcome.provenance = "completed" if attempt == 1 \
                else "degraded"
            break
        except (KeyboardInterrupt, Exception) as exc:
            outcome.error_type, outcome.error = _describe_failure(
                exc, job.label)
            if isinstance(exc, KeyboardInterrupt):
                break
            retryable = is_transient(exc) and attempt < max_attempts
            logger.warning("%s attempt %d/%d failed (%s: %s)%s",
                           job.label, attempt, max_attempts,
                           type(exc).__name__, exc,
                           "; retrying" if retryable else "")
            if not retryable:
                break
            time.sleep(backoff_delay(backoff_s, attempt))
    outcome.elapsed_s = time.monotonic() - start
    if HUB.enabled:
        HUB.emit(HarnessSpan(
            name=job.label, wall_start_s=wall_start,
            wall_dur_s=outcome.elapsed_s, status=outcome.status,
            attempts=outcome.attempts,
            args={"error": outcome.error_type}
            if outcome.error_type else None))
    return outcome


# -- supervised execution: the forked worker pool ----------------------------

class _Worker:
    """Parent-side handle of one forked worker: its process and pipe."""

    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn


class _WorkerPool:
    """The forked workers of one :meth:`Supervisor.run`, or of every run
    inside one ``with supervisor:`` block.

    A worker is forked when a job first needs one and no forked worker
    is idle, so the pool never holds more workers than the supervisor
    runs jobs at once.  A kept worker was forked before later jobs
    existed, so each request carries its job pickled: ``(pickled
    SupervisedJob, heartbeat path)``.  The pool keeps every live
    worker's parent end of the pipe: a new worker closes its copies of
    them, so when the driver goes away — even by SIGKILL — each worker
    reads EOF and exits instead of waiting on a pipe a sibling still
    holds open.
    """

    def __init__(self, heartbeat_interval_s: float):
        self._ctx = multiprocessing.get_context("fork")
        self._heartbeat_interval_s = heartbeat_interval_s
        self.live: List[_Worker] = []
        self.idle: List[_Worker] = []

    def dispatch(self, pickled: bytes, hb_path: Path) -> _Worker:
        """Send a pickled job to an idle worker, forking one if none is.

        A worker found dead while idle costs a re-fork, not an attempt.
        A send that fails on a fresh fork is left for the caller's death
        detection, so a worker that cannot start fails the attempt
        instead of forking forever.
        """
        request = (pickled, str(hb_path))
        while self.idle:
            worker = self.idle.pop()
            if worker.proc.exitcode is None and self._send(worker, request):
                return worker
            self.retire(worker)
        worker = self._fork()
        self._send(worker, request)
        return worker

    @staticmethod
    def _send(worker: _Worker, request: tuple) -> bool:
        try:
            worker.conn.send(request)
            return True
        except OSError:
            return False

    def _fork(self) -> _Worker:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        inherited = [w.conn for w in self.live] + [parent_end]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_end, inherited, self._heartbeat_interval_s),
            daemon=True)
        proc.start()
        child_end.close()
        worker = _Worker(proc, parent_end)
        self.live.append(worker)
        return worker

    def retire(self, worker: _Worker, kill: bool = False) -> None:
        """Close ``worker``'s pipe and reap it; ``kill`` SIGKILLs it first."""
        if worker in self.live:
            self.live.remove(worker)
        if kill:
            _signal(worker, signal.SIGKILL)
        with contextlib.suppress(OSError):
            worker.conn.close()
        _reap(worker, 5.0)

    def close(self, grace_s: float) -> None:
        """Stop every worker; returns once all of them have exited.

        Idle workers exit on EOF.  A busy one (an interrupted run) gets
        SIGTERM; whatever is still alive after ``grace_s`` is SIGKILLed.
        The pool is empty afterwards, and the next dispatch forks anew.
        """
        for worker in self.live:
            if worker not in self.idle:
                _signal(worker, signal.SIGTERM)
            with contextlib.suppress(OSError):
                worker.conn.close()
        deadline = time.monotonic() + grace_s
        for worker in self.live:
            _reap(worker, max(deadline - time.monotonic(), 0.05))
        self.live.clear()
        self.idle.clear()


def _signal(worker: _Worker, signum: int) -> None:
    if worker.proc.exitcode is None:
        with contextlib.suppress(OSError):
            os.kill(worker.proc.pid, signum)


def _reap(worker: _Worker, timeout_s: float) -> None:
    """Join ``worker``, SIGKILLing it if it outlives ``timeout_s``."""
    worker.proc.join(timeout=timeout_s)
    if worker.proc.exitcode is None:
        _signal(worker, signal.SIGKILL)
        worker.proc.join(timeout=5.0)


class _Attempt:
    """Parent-side bookkeeping of one job attempt in flight on a worker."""

    __slots__ = ("worker", "hb_path", "started", "deadline", "hb_mtime",
                 "hb_last_change", "hb_seen", "message", "got_message",
                 "preempt_reason", "preempt_at")

    def __init__(self, worker: _Worker, hb_path: Path, started: float,
                 deadline: Optional[float]):
        self.worker = worker
        self.hb_path = hb_path
        self.started = started
        self.deadline = deadline
        self.hb_mtime: Optional[int] = None
        self.hb_last_change = started
        self.hb_seen = False
        self.message: Optional[tuple] = None
        self.got_message = False
        self.preempt_reason: Optional[str] = None
        self.preempt_at = 0.0


class _JobState:
    """Per-job retry/outcome bookkeeping."""

    __slots__ = ("index", "job", "pickled", "attempts", "preemptions",
                 "eligible_at", "first_start", "outcome", "last_error",
                 "last_error_type", "max_gap_s")

    def __init__(self, index: int, job: SupervisedJob):
        self.index = index
        self.job = job
        self.pickled = b""
        self.attempts = 0
        self.preemptions = 0
        self.eligible_at = 0.0
        self.first_start: Optional[float] = None
        self.outcome: Optional[WorkerOutcome] = None
        self.last_error: Optional[str] = None
        self.last_error_type: Optional[str] = None
        self.max_gap_s = 0.0


class Supervisor:
    """Runs :class:`SupervisedJob`\\ s in monitored forked workers.

    One instance supervises one campaign (a sweep, a suite, one job of
    the sweep service): it owns the adaptive-deadline statistics and
    the circuit breaker for every job of every :meth:`run` call.
    :meth:`run` forks at most ``workers`` processes and reuses each for
    job after job; every job still gets its own attempts, deadline,
    heartbeat, retries, breaker decision and provenance.  A bare
    :meth:`run` reaps its workers before it returns.  Inside ``with
    supervisor:`` the workers outlive each :meth:`run` and are reaped
    when the block exits, so a caller that runs its jobs one batch at
    a time keeps them warm across batches.  Before each job a worker
    drops what the previous job left in the process: a paused
    heartbeat, armed chaos faults (:func:`repro.chaos.disarm`), and the
    metrics registry and sinks of a telemetry hub inherited enabled
    from the driver.  A worker that dies, hangs or blows its deadline is
    killed with its attempt; the next job forks a fresh one.  See the
    module docstring for the monitoring model.
    """

    def __init__(self, policy: Optional[SupervisionPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None):
        self.policy = policy or SupervisionPolicy()
        self.breaker = breaker
        self.adaptive = AdaptiveDeadline(
            factor=self.policy.deadline_factor,
            min_samples=self.policy.deadline_min_samples,
            floor_s=self.policy.deadline_floor_s)
        self._aborted = False
        #: The workers kept across runs inside ``with supervisor:``.
        self._pool: Optional[_WorkerPool] = None

    def __enter__(self) -> "Supervisor":
        self._pool = _WorkerPool(self.policy.heartbeat_interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        pool, self._pool = self._pool, None
        pool.close(self.policy.term_grace_s)

    # -- public entry point --------------------------------------------------

    def run(self, jobs: List[SupervisedJob],
            timeout_s: Optional[float] = None,
            max_attempts: int = 2,
            backoff_s: float = 0.25,
            workers: int = 1) -> List[WorkerOutcome]:
        """Execute every job; outcomes align with the ``jobs`` order.

        Never raises for job failures — crashes, hangs, OOM kills,
        breaker trips and jobs that cannot be pickled all land in the
        returned outcomes.  A ``KeyboardInterrupt`` (from the driver, or
        reported by a worker) terminates the workers and marks
        unfinished jobs ``skipped``, as :func:`run_in_process` does; the
        next run starts clean.  Outside ``with supervisor:`` it returns
        only after every worker it forked has exited; inside, the idle
        workers stay for the next run.
        """
        if not jobs:
            return []
        policy = self.policy
        own_hb_root = policy.heartbeat_root is None
        hb_root = Path(tempfile.mkdtemp(prefix="repro-hb-")) \
            if own_hb_root else Path(policy.heartbeat_root)
        with contextlib.suppress(OSError):
            hb_root.mkdir(parents=True, exist_ok=True)

        states = [_JobState(i, job) for i, job in enumerate(jobs)]
        queue: deque = deque(s.index for s in states if self._pickle(s))
        running: Dict[int, _Attempt] = {}
        scoped = self._pool is not None
        pool = self._pool if scoped \
            else _WorkerPool(policy.heartbeat_interval_s)
        self._aborted = False
        try:
            while (queue or running) and not self._aborted:
                now = time.monotonic()
                self._schedule(queue, states, running, workers, pool,
                               hb_root, timeout_s, now)
                self._await_messages(running, policy.poll_interval_s)
                now = time.monotonic()
                for index in list(running):
                    attempt = running[index]
                    state = states[index]
                    if not attempt.got_message:
                        if attempt.worker.proc.exitcode is None:
                            self._monitor(state, attempt, now)
                            continue
                        self._drain(attempt)
                    del running[index]
                    self._release(pool, attempt)
                    if attempt.message:
                        self._finish_message(state, attempt, queue,
                                             max_attempts, backoff_s)
                    else:
                        self._finish_death(state, attempt, queue,
                                           max_attempts, backoff_s)
        except KeyboardInterrupt:
            self._aborted = True
        finally:
            if not scoped or self._aborted or running:
                pool.close(policy.term_grace_s)
            for state in states:
                if state.outcome is None:
                    state.outcome = WorkerOutcome(
                        label=state.job.label, status="skipped",
                        error="run interrupted",
                        error_type="KeyboardInterrupt",
                        attempts=state.attempts, provenance="skipped")
            if own_hb_root:
                shutil.rmtree(hb_root, ignore_errors=True)
        return [state.outcome for state in states]

    @staticmethod
    def _pickle(state: _JobState) -> bool:
        """Pickle ``state``'s job for its workers; False fails the job.

        A job that cannot travel to a worker (a lambda ``fn``, an open
        file in its arguments) would fail every attempt the same way, so
        it fails once, here, without an attempt or a fork.
        """
        try:
            state.pickled = bytes(ForkingPickler.dumps(state.job))
            return True
        except Exception as exc:  # a __reduce__ may raise anything
            error = f"{state.job.label}: job failed to serialize ({exc!r})"
            logger.warning("%s", error)
            state.outcome = WorkerOutcome(
                label=state.job.label, status="failed", error=error,
                error_type="SimulationError", provenance="failed")
            return False

    # -- scheduling ----------------------------------------------------------

    def _schedule(self, queue, states, running, workers, pool, hb_root,
                  timeout_s, now) -> None:
        deferred = []
        while queue and len(running) < workers:
            index = queue.popleft()
            state = states[index]
            if state.eligible_at > now:
                deferred.append(index)
                continue
            if not self._breaker_allows(state):
                continue
            self._launch(state, running, pool, hb_root, timeout_s, now)
        queue.extendleft(reversed(deferred))

    def _breaker_allows(self, state: _JobState) -> bool:
        key = state.job.breaker_key
        if self.breaker is None or not key:
            return True
        if self.breaker.allow(key):
            return True
        detail = (f"circuit breaker open for {key!r} "
                  f"({self.breaker._cells[key]['failures']} failures); "
                  "quarantined without attempting")
        state.outcome = WorkerOutcome(
            label=state.job.label, status="tripped", error=detail,
            error_type="CircuitOpenError", attempts=state.attempts,
            preemptions=state.preemptions, provenance="tripped")
        logger.info("%s: %s", state.job.label, detail)
        if HUB.enabled:
            HUB.metrics.counter("supervision.breaker.short_circuits").inc()
        return False

    def _launch(self, state, running, pool, hb_root, timeout_s,
                now) -> None:
        state.attempts += 1
        if state.first_start is None:
            state.first_start = now
        hb_path = hb_root / f"job{state.index}.a{state.attempts}.hb"
        worker = pool.dispatch(state.pickled, hb_path)
        deadline = self.adaptive.deadline_for(timeout_s,
                                              state.job.breaker_key)
        running[state.index] = _Attempt(
            worker, hb_path, now,
            None if deadline is None else now + deadline)

    # -- monitoring ----------------------------------------------------------

    @staticmethod
    def _await_messages(running: Dict[int, _Attempt],
                        poll_s: float) -> None:
        conns = {a.worker.conn: a for a in running.values()
                 if not a.got_message}
        if not conns:
            time.sleep(poll_s)
            return
        for conn in connection.wait(list(conns), timeout=poll_s):
            attempt = conns[conn]
            attempt.got_message = True
            try:
                attempt.message = conn.recv()
            except (EOFError, OSError):
                attempt.message = None  # died mid-send: treat as death

    @staticmethod
    def _drain(attempt: _Attempt) -> None:
        """Last-chance read on a dead worker's pipe.

        A worker can send its payload and die between two waits; the
        data outlives the sender, and reading it here keeps a clean
        completion from being misclassified as a death.
        """
        with contextlib.suppress(EOFError, OSError):
            if attempt.worker.conn.poll(0):
                attempt.message = attempt.worker.conn.recv()
                attempt.got_message = attempt.message is not None

    def _monitor(self, state: _JobState, attempt: _Attempt,
                 now: float) -> None:
        try:
            mtime = os.stat(attempt.hb_path).st_mtime_ns
        except OSError:
            mtime = None
        if mtime is not None and mtime != attempt.hb_mtime:
            attempt.hb_mtime = mtime
            attempt.hb_last_change = now
            attempt.hb_seen = True
        if attempt.preempt_reason is not None:
            if now - attempt.preempt_at >= self.policy.term_grace_s:
                _signal(attempt.worker, signal.SIGKILL)
            return
        if attempt.deadline is not None and now > attempt.deadline:
            self._preempt(state, attempt, "deadline", now)
            return
        gap = now - attempt.hb_last_change
        if attempt.hb_seen and gap > self.policy.hang_grace_s:
            state.max_gap_s = max(state.max_gap_s, gap)
            if HUB.enabled:
                HUB.metrics.counter("supervision.heartbeat_gaps").inc()
            self._preempt(state, attempt, "hung", now, gap)

    def _preempt(self, state: _JobState, attempt: _Attempt, reason: str,
                 now: float, gap: float = 0.0) -> None:
        attempt.preempt_reason = reason
        attempt.preempt_at = now
        state.preemptions += 1
        budget = (attempt.deadline - attempt.started
                  if attempt.deadline is not None else 0.0)
        detail = (f"no heartbeat for {gap:.2f}s" if reason == "hung"
                  else f"exceeded {budget:.2f}s deadline")
        logger.warning("%s: worker pid %s %s (%s); SIGTERM "
                       "(SIGKILL after %.1fs)", state.job.label,
                       attempt.worker.proc.pid, reason, detail,
                       self.policy.term_grace_s)
        if HUB.enabled:
            HUB.metrics.counter("supervision.preemptions").inc()
            HUB.emit(SupervisorEvent(kind="preempt",
                                     target=state.job.label,
                                     detail=f"{reason}: {detail}",
                                     wall_s=time.time()))
        _signal(attempt.worker, signal.SIGTERM)

    @staticmethod
    def _release(pool: _WorkerPool, attempt: _Attempt) -> None:
        """Return a finished attempt's worker to the pool, or retire it.

        Only a worker that delivered its payload and was never preempted
        takes another job; a dead one is reaped, and a preempted one
        that answered anyway is killed, since its SIGTERM may still land.
        """
        with contextlib.suppress(OSError):
            os.unlink(attempt.hb_path)
        if attempt.message and attempt.preempt_reason is None:
            pool.idle.append(attempt.worker)
        else:
            pool.retire(attempt.worker,
                        kill=attempt.preempt_reason is not None)

    # -- finalization --------------------------------------------------------

    def _finish_message(self, state, attempt, queue, max_attempts,
                        backoff_s) -> None:
        message = attempt.message
        if message[0] == "ok":
            self.adaptive.add(time.monotonic() - attempt.started,
                              state.job.breaker_key)
            self._record_success(state, message[1])
            return
        _, error_type, error, transient = message
        if error_type == "KeyboardInterrupt":
            state.outcome = WorkerOutcome(
                label=state.job.label, status="failed", error=error,
                error_type=error_type, attempts=state.attempts,
                elapsed_s=self._elapsed(state),
                preemptions=state.preemptions, provenance="failed")
            self._aborted = True
            return
        self._record_failure(state, queue, max_attempts, backoff_s,
                             error_type, error, transient)

    def _finish_death(self, state, attempt, queue, max_attempts,
                      backoff_s) -> None:
        exitcode = attempt.worker.proc.exitcode
        if HUB.enabled:
            HUB.metrics.counter("supervision.worker_deaths").inc()
        if attempt.preempt_reason == "deadline":
            budget = attempt.deadline - attempt.started
            self._record_failure(
                state, queue, max_attempts, backoff_s,
                "BenchmarkTimeoutError",
                f"{state.job.label}: preempted after exceeding its "
                f"{budget:.2f}s supervised deadline", False)
            return
        if attempt.preempt_reason == "hung":
            self._record_failure(
                state, queue, max_attempts, backoff_s,
                "WorkerHungError",
                f"{state.job.label}: worker hung (heartbeat stalled "
                f"{state.max_gap_s:.2f}s) and was preempted", True)
            return
        if exitcode is not None and exitcode < 0:
            sig = -exitcode
            oom = " (SIGKILL — possible OOM kill)" if sig == 9 else ""
            detail = f"worker killed by signal {sig}{oom}"
        else:
            detail = f"worker exited with status {exitcode} before " \
                     "returning a result"
        if HUB.enabled:
            HUB.emit(SupervisorEvent(kind="worker_death",
                                     target=state.job.label,
                                     detail=detail, wall_s=time.time()))
        self._record_failure(state, queue, max_attempts, backoff_s,
                             "WorkerCrashError",
                             f"{state.job.label}: {detail}", True)

    def _record_success(self, state: _JobState, result: Any) -> None:
        if self.breaker is not None and state.job.breaker_key:
            self.breaker.record_success(state.job.breaker_key)
        degraded = state.attempts > 1 or state.preemptions > 0
        state.outcome = WorkerOutcome(
            label=state.job.label, status="ok", result=result,
            attempts=state.attempts, elapsed_s=self._elapsed(state),
            preemptions=state.preemptions,
            heartbeat_gap_s=state.max_gap_s,
            provenance="degraded" if degraded else "completed")
        self._emit_span(state, "ok")

    def _record_failure(self, state, queue, max_attempts, backoff_s,
                        error_type, error, transient) -> None:
        state.last_error = error
        state.last_error_type = error_type
        tripped_now = False
        if self.breaker is not None and state.job.breaker_key:
            tripped_now = self.breaker.record_failure(
                state.job.breaker_key)
        retryable = (transient and state.attempts < max_attempts
                     and not tripped_now and not self._aborted)
        logger.warning("%s attempt %d/%d failed (%s: %s)%s",
                       state.job.label, state.attempts, max_attempts,
                       error_type, error,
                       "; retrying" if retryable else "")
        if retryable:
            if HUB.enabled:
                HUB.metrics.counter("supervision.retries").inc()
            state.eligible_at = (time.monotonic()
                                 + backoff_delay(backoff_s,
                                                 state.attempts))
            queue.append(state.index)
            return
        state.outcome = WorkerOutcome(
            label=state.job.label, status="failed", error=error,
            error_type=error_type, attempts=state.attempts,
            elapsed_s=self._elapsed(state),
            preemptions=state.preemptions,
            heartbeat_gap_s=state.max_gap_s, provenance="failed")
        self._emit_span(state, "failed")

    def _emit_span(self, state: _JobState, status: str) -> None:
        if HUB.enabled:
            HUB.emit(HarnessSpan(
                name=state.job.label,
                wall_start_s=time.time() - self._elapsed(state),
                wall_dur_s=self._elapsed(state), status=status,
                attempts=state.attempts,
                args={"error": state.last_error_type}
                if status != "ok" and state.last_error_type else None))

    @staticmethod
    def _elapsed(state: _JobState) -> float:
        if state.first_start is None:
            return 0.0
        return time.monotonic() - state.first_start


def _worker_main(conn, inherited: List[Any],
                 heartbeat_interval_s: float) -> None:
    """Worker entry: run each pickled job the parent sends until EOF.

    ``inherited`` are the parent's ends of every worker's pipe, this
    one's included; closing them here is what lets EOF arrive when the
    driver goes away.  Jobs arrive pickled, since a worker kept across
    :meth:`Supervisor.run` calls was forked before later jobs existed.
    Every job gets the process state a fresh fork would have given it
    (:func:`_reset_for_job`) and ships one payload back: ``("ok",
    result)`` or ``("error", type name, text, transient)``.
    """
    for other in inherited:
        with contextlib.suppress(OSError):
            other.close()
    hub_enabled = HUB.enabled
    try:
        while True:
            try:
                pickled, hb_path = conn.recv()
            except (EOFError, OSError):
                return
            _reset_for_job(hub_enabled)
            job = ForkingPickler.loads(pickled)
            payload = _run_job(job, hb_path, heartbeat_interval_s)
            try:
                conn.send(payload)
            except Exception as exc:
                with contextlib.suppress(Exception):
                    conn.send(("error", "WorkerCrashError",
                               f"{job.label}: result failed to "
                               f"serialize ({exc!r})", False))
    except KeyboardInterrupt:
        return  # interrupted between jobs: the driver is stopping too
    finally:
        with contextlib.suppress(Exception):
            conn.close()


def _reset_for_job(hub_enabled: bool) -> None:
    """Drop what the previous job left in this worker process.

    Chaos faults armed but not fired are disarmed.  A hub the driver had
    enabled at fork gets an empty registry and no sinks, so each job's
    summary carries only its own metrics and the driver's sinks, whose
    copies here reach no one, do not pile up events.  (The heartbeat
    pause needs nothing: each job gets a fresh :class:`HeartbeatWriter`.)
    """
    chaos.disarm()
    HUB.disable()
    if hub_enabled:
        HUB.metrics.reset()
        HUB.enable()


def _run_job(job: SupervisedJob, hb_path: str,
             heartbeat_interval_s: float) -> tuple:
    """Run one job under its own heartbeat; the payload to ship back."""
    global _ACTIVE_HEARTBEAT
    writer = HeartbeatWriter(hb_path, heartbeat_interval_s)
    writer.start()
    _ACTIVE_HEARTBEAT = writer
    try:
        return ("ok", job.fn(*job.args, **job.kwargs))
    except BaseException as exc:  # ship, never raise across the pipe
        return ("error", *_describe_failure(exc, job.label),
                is_transient(exc))
    finally:
        _ACTIVE_HEARTBEAT = None
        writer.stop()
        writer.join()
