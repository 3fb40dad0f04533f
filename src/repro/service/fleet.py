"""Worker health reporting and job progress/ETA for the sweep service.

Workers never talk to the server — everything they know reaches it
through files in the shared store.  Health reporting keeps that shape:
each :func:`~repro.service.worker.run_worker` loop carries a
:class:`FleetReporter` that periodically writes an atomic, checksummed
``<root>/fleet/<worker_id>.json`` snapshot (heartbeat, current
job/point, throughput, failure/degradation tallies).  The server's
``GET /v1/fleet`` is then just :func:`read_fleet` — aggregate the
directory, flag workers whose file mtime went stale, exactly the
lease-mtime liveness convention the queue already uses.

Like every observability surface here, reporting must never take a
worker down: write failures flip ``degraded`` and stop, they do not
raise into the claim/execute loop.  Readers verify the embedded
SHA-256 before trusting a snapshot; torn or corrupt bytes (power loss
mid-replace on a non-atomic network filesystem) are quarantined aside
via :func:`repro.cachefile.quarantine` and the worker simply looks
stale until its next beat.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import socket
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import cachefile

logger = logging.getLogger(__name__)

#: Subdirectory of the service root holding one file per worker.
FLEET_DIR = "fleet"

#: Wire discriminator of a worker status snapshot.
WORKER_SCHEMA = "repro.worker/v1"

#: Default heartbeat cadence of a worker's status file.
DEFAULT_FLEET_INTERVAL_S = 2.0

#: Default staleness horizon — matches the lease TTL convention
#: (:data:`repro.service.queue.DEFAULT_LEASE_TTL_S`): a worker that
#: cannot refresh an mtime for this long is presumed gone.
DEFAULT_STALE_AFTER_S = 30.0

#: Completion timestamps kept for the throughput window.
_RATE_SAMPLES = 64

#: Throughput is measured over this trailing window (seconds).
RATE_WINDOW_S = 120.0


def worker_file_name(worker_id: str) -> str:
    """Filesystem-safe file name for a worker id."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", worker_id) + ".json"


def _checksummed(payload: Dict[str, object]) -> bytes:
    """Canonical JSON bytes of ``payload`` with a ``checksum`` field."""
    body = dict(payload)
    body.pop("checksum", None)
    canonical = json.dumps(body, sort_keys=True)
    body["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps(body, indent=2, sort_keys=True).encode()


def _verify(payload: Dict[str, object]) -> bool:
    """True when the embedded checksum matches the payload."""
    digest = payload.get("checksum")
    body = {k: v for k, v in payload.items() if k != "checksum"}
    canonical = json.dumps(body, sort_keys=True)
    return digest == hashlib.sha256(canonical.encode()).hexdigest()


class FleetReporter:
    """One worker's periodic health snapshot (a daemon beat thread).

    The public mutators (:meth:`point_started`, :meth:`point_finished`,
    :meth:`idle`, :meth:`note`) update the status and write through
    immediately; the background thread re-writes every ``interval_s``
    regardless, which is what keeps the file's mtime — the liveness
    signal — fresh while a slow point simulates for minutes.
    """

    def __init__(self, root: Union[str, Path], worker_id: str,
                 interval_s: float = DEFAULT_FLEET_INTERVAL_S):
        self.path = Path(root) / FLEET_DIR / worker_file_name(worker_id)
        self.worker_id = worker_id
        self.interval_s = interval_s
        self.degraded = False
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._completions: deque = deque(maxlen=_RATE_SAMPLES)
        self.status: Dict[str, object] = {
            "schema": WORKER_SCHEMA,
            "worker_id": worker_id,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "started_at": round(time.time(), 6),
            "state": "idle",
            "job_id": "",
            "point_id": "",
            "points_completed": 0,
            "points_failed": 0,
            "attempts_extra": 0,
            "chaos_events": 0,
            "degraded_writes": 0,
        }

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FleetReporter":
        """Write the first snapshot and start the beat thread."""
        self.write()
        self._thread = threading.Thread(
            target=self._run, name=f"fleet-reporter-{self.worker_id}",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop beating and leave a final ``exited`` snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval_s + 1.0)
            self._thread = None
        with self._lock:
            self.status["state"] = "exited"
            self.status["job_id"] = ""
            self.status["point_id"] = ""
        self.write()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write()

    # -- status mutators ----------------------------------------------------

    def point_started(self, job_id: str, point_id: str) -> None:
        """Record the point this worker is now executing."""
        with self._lock:
            self.status.update(state="running", job_id=job_id,
                               point_id=point_id)
        self.write()

    def point_finished(self, ok: bool, attempts: int = 1) -> None:
        """Account one executed point (throughput sample included)."""
        with self._lock:
            key = "points_completed" if ok else "points_failed"
            self.status[key] = int(self.status.get(key, 0)) + 1
            if attempts > 1:
                self.status["attempts_extra"] = (
                    int(self.status.get("attempts_extra", 0))
                    + attempts - 1)
            self._completions.append(time.time())
            self.status.update(state="idle", point_id="")
        self.write()

    def idle(self) -> None:
        """Back to scanning for work."""
        with self._lock:
            self.status.update(state="idle", job_id="", point_id="")
        self.write()

    def note(self, **fields) -> None:
        """Merge arbitrary JSON-serializable status fields."""
        with self._lock:
            self.status.update(fields)
        self.write()

    # -- persistence --------------------------------------------------------

    def points_per_s(self, now: Optional[float] = None) -> float:
        """Completions per second over the trailing window."""
        now = time.time() if now is None else now
        recent = [t for t in self._completions
                  if now - t <= RATE_WINDOW_S]
        if not recent:
            return 0.0
        span = now - min(recent)
        if span <= 0:
            return 0.0
        return round(len(recent) / span, 4)

    def write(self) -> None:
        """Atomically persist the current snapshot (never raises)."""
        if self.degraded:
            return
        with self._lock:
            payload = dict(self.status)
            payload["heartbeat_at"] = round(time.time(), 6)
            payload["points_per_s"] = self.points_per_s()
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            cachefile.atomic_write_bytes(self.path, _checksummed(payload))
        except OSError as exc:
            self.degraded = True
            logger.debug("fleet status %s unwritable (%s); health "
                         "reporting disabled for this worker",
                         self.path, exc)


def read_worker_status(path: Union[str, Path]) -> Optional[dict]:
    """One verified worker snapshot, or None (corrupt → quarantined)."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        cachefile.quarantine(path, f"unreadable worker status: {exc}")
        return None
    if not isinstance(payload, dict) or not _verify(payload):
        cachefile.quarantine(path, "worker status failed its checksum")
        return None
    if payload.get("schema") != WORKER_SCHEMA:
        return None
    payload.pop("checksum", None)
    return payload


def read_fleet(root: Union[str, Path],
               stale_after_s: float = DEFAULT_STALE_AFTER_S,
               now: Optional[float] = None) -> dict:
    """Aggregate every worker snapshot under ``<root>/fleet``.

    Staleness goes by file **mtime**, not any timestamp inside the
    payload — same convention as lease liveness, and immune to clock
    skew between the writing and reading host as long as they share
    the filesystem's clock.
    """
    now = time.time() if now is None else now
    fleet_dir = Path(root) / FLEET_DIR
    workers: List[dict] = []
    if fleet_dir.is_dir():
        for path in sorted(fleet_dir.glob("*.json")):
            status = read_worker_status(path)
            if status is None:
                continue
            try:
                age = max(0.0, now - path.stat().st_mtime)
            except OSError:
                continue
            status["age_s"] = round(age, 3)
            status["stale"] = (age > stale_after_s
                               or status.get("state") == "exited")
            workers.append(status)
    live = sum(1 for w in workers if not w["stale"])
    return {"workers": workers, "live": live,
            "stale": len(workers) - live,
            "stale_after_s": stale_after_s,
            "generated_at": round(now, 6)}


def job_progress(counts: Dict[str, int], events: List[dict],
                 now: Optional[float] = None) -> dict:
    """Progress percentage plus a throughput-windowed ETA for one job.

    ``counts`` is :meth:`repro.service.jobs.JobStore.counts` output;
    ``events`` the job's progress records.  The rate is completions
    (``point_done``/``point_failed``) inside the trailing window — or,
    for a job idle longer than the window, over the whole run, so a
    finished job still reports its average throughput.  ``eta_s`` is
    None until at least one completion establishes a rate.
    """
    now = time.time() if now is None else now
    total = int(counts.get("total", 0))
    finished = (int(counts.get("completed", 0))
                + int(counts.get("failed", 0)))
    remaining = int(counts.get("pending", 0)) + int(counts.get("leased", 0))
    done_ts = sorted(
        e["ts"] for e in events
        if e.get("event") in ("point_done", "point_failed")
        and isinstance(e.get("ts"), (int, float)))
    recent = [t for t in done_ts if now - t <= RATE_WINDOW_S] or done_ts
    rate = None
    if recent:
        span = now - recent[0]
        if span > 0:
            rate = len(recent) / span
    eta_s = (round(remaining / rate, 3)
             if rate and remaining else (0.0 if not remaining else None))
    return {"percent": round(100.0 * finished / total, 2) if total else 0.0,
            "points_per_s": round(rate, 4) if rate else 0.0,
            "eta_s": eta_s,
            "window_s": RATE_WINDOW_S}


__all__ = ["DEFAULT_FLEET_INTERVAL_S", "DEFAULT_STALE_AFTER_S",
           "FLEET_DIR", "FleetReporter", "RATE_WINDOW_S",
           "WORKER_SCHEMA", "job_progress", "read_fleet",
           "read_worker_status", "worker_file_name"]
