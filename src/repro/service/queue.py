"""Lease-based point claiming over a shared job store.

The distribution unit is one grid point.  Claiming works like a DHCP
lease: a worker scans the job's pending points under a queue-wide
``fcntl`` lock, writes ``leases/<point_id>.lease`` naming itself, and
then keeps the lease's *mtime* fresh from a renewal thread — literally
a :class:`repro.supervision.HeartbeatWriter` pointed at the lease file,
with a payload that rewrites the lease body (owner, pid, host, claim
time) on every beat.  Liveness and ownership ride on the same
mechanics the in-process supervisor already trusts.

Crash-safety falls out of the mtime rule: a SIGKILLed worker stops
renewing, its lease goes stale after ``lease_ttl_s``, and the next
scanning worker *adopts* the point — records the previous owner in the
fresh lease and in the job's event stream, then reruns the point.  The
rerun is idempotent because the point runner re-checks the artifact
store first and every checkpoint write is atomic: at worst the fleet
burns one duplicate simulation, never a torn artifact.

Nothing here talks HTTP; workers sharing the store directory (one host
or many, over a shared filesystem) coordinate purely through these
files.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Set

from .. import cachefile
from ..experiments import ExperimentSpec
from ..experiments.spec import SweepPoint
from ..supervision import HeartbeatWriter
from .jobs import JobStore

logger = logging.getLogger(__name__)

#: Default seconds without renewal before a lease counts as abandoned.
#: Renewal beats every ``ttl/4``, so a live worker has three missed
#: beats of slack before anyone tries to steal its point.
DEFAULT_LEASE_TTL_S = 30.0


@dataclass
class PointClaim:
    """One successfully claimed point and its lease bookkeeping."""

    job_id: str
    point: SweepPoint
    lease_path: Path
    worker_id: str
    #: Worker id found on a stale lease this claim adopted ('' for a
    #: first claim).
    adopted_from: str = ""

    def lease_body(self) -> str:
        """The JSON the lease file (re)writes on claim and renewal."""
        return json.dumps(
            {"point_id": self.point.point_id, "owner": self.worker_id,
             "pid": os.getpid(), "host": socket.gethostname(),
             "renewed_at": round(time.time(), 6)},
            sort_keys=True) + "\n"

    def renewer(self, ttl_s: float) -> HeartbeatWriter:
        """A started lease-renewal thread (caller must ``stop()`` it)."""
        thread = HeartbeatWriter(self.lease_path, interval_s=ttl_s / 4.0,
                                 payload=self.lease_body)
        thread.start()
        return thread

    def release(self) -> None:
        """Drop the lease (point finished or terminally failed)."""
        try:
            self.lease_path.unlink()
        except OSError:
            pass


def read_lease(path: Path) -> dict:
    """The lease file's parsed body ({} when unreadable/torn)."""
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    return data if isinstance(data, dict) else {}


def claim_point(store: JobStore, job_id: str, spec: ExperimentSpec,
                worker_id: str,
                lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                points: Optional[Sequence[SweepPoint]] = None,
                done: Optional[Set[str]] = None) -> Optional[PointClaim]:
    """Claim one pending point of a job, or None when none remains.

    Runs under the job's queue lock so concurrent workers scanning the
    same job serialize on the claim itself (the expensive part — the
    simulation — runs outside the lock).  Scan order follows the
    spec's deterministic expansion; a point is claimable when it has no
    checkpointed artifact, no recorded terminal failure, and no lease
    renewed within ``lease_ttl_s``.  A caller that claims repeatedly
    passes ``points`` (``spec.expand()``, expanded once) so the grid is
    not expanded again on every claim, and one ``done`` set: the scan
    adds every point whose artifact it found and skips them on later
    claims, so a drain stats each finished point's artifact once
    instead of listing the store on every claim.  Artifacts go by
    existence here, as in :meth:`JobStore.counts`; the finalizer
    verifies their content.
    """
    if points is None:
        points = spec.expand()
    if done is None:
        done = set()
    leases = store.leases_dir(job_id)
    leases.mkdir(parents=True, exist_ok=True)
    sweep_store = store.sweep_store(job_id)
    queue_lock = leases / ".queue"
    with cachefile.file_lock(queue_lock):
        failed = set(sweep_store.load_point_failures())
        now = time.time()
        for point in points:
            pid = point.point_id
            if pid in done or pid in failed:
                continue
            if sweep_store.point_path(pid).exists():
                done.add(pid)
                continue
            lease_path = leases / f"{pid}.lease"
            adopted_from = ""
            if lease_path.exists():
                try:
                    age = now - lease_path.stat().st_mtime
                except OSError:
                    age = lease_ttl_s + 1.0  # vanished mid-scan: stale
                if age <= lease_ttl_s:
                    continue  # live owner, keep scanning
                adopted_from = str(read_lease(lease_path).get("owner", ""))
            claim = PointClaim(job_id=job_id, point=point,
                               lease_path=lease_path,
                               worker_id=worker_id,
                               adopted_from=adopted_from)
            cachefile.atomic_write_bytes(lease_path,
                                         claim.lease_body().encode())
            if adopted_from:
                logger.info("worker %s adopted point %s from stale "
                            "lease of %s", worker_id, pid, adopted_from)
                store.events(job_id).emit(
                    "lease_adopted", job_id=job_id, point_id=pid,
                    owner=worker_id, previous_owner=adopted_from)
            return claim
    return None
