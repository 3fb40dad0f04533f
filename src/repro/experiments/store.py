"""Crash-safe sweep artifact store (checkpoint + resume).

One directory per sweep::

    <root>/
      manifest.json          # spec snapshot + grid fingerprint
      points/<point_id>.pkl  # one checksummed RunSummary per finished point
      breakers.json          # circuit-breaker state (trips survive resume)
      failures.json          # terminal per-point failures (service workers)

Every write goes through :mod:`repro.cachefile` (atomic replace +
SHA-256 checksum), so a SIGKILL of the sweep driver — or of a worker
process mid-write — can never leave a half-written artifact that a
resumed sweep would trust: a torn file fails the checksum, is
quarantined, and the point simply reruns.  Point artifacts take no
lock (each write replaces the file whole and no reader locks), so
``points/`` holds nothing but one ``.pkl`` per finished point; the
read-modify-write files (breakers, failures) take an advisory lock.
The manifest pins the grid fingerprint so a store can only be resumed
by the spec that created it; pointing a different grid at the same
directory is an error, not silent cross-contamination.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Dict, List, Optional, Union

from .. import cachefile
from ..errors import ConfigValidationError
from .spec import ExperimentSpec, SweepPoint

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
POINTS_DIR = "points"
BREAKERS_NAME = "breakers.json"
FAILURES_NAME = "failures.json"


class ArtifactStore:
    """Per-point checkpoints of one sweep, keyed by ``point_id``."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file."""
        return self.root / MANIFEST_NAME

    @property
    def points_dir(self) -> Path:
        """Directory holding the per-point artifacts."""
        return self.root / POINTS_DIR

    def point_path(self, point_id: str) -> Path:
        """Artifact path of one point."""
        return self.points_dir / f"{point_id}.pkl"

    # -- manifest -----------------------------------------------------------

    def initialize(self, spec: ExperimentSpec) -> bool:
        """Create or verify the manifest; True when resuming an old store.

        A fresh directory gets a manifest recording the spec and its
        grid fingerprint.  An existing manifest must carry the same
        fingerprint, otherwise a :class:`ConfigValidationError` explains
        the mismatch (the caller should pick a new ``--out`` directory
        or delete the stale one) — completed artifacts from one grid
        must never be served to another.
        """
        existing = self.read_manifest()
        if existing is None:
            manifest = {"fingerprint": spec.fingerprint(),
                        "spec": spec.to_dict(), "version": 1}
            cachefile.atomic_write_bytes(
                self.manifest_path,
                json.dumps(manifest, indent=2, sort_keys=True,
                           default=str).encode())
            self.points_dir.mkdir(parents=True, exist_ok=True)
            return False
        if existing.get("fingerprint") != spec.fingerprint():
            raise ConfigValidationError(
                f"artifact store {self.root} was created by a different "
                f"experiment grid (stored fingerprint "
                f"{existing.get('fingerprint')!r}, this spec "
                f"{spec.fingerprint()!r}); use a fresh --out directory")
        self.points_dir.mkdir(parents=True, exist_ok=True)
        return True

    def read_manifest(self) -> Optional[dict]:
        """The parsed manifest, or None when absent/unreadable.

        A corrupt manifest is quarantined (renamed aside) and treated as
        absent — the store re-initializes and completed artifacts are
        still honoured, because point artifacts carry their own
        checksums.
        """
        path = self.manifest_path
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            cachefile.quarantine(path, f"unreadable manifest: {exc}")
            return None

    # -- circuit-breaker state ----------------------------------------------

    @property
    def breakers_path(self) -> Path:
        """Path of the persisted circuit-breaker state."""
        return self.root / BREAKERS_NAME

    def record_breaker_state(self, state: dict,
                             key: Optional[str] = None) -> None:
        """Persist a :meth:`CircuitBreaker.to_state` snapshot (atomic).

        Written at the end of every supervised sweep, so a resumed
        sweep honours earlier trips: a (benchmark, config) combination
        quarantined yesterday stays quarantined until its cooldown —
        not until someone happens to rerun it three more times.

        With ``key`` (a service worker after one claimed point, while
        other workers of the fleet record theirs) the snapshot is
        merged, not written whole: under the file's lock the file is
        read again, only ``key``'s cell is replaced, and only the
        snapshot's trips on ``key`` the file lacks are appended.  A
        worker holding a stale copy of other keys then cannot erase
        their failure counts or trips.
        """
        path = self.breakers_path
        with cachefile.file_lock(path):
            if key is not None:
                current = self.load_breaker_state()
                current = current if isinstance(current, dict) else {}
                cells = current.get("cells")
                cells = dict(cells) if isinstance(cells, dict) else {}
                if key in state["cells"]:
                    cells[key] = state["cells"][key]
                trips = current.get("trips")
                trips = list(trips) if isinstance(trips, list) else []
                trips += [t for t in state.get("trips", ())
                          if isinstance(t, dict) and t.get("key") == key
                          and t not in trips]
                state = dict(state, cells=cells, trips=trips)
            cachefile.atomic_write_bytes(
                path, json.dumps(state, indent=2, sort_keys=True,
                                 default=str).encode())

    def load_breaker_state(self) -> Optional[dict]:
        """The persisted breaker snapshot, or None (absent/corrupt).

        A corrupt file is quarantined and treated as absent — losing
        breaker history merely costs a few retries, never correctness.
        """
        path = self.breakers_path
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            cachefile.quarantine(path, f"unreadable breaker state: {exc}")
            return None

    # -- terminal point failures --------------------------------------------

    @property
    def failures_path(self) -> Path:
        """Path of the recorded terminal per-point failures."""
        return self.root / FAILURES_NAME

    def record_point_failure(self, point_id: str, error: str,
                             error_type: str = "") -> None:
        """Persist one point's terminal failure (atomic, read-modify-write).

        A local ``run_sweep`` keeps failures in the returned
        :class:`~repro.experiments.engine.SweepResult`; the distributed
        service has no single driver process holding that object, so
        workers record terminal failures here and the aggregation step
        (:func:`~repro.experiments.engine.sweep_result_from_store`)
        reads them back.  The sidecar lock serializes concurrent workers
        on a shared store directory.
        """
        path = self.failures_path
        with cachefile.file_lock(path):
            failures = self._read_failures_unlocked()
            failures[point_id] = {"error": error, "error_type": error_type}
            cachefile.atomic_write_bytes(
                path, json.dumps(failures, indent=2,
                                 sort_keys=True).encode())

    def clear_point_failure(self, point_id: str) -> None:
        """Drop a recorded failure (a later attempt of the point passed)."""
        path = self.failures_path
        with cachefile.file_lock(path):
            failures = self._read_failures_unlocked()
            if point_id in failures:
                del failures[point_id]
                cachefile.atomic_write_bytes(
                    path, json.dumps(failures, indent=2,
                                     sort_keys=True).encode())

    def load_point_failures(self) -> Dict[str, dict]:
        """Recorded terminal failures keyed by point id (corrupt → empty)."""
        with cachefile.file_lock(self.failures_path):
            return self._read_failures_unlocked()

    def _read_failures_unlocked(self) -> Dict[str, dict]:
        path = self.failures_path
        if not path.exists():
            return {}
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            cachefile.quarantine(path, f"unreadable failure log: {exc}")
            return {}
        return data if isinstance(data, dict) else {}

    # -- point artifacts ----------------------------------------------------

    def save(self, point_id: str, summary) -> None:
        """Checkpoint one completed point (atomic and checksummed).

        Unlocked: two writers of one point each replace the file whole,
        so a reader sees one of their artifacts, never a mix.
        """
        cachefile.write_cache(summary, self.point_path(point_id))

    def load(self, point_id: str):
        """One point's summary, or None (missing or quarantined-corrupt)."""
        return cachefile.load_or_quarantine(self.point_path(point_id))

    def completed_ids(self) -> List[str]:
        """Point ids with an artifact on disk (content not yet verified)."""
        if not self.points_dir.is_dir():
            return []
        return sorted(p.stem for p in self.points_dir.glob("*.pkl"))

    def load_completed(self, points: List[SweepPoint]) -> Dict[str, object]:
        """Verified summaries for every already-completed point of a grid.

        Reads each artifact through the checksum layer; corrupt entries
        are quarantined and simply omitted, so the engine reruns them.
        """
        done: Dict[str, object] = {}
        on_disk = set(self.completed_ids())
        for point in points:
            if point.point_id in on_disk:
                summary = self.load(point.point_id)
                if summary is not None:
                    done[point.point_id] = summary
        return done
