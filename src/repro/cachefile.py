"""Crash-safe cache file I/O: atomic writes, checksums, advisory locks.

Every on-disk cache in this package (trace caches, run-summary caches)
goes through this module so the same guarantees hold everywhere:

* **Atomicity** — payloads are written to a temporary file in the target
  directory, flushed and ``fsync``'d, then moved into place with
  ``os.replace``.  A crash or interrupted write never leaves a partial
  file visible under the final name.
* **Integrity** — each entry starts with a magic tag and a SHA-256
  digest of the payload.  :func:`read_cache` verifies both and raises
  :class:`~repro.errors.CacheCorruptionError` on any mismatch, so a
  truncated or bit-flipped entry is *detected*, never silently served.
* **Isolation** — writers and readers take an advisory ``fcntl`` lock on
  a sidecar ``<name>.lock`` file, so two concurrent bench runs never
  interleave their writes to one entry.
* **Quarantine** — corrupt entries are renamed to ``<name>.corrupt[.N]``
  (and logged) instead of deleted, preserving the evidence for
  post-mortems while unblocking the rebuild.  The quarantine is capped:
  only the newest :func:`quarantine_keep` corrupt files per directory
  are kept (``REPRO_QUARANTINE_KEEP``, default 16), so a flapping
  writer cannot fill the disk with evidence; prunes are counted in
  telemetry (``cachefile.quarantine.pruned``).

Chaos: :func:`write_cache` is an injection site of the deterministic
chaos harness (:mod:`repro.chaos`) — an armed single-shot fault makes
one write fail with ``ENOSPC`` or produce a corrupt-on-disk entry
(digest over the real payload, payload bit-flipped), exactly the
storage faults the integrity layer exists to catch.  Nothing is
injected unless a chaos plan armed a fault in this process.

The entry layout is ``MAGIC (4 bytes) | sha256(payload) (32 bytes) |
payload (pickle)``.  Files written by older releases (bare pickles) fail
the magic check and are quarantined like any other corrupt entry, so
this format change needs no bump of ``repro.harness.TRACE_GENERATION``
or ``RESULT_GENERATION`` — the checksum header makes old entries
self-invalidating.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from . import chaos
from .errors import CacheCorruptionError
from .telemetry import HUB

try:  # advisory locks are POSIX-only; degrade gracefully elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

#: Format tag of checksummed cache entries (bump on layout changes).
MAGIC = b"RPC1"

#: Bytes of the SHA-256 digest stored after the magic tag.
_DIGEST_BYTES = 32

PathLike = Union[str, Path]


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + replace).

    The temporary file lives in the target directory so the final
    ``os.replace`` is a same-filesystem rename.  On any failure the
    temporary file is removed; the final name is either the complete new
    content or whatever was there before — never a partial write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


@contextlib.contextmanager
def file_lock(path: PathLike) -> Iterator[None]:
    """Advisory exclusive lock scoped to one cache entry.

    Locks a sidecar ``<name>.lock`` file (never the entry itself, which
    is replaced atomically and would orphan the lock).  Blocks until the
    lock is granted.  A no-op where ``fcntl`` is unavailable.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX platform
        yield
        return
    lock_path = Path(str(path) + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "a+b") as handle:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def quarantine_keep() -> int:
    """How many corrupt files a directory may hold (newest kept)."""
    try:
        return max(int(os.environ.get("REPRO_QUARANTINE_KEEP", 16)), 1)
    except ValueError:
        return 16


def _prune_quarantine(directory: Path, keep: int) -> int:
    """Drop all but the ``keep`` newest ``*.corrupt*`` files; count drops.

    Oldest-first by mtime: recent corruption is the evidence someone
    will actually look at; a months-old flapping writer's leavings are
    just disk pressure.  Races (another process pruning the same file)
    are ignored.
    """
    corpses = []
    try:
        for candidate in directory.iterdir():
            if ".corrupt" in candidate.name:
                with contextlib.suppress(OSError):
                    corpses.append((candidate.stat().st_mtime_ns,
                                    candidate))
    except OSError:
        return 0
    if len(corpses) <= keep:
        return 0
    corpses.sort()
    pruned = 0
    for _, victim in corpses[:len(corpses) - keep]:
        with contextlib.suppress(OSError):
            os.unlink(victim)
            pruned += 1
    if pruned:
        logger.info("pruned %d aged-out quarantined cache file(s) "
                    "from %s (keep=%d)", pruned, directory, keep)
        if HUB.enabled:
            HUB.metrics.counter("cachefile.quarantine.pruned").inc(pruned)
    return pruned


def quarantine(path: PathLike, reason: str) -> Optional[Path]:
    """Move a corrupt cache entry aside (``<name>.corrupt[.N]``) and log.

    Returns the quarantine path, or None if the entry vanished (another
    process quarantined it first — not an error under concurrent runs).
    The directory's quarantine population is then capped at
    :func:`quarantine_keep` (oldest pruned first).
    """
    path = Path(path)
    dest = path.with_name(path.name + ".corrupt")
    n = 0
    while dest.exists():
        n += 1
        dest = path.with_name(f"{path.name}.corrupt.{n}")
    try:
        os.replace(path, dest)
    except FileNotFoundError:
        return None
    logger.warning("quarantined corrupt cache entry %s -> %s (%s); "
                   "it will be rebuilt", path, dest.name, reason)
    if HUB.enabled:
        HUB.metrics.counter("cachefile.quarantined").inc()
    _prune_quarantine(path.parent, quarantine_keep())
    return dest


def write_cache(obj: Any, path: PathLike) -> None:
    """Pickle ``obj`` to ``path`` with checksum header, atomically.

    Callers that may race other processes should hold :func:`file_lock`
    around the read-check-write sequence; the write itself is atomic
    either way.
    """
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).digest()
    fault = chaos.consume_cache_fault()
    if fault == "enospc":
        raise chaos.enospc_error(path)
    if fault == "corrupt":
        # Digest stays honest, payload does not: the entry lands on
        # disk looking exactly like storage-layer bit rot, and the next
        # read must detect and quarantine it.
        payload = chaos.corrupt_bytes(payload)
    atomic_write_bytes(path, MAGIC + digest + payload)


def read_cache(path: PathLike) -> Any:
    """Load a checksummed cache entry written by :func:`write_cache`.

    Raises :class:`CacheCorruptionError` (with path and reason) on a
    missing/short header, wrong magic (legacy bare pickle included),
    checksum mismatch, or a payload that fails to unpickle.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CacheCorruptionError(f"{path}: unreadable ({exc})") from exc
    header = len(MAGIC) + _DIGEST_BYTES
    if len(blob) < header:
        raise CacheCorruptionError(
            f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:len(MAGIC)] != MAGIC:
        raise CacheCorruptionError(
            f"{path}: bad magic {blob[:len(MAGIC)]!r} "
            "(legacy or foreign format)")
    digest = blob[len(MAGIC):header]
    payload = blob[header:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheCorruptionError(f"{path}: checksum mismatch "
                                   f"({len(payload)} payload bytes)")
    try:
        return pickle.loads(payload)
    except Exception as exc:  # checksummed payload should never fail;
        # anything here means a pickling-layer skew (class renamed/moved)
        raise CacheCorruptionError(
            f"{path}: payload failed to unpickle ({exc!r})") from exc


def load_or_quarantine(path: PathLike) -> Any:
    """Read a cache entry; on corruption quarantine it and return None.

    Missing files also return None (a plain cache miss).
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        return read_cache(path)
    except CacheCorruptionError as exc:
        quarantine(path, str(exc))
        return None
