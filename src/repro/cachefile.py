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
* **Streaming** — neither direction holds the pickled payload in
  memory.  :func:`write_cache` pickles straight into the temporary
  file through a writer that updates the digest as the bytes pass, and
  fills the header's digest slot in before the ``fsync``.
  :func:`read_cache` hashes the whole payload through one reused
  buffer and unpickles from the same open file only once the digest
  matched, so a corrupt payload never reaches the unpickler.  Reading
  an entry costs its unpickled objects and a 64 KiB buffer.
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
storage faults the integrity layer exists to catch.  The fault fires
once the object has pickled, so a write that fails to pickle leaves it
armed.  Nothing is injected unless a chaos plan armed a fault in this
process.

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
from typing import IO, Any, Iterator, Optional, Tuple, Union

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

#: Bytes before the payload: the magic tag, then the digest.
_HEADER_BYTES = len(MAGIC) + _DIGEST_BYTES

#: Size of the one buffer :func:`read_cache` hashes a payload through.
_CHUNK_BYTES = 1 << 16

PathLike = Union[str, Path]


@contextlib.contextmanager
def _atomic_file(path: PathLike) -> Iterator[IO[bytes]]:
    """A temporary file that replaces ``path`` when the block succeeds.

    The temporary file lives in the target directory so the final
    ``os.replace`` is a same-filesystem rename; it is flushed and
    ``fsync``'d first.  On any failure the temporary file is removed:
    the final name is either the complete new content or whatever was
    there before — never a partial write.  The handle is opened for
    reading too, so a writer can revisit bytes it already wrote.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent,
                                    prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + replace)."""
    with _atomic_file(path) as handle:
        handle.write(data)


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


class _DigestWriter:
    """Passes bytes on to a file and hashes them on the way (SHA-256)."""

    def __init__(self, handle: IO[bytes]):
        self._handle = handle
        self._sha = hashlib.sha256()

    def write(self, data) -> int:
        self._sha.update(data)
        return self._handle.write(data)

    def digest(self) -> bytes:
        return self._sha.digest()


def write_cache(obj: Any, path: PathLike) -> None:
    """Pickle ``obj`` to ``path`` with checksum header, atomically.

    The pickle streams into the temporary file behind a placeholder
    digest, which is overwritten with the real one once the object has
    pickled.  Callers that may race other processes should hold
    :func:`file_lock` around the read-check-write sequence; the write
    itself is atomic either way.
    """
    with _atomic_file(path) as handle:
        handle.write(MAGIC + bytes(_DIGEST_BYTES))
        sink = _DigestWriter(handle)
        pickle.dump(obj, sink, protocol=pickle.HIGHEST_PROTOCOL)
        fault = chaos.consume_cache_fault()
        if fault == "enospc":
            raise chaos.enospc_error(path)
        if fault == "corrupt":
            # Digest stays honest, payload does not: the entry lands on
            # disk looking exactly like storage-layer bit rot, and the
            # next read must detect and quarantine it.
            handle.seek(-1, os.SEEK_END)
            last = handle.read(1)
            handle.seek(-1, os.SEEK_END)
            handle.write(chaos.corrupt_bytes(last))
        handle.seek(len(MAGIC))
        handle.write(sink.digest())


def _payload_digest(handle: IO[bytes]) -> Tuple[bytes, int]:
    """SHA-256 and length of the rest of ``handle``, read in chunks."""
    sha = hashlib.sha256()
    chunk = memoryview(bytearray(_CHUNK_BYTES))
    size = 0
    while True:
        got = handle.readinto(chunk)
        if not got:
            return sha.digest(), size
        sha.update(chunk[:got])
        size += got


def read_cache(path: PathLike) -> Any:
    """Load a checksummed cache entry written by :func:`write_cache`.

    Raises :class:`CacheCorruptionError` (with path and reason) on a
    missing/short header, wrong magic (legacy bare pickle included),
    checksum mismatch, or a payload that fails to unpickle.  The whole
    payload is verified before any of it is unpickled.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            header = handle.read(_HEADER_BYTES)
            if len(header) < _HEADER_BYTES:
                raise CacheCorruptionError(
                    f"{path}: truncated header ({len(header)} bytes)")
            if header[:len(MAGIC)] != MAGIC:
                raise CacheCorruptionError(
                    f"{path}: bad magic {header[:len(MAGIC)]!r} "
                    "(legacy or foreign format)")
            digest, size = _payload_digest(handle)
            if digest != header[len(MAGIC):]:
                raise CacheCorruptionError(f"{path}: checksum mismatch "
                                           f"({size} payload bytes)")
            handle.seek(_HEADER_BYTES)
            try:
                return pickle.load(handle)
            except Exception as exc:  # checksummed payload should never
                # fail; anything here means a pickling-layer skew (class
                # renamed/moved)
                raise CacheCorruptionError(
                    f"{path}: payload failed to unpickle ({exc!r})") from exc
    except OSError as exc:
        raise CacheCorruptionError(f"{path}: unreadable ({exc})") from exc


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
