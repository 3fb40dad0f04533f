"""Deterministic chaos harness: seeded fault injection for sweeps.

Supervision code that is only ever exercised by real crashes is dead
code until the worst possible moment.  This module injects the failure
modes the supervisor (:mod:`repro.supervision`) claims to handle —
worker crashes, hangs, slow starts, cache corruption, ENOSPC on
checkpoint writes — *deterministically*, so CI can drive a full sweep
through scripted disasters and gate on three invariants:

1. **Termination** — every chaos run finishes; no fault may deadlock
   the driver.
2. **Convergence** — for every non-quarantined point the sweep's
   simulated metrics are bit-identical to a fault-free run: faults
   perturb *execution*, never *results*.
3. **Quarantine** — a systematically failing point (the ``curse``)
   trips the circuit breaker instead of burning retries grid-wide.

Determinism comes from hashing, not RNG state: the fault for a point is
``sha256(seed ‖ point_id)`` (stable across processes, machines and
``PYTHONHASHSEED``), and ordinary faults fire only on a point's *first*
invocation — tracked in lock-protected counter files under
``<store_root>/.chaos/`` so the count survives the worker process being
killed — which is what makes retries converge.  A ``curse`` substring
marks point ids that crash on *every* invocation (systematic failure →
breaker trip).

Activation is via environment variables (:func:`enable` /
:func:`disable` / the ``repro sweep --chaos`` flag) rather than
parameters, because worker processes are forked/spawned far from the
call site and must inherit the plan::

    REPRO_CHAOS_SEED    the integer seed (presence activates chaos)
    REPRO_CHAOS_FAULTS  comma list of fault kinds (default: all)
    REPRO_CHAOS_CURSE   substring of point ids that fail systematically
    REPRO_CHAOS_RATE    fraction of points that receive a fault

Injection sites: :func:`on_point_start` / :func:`on_checkpoint_saved`
in :func:`repro.experiments.engine._point_runner`, and an armed
single-shot fault consumed by :func:`repro.cachefile.write_cache`
(``corrupt`` flips a payload byte after the digest is computed, so the
next read detects the mismatch and quarantines; ``enospc`` raises
``OSError(ENOSPC)``).  This module must not import :mod:`repro.cachefile`
(which imports it) — the counter files use their own ``fcntl`` locking.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import logging
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple

try:  # POSIX-only advisory locks; counters degrade to unlocked elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

logger = logging.getLogger(__name__)

ENV_SEED = "REPRO_CHAOS_SEED"
ENV_FAULTS = "REPRO_CHAOS_FAULTS"
ENV_CURSE = "REPRO_CHAOS_CURSE"
ENV_RATE = "REPRO_CHAOS_RATE"

#: Every fault kind the harness can inject.
ALL_FAULTS: Tuple[str, ...] = ("crash", "crash_late", "hang", "slow",
                               "corrupt", "enospc")

#: Fraction of points that receive a fault (first invocation only).
DEFAULT_RATE = 0.75

#: How long a ``hang`` fault sleeps.  Far beyond any hang grace — the
#: supervisor must preempt it; tests shrink it for speed.
HANG_SLEEP_S = 600.0

#: Added startup latency of a ``slow`` fault.
SLOW_SLEEP_S = 0.25

#: Exit codes of injected crashes (distinctive in worker post-mortems).
CRASH_EXIT = 17
CRASH_LATE_EXIT = 19
CURSE_EXIT = 23


@dataclass(frozen=True)
class ChaosPlan:
    """The active fault schedule (decoded from the environment)."""

    seed: int
    faults: Tuple[str, ...] = ALL_FAULTS
    curse: str = ""
    rate: float = DEFAULT_RATE

    def cursed(self, point_id: str) -> bool:
        """Whether ``point_id`` fails systematically (every invocation)."""
        return bool(self.curse) and self.curse in point_id

    def fault_for(self, point_id: str) -> Optional[str]:
        """The fault injected on ``point_id``'s first invocation, if any.

        Pure function of ``(seed, point_id)``: two processes — or two
        machines — always agree.  The first 4 digest bytes decide
        *whether* a fault fires (against ``rate``), the next 4 decide
        *which*, so changing the fault list does not reshuffle which
        points are hit.
        """
        if not self.faults:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{point_id}".encode()).digest()
        roll = int.from_bytes(digest[:4], "big") / 2 ** 32
        if roll >= self.rate:
            return None
        pick = int.from_bytes(digest[4:8], "big")
        return self.faults[pick % len(self.faults)]

    def describe(self) -> str:
        """One-line summary for logs and reports."""
        parts = [f"seed={self.seed}", f"rate={self.rate:g}",
                 f"faults={','.join(self.faults)}"]
        if self.curse:
            parts.append(f"curse={self.curse!r}")
        return "chaos(" + " ".join(parts) + ")"


def active() -> Optional[ChaosPlan]:
    """The plan the environment describes, or None (chaos off)."""
    raw_seed = os.environ.get(ENV_SEED)
    if raw_seed is None or raw_seed == "":
        return None
    try:
        seed = int(raw_seed)
    except ValueError:
        logger.warning("ignoring non-integer %s=%r", ENV_SEED, raw_seed)
        return None
    raw_faults = os.environ.get(ENV_FAULTS, "")
    if raw_faults.strip():
        faults = tuple(f for f in
                       (part.strip() for part in raw_faults.split(","))
                       if f in ALL_FAULTS)
    else:
        faults = ALL_FAULTS
    try:
        rate = float(os.environ.get(ENV_RATE, "") or DEFAULT_RATE)
    except ValueError:
        rate = DEFAULT_RATE
    return ChaosPlan(seed=seed, faults=faults,
                     curse=os.environ.get(ENV_CURSE, ""),
                     rate=min(max(rate, 0.0), 1.0))


def enable(seed: int, faults: Optional[Tuple[str, ...]] = None,
           curse: str = "", rate: Optional[float] = None) -> ChaosPlan:
    """Activate chaos process-wide (and for every future child)."""
    if faults is not None:
        unknown = [f for f in faults if f not in ALL_FAULTS]
        if unknown:
            raise ValueError(
                f"unknown chaos fault(s): {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_FAULTS)})")
    os.environ[ENV_SEED] = str(int(seed))
    if faults is not None:
        os.environ[ENV_FAULTS] = ",".join(faults)
    else:
        os.environ.pop(ENV_FAULTS, None)
    if curse:
        os.environ[ENV_CURSE] = curse
    else:
        os.environ.pop(ENV_CURSE, None)
    if rate is not None:
        os.environ[ENV_RATE] = repr(rate)
    else:
        os.environ.pop(ENV_RATE, None)
    plan = active()
    logger.info("chaos enabled: %s", plan.describe())
    return plan


def disable() -> None:
    """Deactivate chaos (idempotent)."""
    for name in (ENV_SEED, ENV_FAULTS, ENV_CURSE, ENV_RATE):
        os.environ.pop(name, None)


@contextlib.contextmanager
def session(seed: int, faults: Optional[Tuple[str, ...]] = None,
            curse: str = "",
            rate: Optional[float] = None) -> Iterator[ChaosPlan]:
    """``enable`` for a ``with`` block, restoring the prior environment."""
    saved = {name: os.environ.get(name)
             for name in (ENV_SEED, ENV_FAULTS, ENV_CURSE, ENV_RATE)}
    try:
        yield enable(seed, faults=faults, curse=curse, rate=rate)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


# -- persistent invocation counters ------------------------------------------

def counter_dir(store_root: os.PathLike) -> Path:
    """Where a sweep's invocation counters live."""
    return Path(store_root) / ".chaos"


def invocation(store_root: os.PathLike, point_id: str) -> int:
    """Count (and persist) one invocation of ``point_id``; 1-based.

    The counter must survive the worker being SIGKILLed a microsecond
    later — that is the whole point — so it lives in a file under the
    sweep's store, bumped under an exclusive ``fcntl`` lock before the
    fault fires.  Ordinary faults fire only when this returns 1, which
    is what makes every retry converge to the fault-free result.
    """
    root = counter_dir(store_root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"{point_id}.count"
    with open(path, "a+b") as handle:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            handle.seek(0)
            raw = handle.read().strip()
            count = (int(raw) if raw else 0) + 1
            handle.seek(0)
            handle.truncate()
            handle.write(str(count).encode())
            handle.flush()
            os.fsync(handle.fileno())
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
    return count


# -- armed single-shot cache faults ------------------------------------------

#: The next :func:`repro.cachefile.write_cache` in this process consumes
#: this ("corrupt" or "enospc").  Worker-process-local by construction.
_ARMED_CACHE_FAULT: Optional[str] = None


def arm_cache_fault(kind: str) -> None:
    """Arm a one-shot fault on the next cache write in this process."""
    global _ARMED_CACHE_FAULT
    _ARMED_CACHE_FAULT = kind


def consume_cache_fault() -> Optional[str]:
    """Pop the armed fault (None in the overwhelmingly common case)."""
    global _ARMED_CACHE_FAULT
    if _ARMED_CACHE_FAULT is None:
        return None
    fault, _ARMED_CACHE_FAULT = _ARMED_CACHE_FAULT, None
    logger.warning("chaos: cache write fault %r firing", fault)
    return fault


def disarm() -> None:
    """Drop the faults a point armed in this process but never fired.

    A supervised worker runs point after point; this keeps an armed
    cache fault that no write consumed, or a pending ``crash_late``,
    from firing in the next point.
    """
    global _ARMED_CACHE_FAULT, _CRASH_AFTER_CHECKPOINT
    _ARMED_CACHE_FAULT = None
    _CRASH_AFTER_CHECKPOINT = False


def corrupt_bytes(payload: bytes) -> bytes:
    """Flip one bit of ``payload`` (empty payloads gain a byte)."""
    if not payload:
        return b"\xff"
    return payload[:-1] + bytes([payload[-1] ^ 0x01])


def enospc_error(path: os.PathLike) -> OSError:
    """The injected no-space error for a checkpoint write."""
    return OSError(errno.ENOSPC,
                   f"chaos: injected ENOSPC writing {path}")


# -- worker-side injection points --------------------------------------------

#: Set by a ``crash_late`` fault: die after the checkpoint hits disk.
_CRASH_AFTER_CHECKPOINT = False


def on_point_start(point_id: str, store_root: os.PathLike) -> None:
    """Fault-injection site at the top of a point run (post store-check).

    Called from :func:`repro.experiments.engine._point_runner` after the
    resume check, so already-completed points are never re-faulted.
    Near-zero cost when chaos is off (one env lookup).
    """
    global _CRASH_AFTER_CHECKPOINT
    plan = active()
    if plan is None:
        return
    if plan.cursed(point_id):
        logger.warning("chaos: cursed point %s crashing (every "
                       "invocation)", point_id)
        os._exit(CURSE_EXIT)
    fault = plan.fault_for(point_id)
    if fault is None:
        return
    count = invocation(store_root, point_id)
    if count > 1:
        logger.info("chaos: %s already faulted (invocation %d); "
                    "running clean", point_id, count)
        return
    logger.warning("chaos: injecting %r into %s", fault, point_id)
    if fault == "crash":
        os._exit(CRASH_EXIT)
    elif fault == "hang":
        from .supervision import pause_heartbeat
        pause_heartbeat()
        time.sleep(HANG_SLEEP_S)
    elif fault == "slow":
        time.sleep(SLOW_SLEEP_S)
    elif fault in ("corrupt", "enospc"):
        arm_cache_fault(fault)
    elif fault == "crash_late":
        _CRASH_AFTER_CHECKPOINT = True


def on_checkpoint_saved(point_id: str) -> None:
    """Fault site right after a point's checkpoint reached the store.

    A pending ``crash_late`` kills the worker *here* — after the
    artifact is durable but before the result travels back to the
    driver — the nastiest crash window: the retry (or a resumed sweep)
    must serve the checkpoint instead of re-running the point.
    """
    if _CRASH_AFTER_CHECKPOINT:
        logger.warning("chaos: crash_late killing worker after %s "
                       "checkpointed", point_id)
        os._exit(CRASH_LATE_EXIT)
