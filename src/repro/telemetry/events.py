"""Typed telemetry events.

Every event the simulator, scheduler, memory system or harness can emit
is one of the small dataclasses below.  Events are *descriptions of
something that happened*, never inputs to the simulation — emitting (or
not emitting) them cannot change any simulated counter or cycle, which
is what makes the enabled/disabled parity guarantee trivial to uphold.

Conventions:

* ``ts`` is a simulated-cycle timestamp (the :class:`~repro.telemetry.hub.SimClock`
  domain).  Events raised from code with no clock access leave it
  ``None``; the Chrome exporter then reuses the last timestamp it saw.
* ``seq`` is stamped by the hub at emit time and gives a total order
  over all events of a run, independent of timestamps.
* Wall-clock (harness) events use seconds and are kept in a separate
  field namespace (``wall_start_s``/``wall_dur_s``) so the two time
  domains can never be confused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

TileCoord = Tuple[int, int]


@dataclass
class TelemetryEvent:
    """Base class: emit-order sequence number (stamped by the hub)."""

    seq: int = field(default=0, init=False)


@dataclass
class PhaseBegin(TelemetryEvent):
    """A pipeline phase (geometry, raster, run, frame) started."""

    name: str = ""
    ts: Optional[int] = None
    frame: Optional[int] = None


@dataclass
class PhaseEnd(TelemetryEvent):
    """A pipeline phase finished."""

    name: str = ""
    ts: Optional[int] = None
    frame: Optional[int] = None


@dataclass
class TileDispatch(TelemetryEvent):
    """A Raster Unit picked up a tile workload."""

    ru: int = 0
    tile: Optional[TileCoord] = None
    ts: Optional[int] = None


@dataclass
class TileRetire(TelemetryEvent):
    """A Raster Unit finished a tile workload."""

    ru: int = 0
    tile: Optional[TileCoord] = None
    ts: Optional[int] = None
    #: Cycle the tile was dispatched (interval granularity).
    start_ts: Optional[int] = None
    #: DRAM line accesses attributed to this tile.
    dram_lines: int = 0
    instructions: int = 0


@dataclass
class SchedulerDecision(TelemetryEvent):
    """What the scheduler chose for one frame."""

    frame: int = 0
    order: str = ""
    supertile_size: int = 1
    batches: int = 0
    ts: Optional[int] = None


@dataclass
class SchedulerRanking(TelemetryEvent):
    """A temperature ranking happened (hot/cold supertile dispatch)."""

    supertiles: int = 0
    #: Supertile ids of the hottest entries, hottest first.
    hottest: Tuple[int, ...] = ()
    ts: Optional[int] = None


@dataclass
class FSMTransition(TelemetryEvent):
    """An adaptive-FSM state change (``old is None`` = initial state)."""

    machine: str = ""
    old: Optional[Any] = None
    new: Optional[Any] = None
    ts: Optional[int] = None


@dataclass
class FSMState(TelemetryEvent):
    """Per-frame snapshot of an adaptive FSM's current state."""

    machine: str = ""
    state: Optional[Any] = None
    frame: Optional[int] = None
    ts: Optional[int] = None


@dataclass
class DRAMSample(TelemetryEvent):
    """One closed DRAM accounting interval."""

    ts: Optional[int] = None
    requests: int = 0
    utilization: float = 0.0
    latency_cycles: float = 0.0


@dataclass
class CacheDelta(TelemetryEvent):
    """Per-frame counter delta of one cache."""

    name: str = ""
    frame: Optional[int] = None
    ts: Optional[int] = None
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass
class HarnessSpan(TelemetryEvent):
    """A supervised harness step (wall-clock domain, seconds)."""

    name: str = ""
    wall_start_s: float = 0.0
    wall_dur_s: float = 0.0
    status: str = ""
    attempts: int = 0
    args: Optional[Dict[str, Any]] = None


@dataclass
class SupervisorEvent(TelemetryEvent):
    """A worker-lifecycle decision by the run supervisor.

    ``kind`` is one of ``preempt`` (a worker was SIGTERM/SIGKILL'd for
    hanging or blowing its deadline), ``heartbeat_gap`` (a stale
    heartbeat was observed), ``worker_death`` (a worker died without
    returning — crash, OOM kill), ``breaker_trip`` (a (benchmark,
    config) combination was quarantined), ``breaker_probe`` (half-open
    re-probe) or ``breaker_close`` (probe succeeded).  Wall-clock
    domain, like :class:`HarnessSpan`.
    """

    kind: str = ""
    #: What the decision was about (a job label or breaker key).
    target: str = ""
    detail: str = ""
    wall_s: float = 0.0
