"""The telemetry hub: one module-level event bus for the whole package.

Design constraints, in priority order:

1. **Zero overhead when disabled.**  Every instrumentation site in hot
   code is written as ``if HUB.enabled: HUB.emit(...)`` — the disabled
   cost is a single attribute load and branch, and the sites sit at
   tile/interval/frame granularity, never inside the per-cache-line
   loops.  ``benchmarks/profile_hotpath.py --telemetry-overhead``
   measures (and CI gates) that this stays below 2% of the run time.

2. **No influence on simulation results.**  The hub only *observes*;
   nothing in the simulator reads it back.  A run with telemetry
   enabled is bit-identical to one with it disabled
   (``tests/test_telemetry.py`` asserts this).

3. **One hub per process.**  ``HUB`` is a module-level singleton that is
   mutated in place by :meth:`TelemetryHub.enable` / ``disable`` and
   never rebound, so modules may bind it at import time.  Suite worker
   processes inherit a copy via fork and report their own metrics.
"""

from __future__ import annotations

import dataclasses
import json
from typing import IO, Any, Dict, List, Optional, Tuple, Union

from .events import TelemetryEvent
from .metrics import MetricsRegistry


class SimClock:
    """A mutable simulated-cycle clock shared by driver and units."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: int = 0):
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(cycles={self.cycles})"


class RecordingSink:
    """Keeps every event in memory (the exporters' input)."""

    def __init__(self):
        self.events: List[TelemetryEvent] = []

    def handle(self, event: TelemetryEvent) -> None:
        """Receive one event."""
        self.events.append(event)

    def clear(self) -> None:
        """Drop all recorded events."""
        self.events.clear()


class JsonlSink:
    """Streams events as JSON lines (one ``{"type": ..., ...}`` per line).

    Accepts an open text file object; the caller owns its lifetime.
    Tuples (tile coordinates, bucket bounds) serialize as JSON arrays.

    ``extra`` (optional) is a dict of correlation fields merged into
    every record — the sweep service stamps ``job_id`` / ``worker_id``
    / ``point_id`` here so per-point streams from a whole fleet can be
    merged into one timeline after the fact.  Event fields win on a
    name clash; :func:`repro.telemetry.io.load_jsonl_events` ignores
    the extras, so a correlated stream stays loadable everywhere a
    plain one is.
    """

    #: Field names per event type, in ``dataclasses.fields`` order.
    _FIELDS: Dict[type, Tuple[str, ...]] = {}

    def __init__(self, stream: IO[str],
                 extra: Optional[Dict[str, Any]] = None):
        self.stream = stream
        self.extra = dict(extra) if extra else None

    def handle(self, event: TelemetryEvent) -> None:
        """Serialize one event as a JSON line.

        The record holds the same keys in the same order as
        ``dataclasses.asdict`` would give (``seq`` first), without its
        deep copy: the values are serialized right away.
        """
        cls = type(event)
        names = self._FIELDS.get(cls)
        if names is None:
            names = self._FIELDS[cls] = tuple(
                f.name for f in dataclasses.fields(cls))
        record = dict(self.extra) if self.extra else {}
        record["type"] = cls.__name__
        for name in names:
            record[name] = getattr(event, name)
        self.stream.write(json.dumps(record, default=str) + "\n")


class TelemetryHub:
    """Event bus + metrics registry behind one cheap ``enabled`` flag."""

    def __init__(self):
        self.enabled = False
        self._sinks: List[Any] = []
        #: The process-wide metrics registry.  It survives
        #: enable/disable cycles so instruments cached by hot-path code
        #: stay live; use ``metrics.reset()`` between runs.
        self.metrics = MetricsRegistry()
        self._seq = 0

    # -- lifecycle ---------------------------------------------------------
    def enable(self, *sinks: Any) -> None:
        """Turn the hub on, appending any given sinks.

        A sink is anything with a ``handle(event)`` method.  Enabling an
        already-enabled hub just adds the sinks.
        """
        for sink in sinks:
            self.add_sink(sink)
        self.enabled = True

    def add_sink(self, sink: Any) -> None:
        """Attach one sink (no-op if already attached)."""
        if sink not in self._sinks:
            self._sinks.append(sink)

    def remove_sink(self, sink: Any) -> None:
        """Detach one sink if attached."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    def disable(self) -> None:
        """Turn the hub off and drop all sinks (metrics are kept)."""
        self.enabled = False
        self._sinks = []

    @property
    def sinks(self) -> List[Any]:
        """The attached sinks (read-only view)."""
        return list(self._sinks)

    @property
    def seq(self) -> int:
        """Sequence number of the most recently emitted event."""
        return self._seq

    # -- emission ----------------------------------------------------------
    def emit(self, event: TelemetryEvent) -> None:
        """Stamp the event's sequence number and fan it out to sinks.

        Callers in hot code must guard the *construction* of the event
        with ``if HUB.enabled:`` — this method assumes the hub is on.
        """
        self._seq += 1
        event.seq = self._seq
        for sink in self._sinks:
            sink.handle(event)


#: The process-wide hub.  Mutated in place, never rebound — modules may
#: safely do ``from repro.telemetry import HUB`` at import time.
HUB = TelemetryHub()


def telemetry_session(*sinks: Any) -> "_TelemetrySession":
    """Context manager: enable ``HUB`` for a block, restore state after.

    The metrics registry is reset on entry.

    ::

        sink = RecordingSink()
        with telemetry_session(sink):
            simulator.run(traces)
        trace = chrome_trace(sink.events)
    """
    return _TelemetrySession(sinks)


class _TelemetrySession:
    def __init__(self, sinks):
        self._sinks = sinks
        self._was_enabled: Optional[bool] = None
        self._previous_sinks: Optional[List[Any]] = None

    def __enter__(self) -> TelemetryHub:
        self._was_enabled = HUB.enabled
        self._previous_sinks = HUB.sinks
        HUB.metrics.reset()
        HUB.enable(*self._sinks)
        return HUB

    def __exit__(self, *exc_info) -> None:
        HUB.disable()
        if self._previous_sinks:
            for sink in self._previous_sinks:
                HUB.add_sink(sink)
        HUB.enabled = bool(self._was_enabled)
