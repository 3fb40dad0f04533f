"""Metrics registry: counters, gauges and fixed-bucket histograms.

Components register metrics by dotted name (``ru0.tiles_retired``,
``dram.reads``, ``l1tex.hit_ratio``) through the get-or-create accessors
on :class:`MetricsRegistry`.  Registration is idempotent — asking for an
existing name returns the existing instrument (a type clash raises) — so
hot code can cache the returned object once and update it directly.

The registry itself is a plain dict with no locking: the simulator is
single-threaded per process, and the supervisor's forked worker
processes each carry their own registry.  ``snapshot()`` flattens everything into a
``{name: number}`` dict suitable for merging into run summaries or JSON.

Cross-process aggregation: ``dump()`` exports the registry as a typed,
JSON-able state dict and ``merge()`` folds such a state (or another
registry) back in — counters add, gauges keep the merged-in value,
histograms add bucket-wise.  Sweep workers attach a dump to every
checkpointed point so the driver can reconstruct grid-wide totals that
the process boundary would otherwise drop.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Number = Union[int, float]

#: Default buckets for per-tile latency histograms (cycles).
TILE_LATENCY_BUCKETS: Tuple[int, ...] = (
    250, 500, 1000, 2000, 4000, 8000, 16000, 32000, 64000)

#: Default buckets for DRAM per-interval burst-size histograms (requests).
DRAM_BURST_BUCKETS: Tuple[int, ...] = (
    0, 8, 16, 32, 64, 128, 256, 512, 1024)


class Counter:
    """Monotonically increasing integer metric.

    ``width_bits`` models a hardware statistics buffer of fixed width
    (the paper's Section III-E entries use 16-bit access and 24-bit
    instruction fields): the counter *saturates* at ``2**width - 1``
    instead of growing without bound, mirroring
    :func:`repro.core.temperature.saturate`.  ``None`` (the default) is
    an unbounded software counter.
    """

    __slots__ = ("name", "value", "width_bits", "_max")

    def __init__(self, name: str, width_bits: Optional[int] = None):
        if width_bits is not None and width_bits < 1:
            raise ValueError(f"{name}: width_bits must be >= 1")
        self.name = name
        self.value = 0
        self.width_bits = width_bits
        self._max = (1 << width_bits) - 1 if width_bits else None

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0), saturating at the bit width."""
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up")
        self.value += amount
        if self._max is not None and self.value > self._max:
            self.value = self._max

    @property
    def saturated(self) -> bool:
        """True when a width-limited counter has hit its ceiling."""
        return self._max is not None and self.value >= self._max

    def reset(self) -> None:
        """Zero the counter (the instrument object survives)."""
        self.value = 0


class Gauge:
    """Last-write-wins numeric metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        """Record the current value."""
        self.value = value

    def reset(self) -> None:
        """Zero the gauge (the instrument object survives)."""
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` is a strictly increasing sequence of inclusive upper
    bounds; an observation ``v`` lands in the first bucket with
    ``v <= bound``, and anything above the last bound lands in the
    implicit overflow bucket (``le_inf``).  Bucket counts are plain
    (non-cumulative); ``count``/``total`` aggregate all observations.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total",
                 "min_seen", "max_seen")

    def __init__(self, name: str, buckets: Sequence[Number]):
        bounds = tuple(buckets)
        if not bounds:
            raise ValueError(f"{name}: need at least one bucket bound")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise ValueError(f"{name}: bucket bounds must strictly increase")
        self.name = name
        self.buckets = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total: float = 0.0
        self.min_seen: Optional[float] = None
        self.max_seen: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min_seen is None or value < self.min_seen:
            self.min_seen = value
        if self.max_seen is None or value > self.max_seen:
            self.max_seen = value

    @property
    def mean(self) -> float:
        """Average of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def cumulative_counts(self) -> List[int]:
        """Running totals per bucket (Prometheus ``le`` semantics).

        Entry *i* counts every observation ``<= buckets[i]``; the final
        entry covers the overflow bucket and therefore equals
        ``count``.  The stored :attr:`counts` stay non-cumulative — the
        shape :meth:`merge` needs — so this is computed on demand for
        the exposition layer.
        """
        out, running = [], 0
        for n in self.counts:
            running += n
            out.append(running)
        return out

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's counts in (bucket-wise addition).

        Both histograms must have identical bucket bounds — merging
        observations across different binnings is meaningless and
        raises instead of producing a quietly wrong distribution.
        """
        if tuple(other.buckets) != self.buckets:
            raise ValueError(
                f"{self.name}: cannot merge histograms with different "
                f"buckets ({list(other.buckets)} vs {list(self.buckets)})")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.total += other.total
        if other.min_seen is not None and (self.min_seen is None
                                           or other.min_seen < self.min_seen):
            self.min_seen = other.min_seen
        if other.max_seen is not None and (self.max_seen is None
                                           or other.max_seen > self.max_seen):
            self.max_seen = other.max_seen

    def reset(self) -> None:
        """Zero all counts (bounds and the object survive)."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min_seen = self.max_seen = None


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Dotted-name registry of counters, gauges and histograms."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}

    def counter(self, name: str,
                width_bits: Optional[int] = None) -> Counter:
        """Get or create the counter ``name``.

        ``width_bits`` (applied at creation only) makes it a saturating
        hardware-width counter; asking again for an existing counter
        returns it unchanged regardless of the argument.
        """
        return self._get_or_create(name, Counter,
                                   lambda: Counter(name, width_bits))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str,
                  buckets: Sequence[Number] = TILE_LATENCY_BUCKETS
                  ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed at birth)."""
        return self._get_or_create(name, Histogram,
                                   lambda: Histogram(name, buckets))

    def _get_or_create(self, name, kind, factory) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = factory()
        elif not isinstance(metric, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}")
        return metric

    def get(self, name: str) -> Optional[Metric]:
        """The registered metric, or None."""
        return self._metrics.get(name)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> Dict[str, Number]:
        """Flatten every metric into a ``{dotted.name: number}`` dict.

        Histograms expand into ``<name>.count``, ``<name>.sum``,
        ``<name>.mean``, one ``<name>.le_<bound>`` entry per bucket
        plus ``<name>.le_inf`` for the overflow bucket, and — for the
        Prometheus exposition format, which wants running totals — a
        parallel cumulative set ``<name>.le_cum_<bound>`` /
        ``<name>.le_cum_inf`` (the last equals ``<name>.count``).
        """
        out: Dict[str, Number] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = metric.count
                out[f"{name}.sum"] = metric.total
                out[f"{name}.mean"] = metric.mean
                cumulative = metric.cumulative_counts()
                for bound, n, total in zip(metric.buckets, metric.counts,
                                           cumulative):
                    out[f"{name}.le_{bound}"] = n
                    out[f"{name}.le_cum_{bound}"] = total
                out[f"{name}.le_inf"] = metric.counts[-1]
                out[f"{name}.le_cum_inf"] = cumulative[-1]
            else:
                out[name] = metric.value
        return out

    def reset(self) -> None:
        """Zero every instrument in place.

        Instrument *objects* survive a reset, so hot-path code that
        cached a Counter/Histogram reference keeps updating the live
        instrument after the values are cleared between runs.
        """
        for metric in self._metrics.values():
            metric.reset()

    # -- cross-process aggregation ------------------------------------------

    def dump(self) -> Dict[str, dict]:
        """Typed, JSON-able state of every instrument.

        Unlike :meth:`snapshot` (flat, display-oriented), the dump keeps
        each metric's type and a histogram's full bucket layout, so a
        dump produced in one process can be merged losslessly in
        another.  ``reg.merge(other.dump())`` then
        ``reg.snapshot() == other.snapshot()`` round-trips exactly.
        """
        state: Dict[str, dict] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                entry: Dict[str, object] = {"type": "counter",
                                            "value": metric.value}
                if metric.width_bits is not None:
                    entry["width_bits"] = metric.width_bits
            elif isinstance(metric, Gauge):
                entry = {"type": "gauge", "value": metric.value}
            else:
                entry = {"type": "histogram",
                         "buckets": list(metric.buckets),
                         "counts": list(metric.counts),
                         "total": metric.total,
                         "min": metric.min_seen,
                         "max": metric.max_seen}
            state[name] = entry
        return state

    def merge(self, other: Union["MetricsRegistry", Dict[str, dict]]
              ) -> "MetricsRegistry":
        """Fold another registry (or a :meth:`dump` state) into this one.

        Counters add (width-limited ones keep saturating), gauges take
        the merged-in value (last writer wins, matching
        :meth:`Gauge.set`), histograms add bucket-wise — a bucket-layout
        mismatch raises.  Returns ``self`` so merges chain.
        """
        state = other.dump() if isinstance(other, MetricsRegistry) else other
        for name, entry in state.items():
            kind = entry.get("type")
            if kind == "counter":
                self.counter(name, entry.get("width_bits")).inc(
                    int(entry["value"]))
            elif kind == "gauge":
                self.gauge(name).set(entry["value"])
            elif kind == "histogram":
                incoming = Histogram(name, entry["buckets"])
                incoming.counts = list(entry["counts"])
                incoming.count = sum(incoming.counts)
                incoming.total = entry["total"]
                incoming.min_seen = entry.get("min")
                incoming.max_seen = entry.get("max")
                self.histogram(name, tuple(entry["buckets"])).merge(incoming)
            else:
                raise ValueError(
                    f"metric {name!r}: unknown state type {kind!r}")
        return self

    @classmethod
    def from_state(cls, state: Dict[str, dict]) -> "MetricsRegistry":
        """A fresh registry reconstructed from a :meth:`dump` state."""
        return cls().merge(state)
