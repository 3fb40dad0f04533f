"""Read-only set-associative cache simulator with LRU replacement.

Every texture, tile, vertex and L2 lookup in the timing simulator goes
through an instance of :class:`Cache`.  In the modelled tile-based GPU
every cache serves reads only: the Color Buffer leaves tile memory at
flush straight to DRAM, so no line is ever dirty and an eviction just
drops the victim.  Experiment runs push hundreds of thousands of
accesses per frame through these caches, so the implementation is built
for speed:

* each set is a plain ``dict`` mapping line -> None in LRU-to-MRU
  insertion order (dicts preserve insertion order; a "touch" is an O(1)
  delete + reinsert, the LRU victim is the dict's first key — no
  O(ways) ``list.remove`` scans);
* :meth:`Cache.lookup_batch` is the one LRU walk: it takes a whole line
  stream in one call, with locals bound once and the statistics updated
  in bulk, and returns the stream positions that missed.
  :meth:`Cache.lookup` is a batch of one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..config import CacheConfig


@dataclass
class CacheStats:
    """Counters exposed by every cache instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Extra hits accounted analytically (see Cache.record_repeat_hits).
    repeat_hits: int = 0

    @property
    def hit_ratio(self) -> float:
        """Line-grain hit ratio (repeat hits excluded — see Cache notes)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def hit_ratio_with_repeats(self) -> float:
        """Hit ratio counting the analytically-accounted repeat hits too."""
        total = self.accesses + self.repeat_hits
        if total == 0:
            return 0.0
        return (self.hits + self.repeat_hits) / total

    @property
    def miss_ratio(self) -> float:
        """1 - hit_ratio."""
        return 1.0 - self.hit_ratio

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.repeat_hits = 0

    def publish(self, registry, prefix: str) -> None:
        """Mirror the counters into a telemetry metrics registry.

        Gauges under ``<prefix>.*`` (gauges, not counters: these are
        absolute running totals, and publishing is an idempotent
        observation that may happen once per frame or once per run).
        """
        registry.gauge(f"{prefix}.accesses").set(self.accesses)
        registry.gauge(f"{prefix}.hits").set(self.hits)
        registry.gauge(f"{prefix}.misses").set(self.misses)
        registry.gauge(f"{prefix}.evictions").set(self.evictions)
        registry.gauge(f"{prefix}.hit_ratio").set(self.hit_ratio)

    def merged_with(self, other: "CacheStats") -> "CacheStats":
        """Element-wise sum of two counter sets."""
        return CacheStats(
            accesses=self.accesses + other.accesses,
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
            repeat_hits=self.repeat_hits + other.repeat_hits,
        )


class Cache:
    """One read-only set-associative LRU cache level.

    Addresses are *line* addresses (byte address // line size); the caller
    is responsible for that conversion, which keeps the hot path free of
    divisions.
    """

    def __init__(self, config: CacheConfig, name: str = "cache"):
        config.validate()
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        # Per-set dict of line -> None, least-recently-used first
        # (insertion order); values are unused.  Sets are materialized
        # lazily on first touch: an L2 has thousands of sets and most
        # short runs touch a fraction of them, so allocating them all up
        # front dominates construction cost.  Iteration over sets (for
        # resident_lines) must always go through sorted indices so the
        # observable order matches an eagerly-allocated list.
        self._sets: Dict[int, Dict[int, None]] = defaultdict(dict)
        self.stats = CacheStats()

    def lookup(self, line: int) -> bool:
        """Access one line; returns True on hit (a miss allocates it)."""
        return not self.lookup_batch((line,))

    def lookup_batch(self, lines: Sequence[int]) -> List[int]:
        """Access a line stream in order; returns the positions that missed.

        Each line is looked up in stream order: a hit moves it to the
        MRU end of its set, a miss allocates it there and evicts the
        set's LRU line when the set is full.  The returned positions
        index ``lines`` and ascend; the caller sends those lines on to
        the next level.
        """
        sets = self._sets
        mask = self._set_mask
        nways = self.ways
        missed: List[int] = []
        append = missed.append
        evictions = 0
        for pos, line in enumerate(lines):
            ways = sets[line & mask]
            # Stored values are always None, so a pop with a sentinel
            # default folds the membership test + delete into one hash
            # lookup; None back means hit (and the line was removed).
            if ways.pop(line, 0) is None:
                ways[line] = None
                continue
            if len(ways) >= nways:
                for evicted in ways:
                    break
                del ways[evicted]
                evictions += 1
            ways[line] = None
            append(pos)
        n = len(lines)
        stats = self.stats
        stats.accesses += n
        stats.hits += n - len(missed)
        stats.misses += len(missed)
        stats.evictions += evictions
        return missed

    def record_repeat_hits(self, count: int) -> None:
        """Account ``count`` guaranteed-hit accesses analytically.

        The timing model streams each distinct line of a tile's footprint
        through the cache once; the remaining per-fragment fetches to the
        same lines are temporal re-hits within a tile-sized working set and
        are charged here without simulating each one individually.
        """
        if count < 0:
            raise ValueError("repeat hit count must be non-negative")
        self.stats.repeat_hits += count

    def contains(self, line: int) -> bool:
        """True when the line is resident."""
        ways = self._sets.get(line & self._set_mask)
        return ways is not None and line in ways

    def resident_lines(self) -> List[int]:
        """All resident line addresses, LRU-to-MRU within each set."""
        sets = self._sets
        out: List[int] = []
        for index in sorted(sets):
            out.extend(sets[index])
        return out

    def reset(self) -> None:
        """Invalidate contents and zero the statistics."""
        self._sets.clear()
        self.stats.reset()


def replication(caches: List[Cache]) -> Tuple[int, int]:
    """Measure block replication across sibling caches.

    Returns ``(replicated_lines, total_lines)`` where a line counts as
    replicated once for each extra copy beyond the first.  The paper uses
    this to show LIBRA reduces texture-block replication across Raster
    Units by ~32.5% versus PTR alone (Section V-A.3).
    """
    seen: Dict[int, int] = {}
    total = 0
    for cache in caches:
        for line in cache.resident_lines():
            seen[line] = seen.get(line, 0) + 1
            total += 1
    replicated = sum(count - 1 for count in seen.values() if count > 1)
    return replicated, total
