"""Shared memory-side of the hierarchy: the L2 cache in front of DRAM.

Every L1 miss in the system — texture L1s of all Raster Units, the Tile
cache of the Tile Fetcher, the Vertex cache of the Geometry Pipeline —
funnels through one :class:`SharedMemory` instance, so cross-Raster-Unit
interference in the L2 and contention in DRAM are real simulated effects,
not analytical approximations.
"""

from __future__ import annotations

from typing import Sequence

from ..config import CacheConfig, GPUConfig
from .cache import Cache
from .dram import DRAM
from .traffic import TrafficBreakdown


class SharedMemory:
    """The shared L2 + DRAM pair, with per-source traffic accounting."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.l2 = Cache(config.l2_cache, name="L2")
        self.dram = DRAM(config.dram, interval_cycles=config.interval_cycles)
        self.traffic = TrafficBreakdown()

    def access(self, line: int, source: str) -> str:
        """Issue one L2-level read; returns 'l2' or 'dram'.

        On an L2 miss the request goes to DRAM, tagged with ``source``.
        """
        if self.l2.lookup(line):
            return "l2"
        self.dram.request(line)
        self.traffic.add(source)
        return "dram"

    def access_batch(self, lines: Sequence[int], source: str) -> int:
        """Issue a stream of L2-level reads; returns the DRAM-miss count.

        Equivalent to calling :meth:`access` once per line, with identical
        L2 LRU state, counters, and DRAM request order: the L2 misses go
        to DRAM in stream order, in one call.
        """
        missed = self.l2.lookup_batch(lines)
        if missed:
            self.dram.request_batch([lines[pos] for pos in missed])
            self.traffic.add(source, len(missed))
        return len(missed)

    def stream_to_dram(self, line: int, source: str,
                       write: bool = True) -> None:
        """Bypass the L2 entirely (streaming Color Buffer flush traffic)."""
        self.dram.request(line, write=write)
        self.traffic.add(source)

    def stream_to_dram_batch(self, lines: Sequence[int], source: str,
                             write: bool = True) -> None:
        """Bypass the L2 for a whole line stream (tile Color Buffer flush).

        Equivalent to calling :meth:`stream_to_dram` once per line.
        """
        n = len(lines)
        if n:
            self.dram.request_batch(lines, write=write)
            self.traffic.add(source, n)

    def publish_metrics(self, registry) -> None:
        """Mirror the per-source traffic breakdown into a metrics registry.

        Gauges under ``traffic.*`` (absolute running totals, like
        :meth:`repro.memory.cache.CacheStats.publish`); purely
        observational.
        """
        for source, count in self.traffic.counts.items():
            registry.gauge(f"traffic.{source}").set(count)
        registry.gauge("traffic.total").set(self.traffic.total)
        registry.gauge("traffic.raster_total").set(
            self.traffic.raster_total())

    def access_latency(self, level: str) -> float:
        """Cycles a demand access observes when served at ``level``."""
        if level == "l2":
            return float(self.config.l2_cache.latency_cycles)
        if level == "dram":
            return (self.config.l2_cache.latency_cycles
                    + self.dram.loaded_latency)
        raise ValueError(f"unknown level {level!r}")

    def end_interval(self) -> None:
        """Close the DRAM's current accounting interval."""
        self.dram.end_interval()

    def reset(self) -> None:
        """Clear the L2, the DRAM and the traffic breakdown."""
        self.l2.reset()
        self.dram.reset()
        self.traffic = TrafficBreakdown()


def make_texture_l1(config: GPUConfig, name: str = "TexL1") -> Cache:
    """The texture L1 of one Raster Unit.

    Table I gives each shader core a private 32 KB texture cache.  The
    model gives a unit one cache with the summed capacity and ways of
    its cores: ``num_cores x 32 KB``, which is 256 KB for the 8-core
    baseline unit and 128 KB for each 4-core PTR or LIBRA unit.  That
    capacity counts every core's lines as distinct, although the cores
    of a unit shade the same tile.  One 32 KB cache per unit instead
    brings the baseline, PTR and LIBRA hit ratios within 0.3 points of
    each other and moves DRAM accesses by at most 0.4% (CCS, GrT, SuS
    and HoW at 960x512, 4 frames).  So the summed capacity is why PTR
    and LIBRA units, with half the baseline unit's L1, sit below the
    baseline on hit ratio (Figure 13), and it barely moves DRAM traffic.
    Replication across Raster Units is simulated either way; see
    DESIGN.md.
    """
    per_core = config.texture_cache
    aggregated = CacheConfig(
        size_bytes=per_core.size_bytes * config.raster_unit.num_cores,
        ways=per_core.ways * config.raster_unit.num_cores,
        line_bytes=per_core.line_bytes,
        latency_cycles=per_core.latency_cycles,
    )
    return Cache(aggregated, name=name)


def make_tile_cache(config: GPUConfig) -> Cache:
    """The Tile cache used by the Tile Fetcher for Parameter Buffer reads."""
    return Cache(config.tile_cache, name="TileCache")


def make_vertex_cache(config: GPUConfig) -> Cache:
    """The Vertex cache used by the Geometry Pipeline's Vertex Fetcher."""
    return Cache(config.vertex_cache, name="VertexCache")
