"""Shared memory-side of the hierarchy: the L2 cache in front of DRAM.

Every L1 miss in the system — texture L1s of all Raster Units, the Tile
cache of the Tile Fetcher, the Vertex cache of the Geometry Pipeline —
funnels through one :class:`SharedMemory` instance, so cross-Raster-Unit
interference in the L2 and contention in DRAM are real simulated effects,
not analytical approximations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..config import CacheConfig, GPUConfig
from .cache import Cache
from .dram import DRAM
from .traffic import TrafficBreakdown, WRITEBACK


class SharedMemory:
    """The shared L2 + DRAM pair, with per-source traffic accounting."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.l2 = Cache(config.l2_cache, name="L2")
        self.dram = DRAM(config.dram, interval_cycles=config.interval_cycles)
        self.traffic = TrafficBreakdown()

    def access(self, line: int, source: str, write: bool = False) -> str:
        """Issue one L2-level access; returns 'l2' or 'dram'.

        On an L2 miss the request goes to DRAM (tagged with ``source``);
        dirty L2 victims are written back to DRAM as well.
        """
        hit = self.l2.lookup(line, write=write)
        level = "l2"
        if not hit:
            self.dram.request(line, write=False)
            self.traffic.add(source)
            level = "dram"
        for victim in self.l2.drain_writebacks():
            self.dram.request(victim, write=True)
            self.traffic.add(WRITEBACK)
        return level

    def access_batch(self, lines: Sequence[int], source: str,
                     write: bool = False) -> int:
        """Issue a stream of L2-level accesses; returns the DRAM-miss count.

        Equivalent to calling :meth:`access` once per line, with identical
        L2 LRU state, counters, and DRAM request order: each L2 miss
        issues its demand read first and its dirty victim's writeback
        immediately after, exactly as the scalar path interleaves them.
        """
        for victim in self.l2.drain_writebacks():
            # Stale queue from a caller that bypassed drain; flush it
            # first so this batch's ordering matches the scalar path.
            self.dram.request(victim, write=True)
            self.traffic.add(WRITEBACK)
        misses: List[Tuple[int, Optional[int]]] = []
        self.l2.lookup_batch(lines, write=write, miss_record=misses)
        # lookup_batch queued the dirty victims on pending_writebacks; we
        # re-issue them interleaved from the record instead, so drop them.
        self.l2.pending_writebacks.clear()
        if not misses:
            return 0
        # Inlined DRAM.request row-buffer walk with bound locals: demand
        # read, then that miss's dirty-victim writeback — the exact scalar
        # interleaving, with counters applied in bulk afterwards.
        dram = self.dram
        d_open = dram._open_rows
        d_lpr = dram._lines_per_row
        d_bmask = dram._bank_mask
        d_bbits = dram._bank_bits
        d_hit = dram._hit_service
        d_miss = dram._miss_service
        svc_sum = dram._service_cycles_sum
        row_hits = row_misses = 0
        writebacks = 0
        for line, victim in misses:
            row = line // d_lpr
            bank = row & d_bmask
            row_of_bank = row >> d_bbits
            if d_open[bank] == row_of_bank:
                row_hits += 1
                svc_sum += d_hit
            else:
                row_misses += 1
                d_open[bank] = row_of_bank
                svc_sum += d_miss
            if victim is not None:
                writebacks += 1
                row = victim // d_lpr
                bank = row & d_bmask
                row_of_bank = row >> d_bbits
                if d_open[bank] == row_of_bank:
                    row_hits += 1
                    svc_sum += d_hit
                else:
                    row_misses += 1
                    d_open[bank] = row_of_bank
                    svc_sum += d_miss
        n_misses = len(misses)
        requests = n_misses + writebacks
        dram._service_cycles_sum = svc_sum
        dram._service_count += requests
        dram._interval_requests += requests
        stats = dram.stats
        stats.reads += n_misses
        stats.writes += writebacks
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        stats.activations += row_misses
        self.traffic.add(source, n_misses)
        if writebacks:
            self.traffic.add(WRITEBACK, writebacks)
        return n_misses

    def stream_to_dram(self, line: int, source: str,
                       write: bool = True) -> None:
        """Bypass the L2 entirely (streaming Color Buffer flush traffic)."""
        self.dram.request(line, write=write)
        self.traffic.add(source)

    def stream_to_dram_batch(self, lines: Sequence[int], source: str,
                             write: bool = True) -> None:
        """Bypass the L2 for a whole line stream (tile Color Buffer flush)."""
        n = len(lines)
        if not n:
            return
        # Inlined DRAM.request row-buffer walk (see access_batch).
        dram = self.dram
        d_open = dram._open_rows
        d_lpr = dram._lines_per_row
        d_bmask = dram._bank_mask
        d_bbits = dram._bank_bits
        d_hit = dram._hit_service
        d_miss = dram._miss_service
        svc_sum = dram._service_cycles_sum
        row_hits = row_misses = 0
        for line in lines:
            row = line // d_lpr
            bank = row & d_bmask
            row_of_bank = row >> d_bbits
            if d_open[bank] == row_of_bank:
                row_hits += 1
                svc_sum += d_hit
            else:
                row_misses += 1
                d_open[bank] = row_of_bank
                svc_sum += d_miss
        dram._service_cycles_sum = svc_sum
        dram._service_count += n
        dram._interval_requests += n
        stats = dram.stats
        if write:
            stats.writes += n
        else:
            stats.reads += n
        stats.row_hits += row_hits
        stats.row_misses += row_misses
        stats.activations += row_misses
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

    Table I gives each shader core a private 32 KB texture cache; the
    model aggregates the cores of a Raster Unit into one cache of
    ``num_cores x 32 KB`` (same total capacity, same ways-per-core).  All
    cores of a unit shade fragments of the *same* tile, so their private
    caches hold near-identical content; aggregating preserves capacity and
    the cross-Raster-Unit replication/locality effects the paper studies
    (Figure 13) while keeping the simulation tractable; see DESIGN.md.
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
