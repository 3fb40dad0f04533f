"""Timing model of one Raster Unit.

A Raster Unit executes tile workloads one after another (primitives of a
tile must stay on one unit for program order, Section III-A).  Within an
interval it advances by whichever budget runs out first:

* **compute** — the core cluster retires instructions at its aggregate
  rate;
* **memory** — DRAM-level misses are bounded by the MSHR pool and the
  *current loaded DRAM latency* (congestion directly throttles progress,
  which is the coupling LIBRA's scheduler exploits).

Texture accesses flow through the unit's private L1 texture cache into the
shared L2/DRAM; Parameter Buffer reads go through the shared Tile cache at
tile start; Frame Buffer writes stream straight to DRAM at tile flush.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..config import GPUConfig
from ..memory.cache import Cache
from ..memory.hierarchy import SharedMemory, make_texture_l1
from ..memory.traffic import FRAMEBUFFER, PARAMETER, TEXTURE
from ..telemetry import (HUB, SimClock, TILE_LATENCY_BUCKETS, TileDispatch,
                         TileRetire)
from . import tilestream
from .shader_core import CoreCluster
from .workload import TileCoord, TileWorkload, line_list

_EPS = 1e-9

#: Callable the scheduler-side dispenser exposes to hand out work.
WorkSource = Callable[[int], Optional[TileWorkload]]


@dataclass
class RasterUnitStats:
    """Per-frame counters of one Raster Unit."""

    tiles_completed: int = 0
    instructions: int = 0
    fragments: int = 0
    texture_accesses: int = 0
    texture_latency_sum: float = 0.0
    dram_texture_misses: int = 0
    memory_stall_intervals: int = 0
    busy_intervals: int = 0
    per_tile_dram: Dict[TileCoord, int] = field(default_factory=dict)
    per_tile_instructions: Dict[TileCoord, int] = field(default_factory=dict)

    @property
    def mean_texture_latency(self) -> float:
        """Average texture access latency in cycles."""
        if self.texture_accesses == 0:
            return 0.0
        return self.texture_latency_sum / self.texture_accesses


class TimingRasterUnit:
    """One Raster Unit of the timing simulator.

    With ``batched`` (the default) a tile's whole texture-L1 walk is
    applied when the tile is dispatched (:meth:`_plan_tile`), and each
    interval walks only the planned L1 misses through the shared L2 and
    DRAM (:meth:`_stream_planned`).  Every counter and cache state is
    bit-identical to the scalar per-line path (``batched=False``, kept
    as the golden reference for the parity suite).
    """

    def __init__(self, index: int, config: GPUConfig, shared: SharedMemory,
                 tile_cache: Cache, ideal_memory: bool = False,
                 batched: bool = True, clock: Optional[SimClock] = None):
        self.index = index
        self.config = config
        self.shared = shared
        self.tile_cache = tile_cache
        self.ideal_memory = ideal_memory
        self.batched = batched
        #: Simulated-cycle clock, shared with the frame driver; only read
        #: on telemetry-guarded paths (tile dispatch/retire timestamps).
        self.clock = clock if clock is not None else SimClock()
        self._tile_start_ts = 0
        self._m_tiles = None
        self._m_tile_latency = None
        self.cluster = CoreCluster(config.raster_unit, config.shader_core)
        self.l1 = make_texture_l1(config, name=f"TexL1[{index}]")
        self._l1_latency = float(config.texture_cache.latency_cycles)
        self._l2_latency = float(config.l2_cache.latency_cycles)
        self._compressor = None
        if config.fb_compression_ratio is not None:
            from ..memory.compression import FrameBufferCompressor
            self._compressor = FrameBufferCompressor(
                fallback_ratio=config.fb_compression_ratio)
        self._current: Optional[TileWorkload] = None
        #: The current tile's texture stream as a list of Python ints.
        self._lines: List[int] = []
        self._cycles_done = 0.0
        self._cycles_needed = 0.0
        self._line_idx = 0
        self._cycles_per_line = 0.0
        self._tile_dram = 0
        self._mshrs_total = self.cluster.mshrs_total
        #: The batched tile's plan (see _plan_tile): its cadence and
        #: the stream positions and lines that miss the L1.
        self._plan = None
        self._plan_ptr = 0
        self.stats = RasterUnitStats()
        self._bind_hot()

    def _bind_hot(self) -> None:
        """Snapshot the stable L2 references into one tuple.

        ``_stream_planned`` unpacks this in a single statement instead
        of an attribute load per field per call.  Everything here keeps
        its identity for the lifetime of a run (caches clear in place,
        the DRAM is never reset mid-run); the tuple is refreshed each
        ``begin_frame`` anyway as cheap insurance.
        """
        l2 = self.shared.l2
        self._hot = (l2._sets, l2._set_mask, l2.ways, l2.stats,
                     self.shared.dram, self.shared.traffic)

    # -- frame lifecycle ---------------------------------------------------
    def begin_frame(self) -> None:
        """Reset per-frame progress (cache contents persist across frames)."""
        self._current = None
        self._cycles_done = 0.0
        self._cycles_needed = 0.0
        self._line_idx = 0
        self._tile_dram = 0
        self._plan = None
        self.stats = RasterUnitStats()
        self._bind_hot()
        if HUB.enabled:
            metrics = HUB.metrics
            self._m_tiles = metrics.counter(
                f"ru{self.index}.tiles_retired")
            self._m_tile_latency = metrics.histogram(
                f"ru{self.index}.tile_latency_cycles",
                TILE_LATENCY_BUCKETS)

    @property
    def busy(self) -> bool:
        """True while a tile is in flight on this unit."""
        return self._current is not None

    # -- interval execution -------------------------------------------------
    def step(self, cycles: int, fetch_next: WorkSource) -> bool:
        """Advance up to ``cycles`` cycles; returns True if any work ran."""
        cycle_budget = float(cycles)
        if self.ideal_memory:
            miss_budget = 1 << 62
        else:
            memory_latency = (self._l1_latency + self._l2_latency
                              + self.shared.dram.loaded_latency)
            # Inlined CoreCluster.miss_budget (Little's law on the MSHR
            # pool); latencies are validated positive at construction.
            miss_budget = int(self._mshrs_total * cycles / memory_latency)
            if miss_budget < 1:
                miss_budget = 1
        worked = False

        while cycle_budget > _EPS:
            if self._current is None:
                workload = fetch_next(self.index)
                if workload is None:
                    break
                cycle_budget -= self._begin_tile(workload)
                worked = True
                continue
            worked = True
            lines = self._lines
            n_lines = len(lines)
            if (self._line_idx < n_lines
                    and self._cycles_done + _EPS
                    >= self._line_idx * self._cycles_per_line):
                if self.batched:
                    cycle_budget, dram_misses, stalled = \
                        self._stream_planned(cycle_budget, miss_budget)
                    miss_budget -= dram_misses
                    if stalled:
                        # Memory-limited: the MSHR pool cannot absorb
                        # more misses this interval; the unit stalls at
                        # the access that exhausted the budget.
                        self.stats.memory_stall_intervals += 1
                        cycle_budget = 0.0
                    continue
                # The next texture access is due now.
                level = self._access_texture(lines[self._line_idx])
                self._line_idx += 1
                if level == "dram":
                    miss_budget -= 1
                    if miss_budget <= 0:
                        # Memory-limited: the MSHR pool cannot absorb more
                        # misses this interval; the unit stalls.
                        self.stats.memory_stall_intervals += 1
                        cycle_budget = 0.0
                continue
            if self._line_idx < n_lines:
                target = self._line_idx * self._cycles_per_line
            else:
                target = self._cycles_needed
            chunk = min(target - self._cycles_done, cycle_budget)
            if chunk > 0.0:
                self._cycles_done += chunk
                cycle_budget -= chunk
            if (self._cycles_done + _EPS >= self._cycles_needed
                    and self._line_idx >= n_lines):
                cycle_budget -= self._finish_tile()

        if worked:
            self.stats.busy_intervals += 1
        return worked

    # -- tile lifecycle -----------------------------------------------------
    def _begin_tile(self, workload: TileWorkload) -> float:
        """Start a tile: Parameter Buffer fetch + fixed setup cost."""
        if HUB.enabled:
            self._tile_start_ts = self.clock.cycles
            HUB.emit(TileDispatch(ru=self.index, tile=workload.tile,
                                  ts=self._tile_start_ts))
        self._current = workload
        self._cycles_done = 0.0
        self._cycles_needed = self.cluster.tile_compute_cycles(workload)
        self._line_idx = 0
        self._tile_dram = 0
        self._lines = lines = line_list(workload.texture_lines)
        n_lines = len(lines)
        self._cycles_per_line = (self._cycles_needed / n_lines
                                 if n_lines else 0.0)
        self._plan = None
        if self.batched and n_lines:
            self._plan_tile(workload, lines)
        if not self.ideal_memory:
            pb_lines = line_list(workload.pb_lines)
            if self.batched:
                missed = self.tile_cache.lookup_batch(pb_lines)
                if missed:
                    self._tile_dram += self.shared.access_batch(
                        [pb_lines[pos] for pos in missed], PARAMETER)
            else:
                for line in pb_lines:
                    if not self.tile_cache.lookup(line):
                        if self.shared.access(line, PARAMETER) == "dram":
                            self._tile_dram += 1
        return float(self.config.raster_unit.tile_setup_cycles)

    def _finish_tile(self) -> float:
        """Flush the Color Buffer; record per-tile statistics."""
        w = self._current
        assert w is not None
        if not self.ideal_memory and len(w.fb_lines):
            fb_lines = line_list(w.fb_lines)
            if self._compressor is not None:
                fb_lines = self._compressor.compress_flush(fb_lines)
            if self.batched:
                self.shared.stream_to_dram_batch(fb_lines, FRAMEBUFFER)
            else:
                for line in fb_lines:
                    self.shared.stream_to_dram(line, FRAMEBUFFER)
            self._tile_dram += len(fb_lines)
        # Per-fragment fetches beyond the line footprint are filtered by
        # quad coalescing before the L1; account their energy only (they
        # do not contribute to the L1 hit ratio or latency statistics).
        repeats = w.repeat_fetches
        if repeats:
            self.l1.record_repeat_hits(repeats)
        stats = self.stats
        stats.tiles_completed += 1
        stats.instructions += w.instructions
        stats.fragments += w.fragments
        stats.per_tile_dram[w.tile] = self._tile_dram
        stats.per_tile_instructions[w.tile] = w.instructions
        if HUB.enabled:
            now = self.clock.cycles
            HUB.emit(TileRetire(ru=self.index, tile=w.tile, ts=now,
                                start_ts=self._tile_start_ts,
                                dram_lines=self._tile_dram,
                                instructions=w.instructions))
            if self._m_tiles is not None:
                self._m_tiles.inc()
                self._m_tile_latency.observe(now - self._tile_start_ts)
        self._current = None
        self._plan = None
        return float(self.config.raster_unit.tile_flush_cycles)

    # -- planned tile path -----------------------------------------------------
    def _plan_tile(self, workload: TileWorkload, lines: List[int]) -> None:
        """Apply the tile's whole texture-L1 walk and build its plan.

        The L1 is private to this unit, a unit runs one tile at a time,
        tiles never span frames, and the L1's statistics are only
        observed at frame end, so the tile's complete L1 effect (hits,
        misses, evictions, final LRU state) can be applied at dispatch,
        in one :meth:`Cache.lookup_batch` over the stream.  What remains
        per interval is the plan: the stream positions that miss and
        their lines (they go on to the L2 and DRAM, which other units
        interleave with, so they stay per interval) and the memoized
        compute cadence.  Under ``ideal_memory`` every access hits the
        L1, which the plan models as no misses and no L1 walk.
        """
        n_lines = len(lines)
        mpos = [] if self.ideal_memory else self.l1.lookup_batch(lines)
        mlines = [lines[pos] for pos in mpos]
        misses = len(mpos)
        stats = self.stats
        stats.texture_accesses += n_lines
        stats.texture_latency_sum += self._l1_latency * (n_lines - misses)
        self._plan = (tilestream.cadence(workload, self._cycles_per_line),
                      mpos, mlines, misses)
        self._plan_ptr = 0

    def _stream_planned(self, cycle_budget: float, miss_budget: int):
        """Consume this interval's slice of the planned tile stream.

        The memoized cadence yields how many lines the budget covers;
        only the planned L1-miss positions inside that slice walk the
        shared L2 (inlined, in stream order, with statistics applied in
        bulk afterwards), and the slice's L2 misses go to DRAM in stream
        order in one :meth:`DRAM.request_batch`.  Stops after the access
        whose DRAM-level miss exhausts ``miss_budget``; the caller
        charges the stall.  Advances ``self._line_idx`` /
        ``self._cycles_done`` and returns ``(cycle_budget, dram_misses,
        stalled)``.

        This is the one LRU walk kept outside :meth:`Cache.lookup_batch`.
        A slice holds a few misses, and the walk must stop at the one
        that exhausts the MSHR budget.  Prototypes that made one
        ``lookup_batch`` call per slice, through
        :meth:`SharedMemory.access_batch` or with a miss limit added,
        ran the shader-bound ``sim-compute`` benchmark workload 8–15%
        slower than this inlined walk.
        """
        cad, mpos, mlines, nmiss = self._plan
        index = self._line_idx
        k, done_end, budget_end = cad.consume(index, self._cycles_done,
                                              cycle_budget)
        end = index + k
        p = self._plan_ptr
        if p >= nmiss or mpos[p] >= end:
            # Pure-hit slice: no shared-state traffic, nothing to account
            # (L1 stats and latency were applied at plan time).
            self._line_idx = end
            self._cycles_done = done_end
            return budget_end, 0, False
        dram_misses = 0
        stalled = False
        l2_sets, l2_mask, l2_nways, l2_stats, dram, traffic = self._hot
        l2_lat = self._l1_latency + self._l2_latency
        dram_lat = l2_lat + dram.loaded_latency
        p0 = p
        l2_hits = l2_evictions = 0
        dram_lines: List[int] = []
        while p < nmiss:
            pos = mpos[p]
            if pos >= end:
                break
            line = mlines[p]
            p += 1
            ways = l2_sets[line & l2_mask]
            if ways.pop(line, 0) is None:
                ways[line] = None
                l2_hits += 1
                continue
            if len(ways) >= l2_nways:
                for victim in ways:
                    break
                del ways[victim]
                l2_evictions += 1
            ways[line] = None
            dram_lines.append(line)
            dram_misses += 1
            if dram_misses >= miss_budget:
                # The access that exhausted the MSHR budget is the
                # last one performed; the tile resumes right after
                # it next interval, with the scalar path's exact
                # ``done`` value at that position.
                stalled = True
                end = pos + 1
                done_end = cad.done_after(pos)
                break
        self._plan_ptr = p
        slice_misses = p - p0
        l2_stats.accesses += slice_misses
        l2_stats.hits += l2_hits
        l2_stats.misses += slice_misses - l2_hits
        l2_stats.evictions += l2_evictions
        if dram_misses:
            dram.request_batch(dram_lines)
            traffic.add(TEXTURE, dram_misses)
        unit_stats = self.stats
        unit_stats.texture_latency_sum += (l2_lat * l2_hits
                                           + dram_lat * dram_misses)
        unit_stats.dram_texture_misses += dram_misses
        self._tile_dram += dram_misses
        self._line_idx = end
        self._cycles_done = done_end
        if stalled:
            return 0.0, dram_misses, True
        return budget_end, dram_misses, False

    # -- memory path ----------------------------------------------------------
    def _access_texture(self, line: int) -> str:
        """One texture line access through L1 -> L2 -> DRAM."""
        stats = self.stats
        stats.texture_accesses += 1
        if self.ideal_memory:
            stats.texture_latency_sum += self._l1_latency
            return "l1"
        if self.l1.lookup(line):
            stats.texture_latency_sum += self._l1_latency
            return "l1"
        level = self.shared.access(line, TEXTURE)
        latency = self._l1_latency + self.shared.access_latency(level)
        stats.texture_latency_sum += latency
        if level == "dram":
            stats.dram_texture_misses += 1
            self._tile_dram += 1
        return level
