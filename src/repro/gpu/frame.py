"""Frame-level driver: Geometry phase + scheduling + raster phase + stats.

One :class:`FrameDriver` owns the persistent machine state — caches keep
their contents across frames, the DRAM keeps its open rows, the scheduler
keeps its history — and turns one :class:`FrameTrace` into one
:class:`FrameResult` per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..config import GPUConfig
from ..core.scheduler import FrameFeedback, TileScheduler
from ..energy.model import EnergyCounts, EnergyModel, EnergyReport
from ..memory.cache import CacheStats
from ..memory.hierarchy import (SharedMemory, make_tile_cache,
                                make_vertex_cache)
from ..memory.traffic import GEOMETRY
from ..telemetry import (HUB, CacheDelta, PhaseBegin, PhaseEnd,
                         SchedulerDecision, SimClock)
from .raster_unit import TimingRasterUnit
from .timing import RasterPhaseResult, TimingSimulator
from .workload import FrameTrace, line_list

TileCoord = Tuple[int, int]


@dataclass
class FrameResult:
    """Everything measured while rendering one frame."""

    frame_index: int
    geometry_cycles: int
    raster_cycles: int
    order: str
    supertile_size: int
    texture_hit_ratio: float
    mean_texture_latency: float
    #: DRAM accesses from the Raster Pipeline (geometry excluded).
    raster_dram_accesses: int
    #: DRAM accesses per tile (the temperature table's raw input).
    per_tile_dram: Dict[TileCoord, int] = field(default_factory=dict)
    per_tile_instructions: Dict[TileCoord, int] = field(default_factory=dict)
    #: DRAM requests per interval during this frame's raster phase.
    dram_interval_requests: List[int] = field(default_factory=list)
    energy: EnergyReport = None
    energy_counts: EnergyCounts = None
    tiles_completed: int = 0
    texture_l1_stats: CacheStats = None

    @property
    def total_cycles(self) -> int:
        """Geometry plus raster cycles of the frame."""
        return self.geometry_cycles + self.raster_cycles


class FrameDriver:
    """Persistent simulation state plus the per-frame execution recipe."""

    def __init__(self, config: GPUConfig, scheduler: TileScheduler,
                 energy_model: EnergyModel = None,
                 batched: bool = True):
        config.validate()
        self.config = config
        self.scheduler = scheduler
        self.batched = batched
        self.energy_model = energy_model or EnergyModel()
        self.shared = SharedMemory(config)
        self.tile_cache = make_tile_cache(config)
        self.vertex_cache = make_vertex_cache(config)
        #: One simulated-cycle clock for the whole run: geometry phases
        #: advance it by their cycle count, the raster phase once per
        #: interval, so telemetry timestamps are monotonic across frames.
        self.clock = SimClock()
        self.raster_units = [
            TimingRasterUnit(i, config, self.shared, self.tile_cache,
                             batched=batched, clock=self.clock)
            for i in range(config.num_raster_units)]
        self.timing = TimingSimulator(config, self.shared,
                                      self.raster_units, self.tile_cache,
                                      clock=self.clock)
        self.scheduler.configure(config.num_raster_units)
        self._frame_index = 0

    # -- per-frame execution ------------------------------------------------
    def run_frame(self, trace: FrameTrace) -> FrameResult:
        """Render one traced frame; returns its FrameResult."""
        telemetry = HUB.enabled
        frame = self._frame_index
        before = self._snapshot()
        if telemetry:
            HUB.emit(PhaseBegin(name="geometry", ts=self.clock.cycles,
                                frame=frame))
        self._run_geometry_phase(trace)
        self.clock.cycles += trace.geometry_cycles
        if telemetry:
            HUB.emit(PhaseEnd(name="geometry", ts=self.clock.cycles,
                              frame=frame))
        decision = self.scheduler.begin_frame(trace)
        if telemetry:
            HUB.emit(SchedulerDecision(
                frame=frame, order=decision.order,
                supertile_size=decision.supertile_size,
                batches=decision.dispenser.remaining(),
                ts=self.clock.cycles))
            HUB.emit(PhaseBegin(name="raster", ts=self.clock.cycles,
                                frame=frame))
        phase = self.timing.run_raster_phase(trace, decision.dispenser)
        if telemetry:
            HUB.emit(PhaseEnd(name="raster", ts=self.clock.cycles,
                              frame=frame))
        result = self._build_result(trace, decision, phase, before)
        if telemetry:
            self._publish_frame_telemetry(result, before)
        self.scheduler.end_frame(FrameFeedback(
            frame_index=result.frame_index,
            raster_cycles=result.raster_cycles,
            texture_hit_ratio=result.texture_hit_ratio,
            per_tile_dram=result.per_tile_dram,
            per_tile_instructions=result.per_tile_instructions,
        ))
        self._frame_index += 1
        return result

    def _run_geometry_phase(self, trace: FrameTrace) -> None:
        """Issue the Geometry phase's memory traffic, spread over time.

        Vertex fetches run through the Vertex cache into the shared L2 and
        DRAM; the stream is chunked over the phase's intervals so it does
        not appear as a single burst in the DRAM utilization series.

        The phase always closes exactly ``geometry_cycles //
        interval_cycles`` (floored to at least 1) DRAM intervals — the
        line stream is spread over that fixed count rather than deriving
        the count from a chunk size, so the interval series stays
        deterministic even when the chunking does not divide evenly.
        """
        if self.config.ideal_memory:
            return
        lines = line_list(trace.vertex_lines)
        interval = self.config.interval_cycles
        num_intervals = max(trace.geometry_cycles // interval, 1)
        n = len(lines)
        for k in range(num_intervals):
            start = k * n // num_intervals
            stop = (k + 1) * n // num_intervals
            if start < stop:
                chunk = lines[start:stop]
                if self.batched:
                    missed = self.vertex_cache.lookup_batch(chunk)
                    if missed:
                        self.shared.access_batch(
                            [chunk[pos] for pos in missed], GEOMETRY)
                else:
                    for line in chunk:
                        if not self.vertex_cache.lookup(line):
                            self.shared.access(line, GEOMETRY)
            self.shared.end_interval()

    # -- stats plumbing -----------------------------------------------------
    def _snapshot(self) -> dict:
        dram = self.shared.dram.stats
        return {
            "l2": self._copy_stats(self.shared.l2.stats),
            "tile": self._copy_stats(self.tile_cache.stats),
            "vertex": self._copy_stats(self.vertex_cache.stats),
            "dram_reads": dram.reads,
            "dram_writes": dram.writes,
            "dram_activations": dram.activations,
            "traffic_geometry": self.shared.traffic.counts[GEOMETRY],
            "dram_total": dram.reads + dram.writes,
        }

    @staticmethod
    def _copy_stats(stats: CacheStats) -> CacheStats:
        return CacheStats(accesses=stats.accesses, hits=stats.hits,
                          misses=stats.misses, evictions=stats.evictions,
                          repeat_hits=stats.repeat_hits)

    def _build_result(self, trace: FrameTrace, decision, phase:
                      RasterPhaseResult, before: dict) -> FrameResult:
        dram = self.shared.dram.stats
        dram_reads = dram.reads - before["dram_reads"]
        dram_writes = dram.writes - before["dram_writes"]
        dram_activations = dram.activations - before["dram_activations"]
        geometry_dram = (self.shared.traffic.counts[GEOMETRY]
                         - before["traffic_geometry"])

        tex_hits = tex_accesses = 0
        l1_accesses = 0
        merged_tex_stats = CacheStats()
        for unit in self.raster_units:
            stats = unit.l1.stats
            # Quad-level hit ratio: one texture access per quad per map;
            # accesses beyond a tile's distinct-line footprint are
            # guaranteed re-hits (tracked as repeat_hits).  This is the
            # metric LIBRA's 80%-threshold decision consumes.
            tex_hits += stats.hits + stats.repeat_hits
            tex_accesses += stats.accesses + stats.repeat_hits
            l1_accesses += stats.accesses + stats.repeat_hits
            merged_tex_stats = merged_tex_stats.merged_with(stats)
            # Texture L1 stats are reset per frame so the hit ratio is the
            # *frame's* hit ratio (cache contents persist, counters do not).
            unit.l1.stats.reset()
        hit_ratio = tex_hits / tex_accesses if tex_accesses else 1.0

        l2_delta = (self.shared.l2.stats.accesses - before["l2"].accesses)
        tile_delta = (self.tile_cache.stats.accesses
                      - before["tile"].accesses)
        vertex_delta = (self.vertex_cache.stats.accesses
                        - before["vertex"].accesses)

        core_instructions = (sum(s.instructions for s in phase.ru_stats)
                             + trace.vertex_instructions)
        counts = EnergyCounts(
            core_instructions=core_instructions,
            l1_accesses=l1_accesses + tile_delta + vertex_delta,
            l2_accesses=l2_delta,
            dram_reads=dram_reads,
            dram_writes=dram_writes,
            dram_activations=dram_activations,
            cycles=trace.geometry_cycles + phase.cycles,
        )
        energy = self.energy_model.evaluate(counts)

        interval_series = dram.interval_requests[
            phase.dram_interval_start:]

        return FrameResult(
            frame_index=self._frame_index,
            geometry_cycles=trace.geometry_cycles,
            raster_cycles=phase.cycles,
            order=decision.order,
            supertile_size=decision.supertile_size,
            texture_hit_ratio=hit_ratio,
            mean_texture_latency=phase.mean_texture_latency,
            raster_dram_accesses=(dram_reads + dram_writes - geometry_dram),
            per_tile_dram=phase.merged_per_tile_dram(),
            per_tile_instructions=phase.merged_per_tile_instructions(),
            dram_interval_requests=list(interval_series),
            energy=energy,
            energy_counts=counts,
            tiles_completed=phase.tiles_completed,
            texture_l1_stats=merged_tex_stats,
        )

    def _publish_frame_telemetry(self, result: FrameResult,
                                 before: dict) -> None:
        """Emit per-frame cache deltas and update the metrics registry.

        Only called when the hub is enabled; purely observational, so it
        can never perturb the simulation (no simulated state is touched).
        """
        ts = self.clock.cycles
        frame = result.frame_index
        for name, cache in (("l2", self.shared.l2),
                            ("tile", self.tile_cache),
                            ("vertex", self.vertex_cache)):
            prior = before[name]
            stats = cache.stats
            HUB.emit(CacheDelta(
                name=name, frame=frame, ts=ts,
                accesses=stats.accesses - prior.accesses,
                hits=stats.hits - prior.hits,
                misses=stats.misses - prior.misses,
                evictions=stats.evictions - prior.evictions))
        tex = result.texture_l1_stats
        HUB.emit(CacheDelta(
            name="l1tex", frame=frame, ts=ts,
            accesses=tex.accesses, hits=tex.hits, misses=tex.misses,
            evictions=tex.evictions))
        metrics = HUB.metrics
        dram = self.shared.dram.stats
        metrics.counter("frames").inc()
        metrics.counter("dram.reads").inc(dram.reads
                                          - before["dram_reads"])
        metrics.counter("dram.writes").inc(dram.writes
                                           - before["dram_writes"])
        metrics.counter("dram.activations").inc(
            dram.activations - before["dram_activations"])
        metrics.counter("raster.dram_accesses").inc(
            result.raster_dram_accesses)
        metrics.counter("geometry.cycles").inc(result.geometry_cycles)
        metrics.counter("raster.cycles").inc(result.raster_cycles)
        metrics.counter("tiles.completed").inc(result.tiles_completed)
        metrics.gauge("l1tex.hit_ratio").set(result.texture_hit_ratio)
        metrics.gauge("l1tex.mean_latency").set(
            result.mean_texture_latency)
        metrics.gauge("dram.loaded_latency").set(
            self.shared.dram.loaded_latency)
        metrics.gauge("scheduler.supertile_size").set(
            result.supertile_size)
        self.shared.l2.stats.publish(metrics, "l2")
        self.tile_cache.stats.publish(metrics, "tilecache")
        self.vertex_cache.stats.publish(metrics, "vertexcache")
        self.shared.publish_metrics(metrics)
