"""Tests for the timing Raster Unit (interval execution)."""

import pytest

from repro.config import small_config
from repro.gpu.raster_unit import TimingRasterUnit
from repro.gpu.workload import TileWorkload
from repro.memory.hierarchy import SharedMemory, make_tile_cache


def make_unit(config=None, ideal=False):
    cfg = config or small_config(ideal_memory=ideal)
    shared = SharedMemory(cfg)
    unit = TimingRasterUnit(0, cfg, shared, make_tile_cache(cfg))
    unit.begin_frame()
    return unit, shared, cfg


def one_shot_source(workloads):
    queue = list(workloads)

    def fetch(ru_index):
        return queue.pop(0) if queue else None
    return fetch


def simple_tile(tile=(0, 0), instructions=4000, lines=None, fb=None,
                pb=None):
    lines = lines or []
    return TileWorkload(
        tile=tile, instructions=instructions, fragments=instructions // 8,
        texture_lines=list(lines), texture_fetches=len(lines),
        pb_lines=list(pb or []), fb_lines=list(fb or []),
        num_primitives=1,
        prim_fragments=[max(instructions // 8, 1)],
        prim_instructions=[instructions])


class TestExecution:
    def test_tile_completes_within_budget(self):
        unit, shared, cfg = make_unit()
        fetch = one_shot_source([simple_tile(instructions=1000)])
        worked = unit.step(10_000, fetch)
        assert worked
        assert unit.stats.tiles_completed == 1
        assert not unit.busy

    def test_large_tile_spans_intervals(self):
        unit, shared, cfg = make_unit()
        fetch = one_shot_source([simple_tile(instructions=100_000)])
        unit.step(1000, fetch)
        assert unit.busy
        for _ in range(100):
            shared.end_interval()
            if not unit.step(1000, fetch):
                break
        assert unit.stats.tiles_completed == 1

    def test_idle_without_work(self):
        unit, _, _ = make_unit()
        assert not unit.step(1000, one_shot_source([]))

    def test_empty_tile_flushes_framebuffer(self):
        unit, shared, _ = make_unit()
        fb_lines = list(range(64))
        fetch = one_shot_source([TileWorkload(tile=(0, 0),
                                              fb_lines=fb_lines)])
        unit.step(1000, fetch)
        assert unit.stats.tiles_completed == 1
        assert shared.dram.stats.writes == 64

    def test_multiple_tiles_in_one_interval(self):
        unit, _, _ = make_unit()
        tiles = [simple_tile(tile=(i, 0), instructions=100)
                 for i in range(5)]
        unit.step(10_000, one_shot_source(tiles))
        assert unit.stats.tiles_completed == 5

    def test_per_tile_stats_recorded(self):
        unit, _, _ = make_unit()
        unit.step(100_000, one_shot_source(
            [simple_tile(tile=(2, 3), instructions=800,
                         lines=[10, 20, 30])]))
        assert (2, 3) in unit.stats.per_tile_dram
        assert unit.stats.per_tile_instructions[(2, 3)] == 800


class TestMemoryPath:
    def test_texture_accesses_counted(self):
        unit, _, _ = make_unit()
        unit.step(100_000, one_shot_source(
            [simple_tile(lines=[1, 2, 3, 1, 2])]))
        assert unit.stats.texture_accesses == 5
        assert unit.l1.stats.hits == 2

    def test_dram_misses_attributed_to_tile(self):
        unit, _, _ = make_unit()
        unit.step(100_000, one_shot_source(
            [simple_tile(tile=(0, 0), lines=[1, 2, 3])]))
        assert unit.stats.per_tile_dram[(0, 0)] == 3

    def test_pb_reads_through_tile_cache(self):
        unit, shared, _ = make_unit()
        unit.step(100_000, one_shot_source(
            [simple_tile(pb=[100, 101])]))
        assert unit.tile_cache.stats.accesses == 2
        assert shared.traffic.counts["parameter"] == 2

    def test_ideal_memory_never_touches_hierarchy(self):
        unit, shared, _ = make_unit(ideal=True)
        unit.step(100_000, one_shot_source(
            [simple_tile(lines=[1, 2, 3], pb=[5], fb=[9])]))
        assert shared.dram.stats.accesses == 0
        assert unit.stats.tiles_completed == 1

    def test_congestion_stalls_progress(self):
        cfg = small_config()
        cfg.dram.requests_per_cycle = 0.01  # starve the memory system
        unit, shared, _ = make_unit(cfg)
        lines = list(range(0, 100_000, 64))  # all distinct, all miss
        tile = simple_tile(instructions=10_000, lines=lines)
        fetch = one_shot_source([tile])
        intervals = 0
        while unit.step(1000, fetch) and intervals < 10_000:
            shared.end_interval()
            intervals += 1
        assert unit.stats.memory_stall_intervals > 0

    def test_latency_recorded(self):
        unit, _, _ = make_unit()
        unit.step(100_000, one_shot_source([simple_tile(lines=[1, 1])]))
        stats = unit.stats
        assert stats.mean_texture_latency > 0
        # Second access hits L1: mean must be below the DRAM latency.
        assert stats.mean_texture_latency < 100
