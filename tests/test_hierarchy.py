"""Tests for the shared L2 + DRAM wiring and traffic accounting."""

import pytest

from repro.config import small_config
from repro.memory.hierarchy import (SharedMemory, make_texture_l1,
                                    make_tile_cache, make_vertex_cache)
from repro.memory.traffic import (FRAMEBUFFER, GEOMETRY, PARAMETER, TEXTURE,
                                  TrafficBreakdown)


@pytest.fixture
def shared():
    return SharedMemory(small_config())


class TestSharedMemory:
    def test_l2_miss_goes_to_dram(self, shared):
        level = shared.access(0, TEXTURE)
        assert level == "dram"
        assert shared.dram.stats.reads == 1
        assert shared.traffic.counts[TEXTURE] == 1

    def test_l2_hit_stays_on_chip(self, shared):
        shared.access(0, TEXTURE)
        level = shared.access(0, TEXTURE)
        assert level == "l2"
        assert shared.dram.stats.reads == 1

    def test_stream_to_dram_bypasses_l2(self, shared):
        shared.stream_to_dram(0, FRAMEBUFFER)
        assert shared.dram.stats.writes == 1
        assert not shared.l2.contains(0)
        assert shared.traffic.counts[FRAMEBUFFER] == 1

    def test_access_latency_levels(self, shared):
        assert shared.access_latency("l2") == \
            shared.config.l2_cache.latency_cycles
        assert shared.access_latency("dram") > shared.access_latency("l2")
        with pytest.raises(ValueError):
            shared.access_latency("l3")

    def test_reset(self, shared):
        shared.access(0, TEXTURE)
        shared.reset()
        assert shared.l2.stats.accesses == 0
        assert shared.traffic.total == 0


class TestCacheFactories:
    def test_texture_l1_aggregates_cores(self):
        cfg = small_config()
        cfg.raster_unit.num_cores = 4
        l1 = make_texture_l1(cfg)
        assert l1.config.size_bytes == 4 * cfg.texture_cache.size_bytes

    def test_texture_l1_odd_core_count(self):
        cfg = small_config()
        cfg.raster_unit.num_cores = 3
        l1 = make_texture_l1(cfg)
        l1.lookup(0)  # geometry still valid (power-of-two sets)
        assert l1.config.num_sets & (l1.config.num_sets - 1) == 0

    def test_tile_and_vertex_caches(self):
        cfg = small_config()
        assert make_tile_cache(cfg).config.size_bytes == \
            cfg.tile_cache.size_bytes
        assert make_vertex_cache(cfg).config.size_bytes == \
            cfg.vertex_cache.size_bytes


class TestTrafficBreakdown:
    def test_add_and_total(self):
        t = TrafficBreakdown()
        t.add(TEXTURE, 3)
        t.add(GEOMETRY)
        assert t.total == 4

    def test_raster_total_excludes_geometry(self):
        t = TrafficBreakdown()
        t.add(TEXTURE, 3)
        t.add(PARAMETER, 2)
        t.add(GEOMETRY, 5)
        assert t.raster_total() == 5

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            TrafficBreakdown().add("display")

    def test_merge(self):
        a, b = TrafficBreakdown(), TrafficBreakdown()
        a.add(TEXTURE, 1)
        b.add(TEXTURE, 2)
        b.add(FRAMEBUFFER, 4)
        merged = a.merged_with(b)
        assert merged.counts[TEXTURE] == 3
        assert merged.counts[FRAMEBUFFER] == 4
