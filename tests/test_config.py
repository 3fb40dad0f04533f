"""Tests for repro.config (Table I parameters and validation)."""

import dataclasses

import pytest

from repro.config import (CACHE_LINE_BYTES, CacheConfig, DRAMConfig,
                          GPUConfig, RasterUnitConfig, SchedulerConfig,
                          baseline_config, libra_config, small_config)
from repro.errors import ConfigValidationError


class TestCacheConfig:
    def test_table1_texture_cache_geometry(self):
        cache = CacheConfig(32 * 1024, 4)
        assert cache.num_lines == 512
        assert cache.num_sets == 128

    def test_table1_l2_geometry(self):
        cache = CacheConfig(2 * 1024 * 1024, 8)
        assert cache.num_lines == 32768
        assert cache.num_sets == 4096

    def test_rejects_non_multiple_size(self):
        with pytest.raises(ValueError):
            CacheConfig(1000, 2).validate()

    def test_rejects_bad_way_division(self):
        with pytest.raises(ValueError):
            CacheConfig(64 * 3, 2).validate()

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig(64 * 12, 2).validate()

    def test_valid_config_passes(self):
        CacheConfig(4 * 1024, 2).validate()

    # A 0-byte cache has zero sets, which pass the power-of-two test, and
    # with a set mask of -1 it simulates as an unbounded cache; a zero
    # way count or line size divides by zero in the geometry checks.
    @pytest.mark.parametrize("size,ways,line", [
        (0, 2, 64), (-1024, 2, 64), (1024, 0, 64), (1024, -2, 64),
        (1024, 2, 0), (1024, 2, -64)])
    def test_rejects_non_positive_geometry(self, size, ways, line):
        with pytest.raises(ConfigValidationError):
            CacheConfig(size, ways, line_bytes=line).validate()

    @pytest.mark.parametrize("field_name", ["size_bytes", "ways",
                                            "line_bytes"])
    def test_sweep_setting_of_zero_is_rejected(self, field_name):
        with pytest.raises(ConfigValidationError):
            GPUConfig.build("libra", settings={f"l2_cache.{field_name}": 0})


class TestDRAMConfig:
    def test_defaults_valid(self):
        DRAMConfig().validate()

    def test_latency_range_matches_table1(self):
        dram = DRAMConfig()
        assert dram.row_hit_cycles == 50
        assert dram.row_miss_cycles == 100

    def test_rejects_non_power_of_two_banks(self):
        with pytest.raises(ValueError):
            DRAMConfig(num_banks=3).validate()

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            DRAMConfig(requests_per_cycle=0.0).validate()

    def test_rejects_partial_line_rows(self):
        with pytest.raises(ValueError):
            DRAMConfig(row_bytes=100).validate()


class TestGPUConfig:
    def test_default_is_full_hd(self):
        cfg = GPUConfig()
        assert (cfg.screen_width, cfg.screen_height) == (1920, 1080)

    def test_full_hd_tile_grid(self):
        cfg = GPUConfig()
        assert cfg.tiles_x == 60
        assert cfg.tiles_y == 34
        assert cfg.num_tiles == 2040

    def test_l2_latency_matches_table1(self):
        assert baseline_config().l2_cache.latency_cycles == 18

    def test_partial_tiles_rounded_up(self):
        cfg = small_config(screen_width=100, screen_height=70, tile_size=32)
        assert cfg.tiles_x == 4
        assert cfg.tiles_y == 3

    def test_baseline_preset_has_one_unit_eight_cores(self):
        cfg = baseline_config()
        assert cfg.num_raster_units == 1
        assert cfg.raster_unit.num_cores == 8
        assert cfg.total_cores == 8

    def test_libra_preset_has_two_units_four_cores(self):
        cfg = libra_config()
        assert cfg.num_raster_units == 2
        assert cfg.raster_unit.num_cores == 4
        assert cfg.total_cores == 8

    def test_libra_preset_scales_units(self):
        cfg = libra_config(num_raster_units=4)
        assert cfg.total_cores == 16

    def test_rejects_non_power_of_two_tile(self):
        with pytest.raises(ValueError):
            small_config(tile_size=20)

    def test_rejects_zero_raster_units(self):
        cfg = GPUConfig(num_raster_units=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_rejects_zero_interval(self):
        cfg = GPUConfig(interval_cycles=0)
        with pytest.raises(ValueError):
            cfg.validate()

    def test_replace_returns_modified_copy(self):
        cfg = baseline_config()
        other = cfg.replace(tile_size=16)
        assert other.tile_size == 16
        assert cfg.tile_size == 32

    def test_cache_line_is_64_bytes(self):
        assert CACHE_LINE_BYTES == 64


class TestSchedulerConfig:
    def test_paper_thresholds(self):
        sched = SchedulerConfig()
        assert sched.hit_ratio_threshold == pytest.approx(0.80)
        assert sched.order_switch_threshold == pytest.approx(0.03)
        assert sched.supertile_resize_threshold == pytest.approx(0.0025)

    def test_paper_supertile_sizes(self):
        assert SchedulerConfig().supertile_sizes == (2, 4, 8, 16)

    def test_raster_unit_defaults(self):
        ru = RasterUnitConfig()
        assert ru.num_cores == 4
        assert ru.tile_setup_cycles > 0
