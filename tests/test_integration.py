"""End-to-end integration tests: scene -> trace -> timing -> results.

These exercise the full stack at a small resolution and assert the
*directional* properties the paper's evaluation depends on.
"""

import pytest

from repro import (GPUSimulator, LibraScheduler, TraceBuilder,
                   baseline_config, libra_config, make_scene_builder)
from repro.core import TemperatureScheduler
from repro.workloads.params import HotspotSpec, WorkloadParams
from repro.workloads.scene import SceneBuilder

WIDTH, HEIGHT = 256, 128


@pytest.fixture(scope="module")
def hot_traces():
    """A deliberately memory-heavy workload (dense multitexture stacks)."""
    params = WorkloadParams(
        name="HOT", title="Hot", style="2D", seed=7,
        memory_intensive=True, roaming_sprites=8,
        hotspots=(HotspotSpec(center=(0.3, 0.5), sprites=10, layers=5,
                              sprite_size=0.25, uv_scale=1.8, cells=24),
                  HotspotSpec(center=(0.75, 0.5), sprites=10, layers=5,
                              sprite_size=0.25, uv_scale=1.8, cells=24)),
        hud_elements=4, fragment_instructions=8, texture_fetches=3,
        num_textures=8, texture_size=256, detail_texture_size=256,
        scroll_speed=4.0)
    scenes = SceneBuilder(params, WIDTH, HEIGHT)
    return TraceBuilder(scenes, WIDTH, HEIGHT, 32).build_many(6)


@pytest.fixture(scope="module")
def suite_traces():
    builder = make_scene_builder("GDL", WIDTH, HEIGHT)
    return TraceBuilder(builder, WIDTH, HEIGHT, 32).build_many(4)


def run(traces, config, scheduler=None):
    return GPUSimulator(config, scheduler=scheduler).run(traces)


class TestParallelTileRendering:
    def test_ptr_beats_baseline(self, hot_traces):
        base = run(hot_traces,
                   baseline_config(screen_width=WIDTH, screen_height=HEIGHT))
        ptr = run(hot_traces,
                  libra_config(screen_width=WIDTH, screen_height=HEIGHT))
        assert ptr.speedup_over(base) > 1.0

    def test_same_work_done(self, hot_traces):
        base = run(hot_traces,
                   baseline_config(screen_width=WIDTH, screen_height=HEIGHT))
        ptr = run(hot_traces,
                  libra_config(screen_width=WIDTH, screen_height=HEIGHT))
        base_tiles = sum(f.tiles_completed for f in base.frames)
        ptr_tiles = sum(f.tiles_completed for f in ptr.frames)
        assert base_tiles == ptr_tiles

    def test_ideal_memory_upper_bounds_real(self, hot_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        real = run(hot_traces, cfg)
        ideal = run(hot_traces, cfg.replace(ideal_memory=True))
        assert ideal.total_cycles <= real.total_cycles


class TestTemperatureScheduling:
    def test_temperature_flattens_or_matches_dram_series(self, hot_traces):
        from repro.stats import coefficient_of_variation
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        ptr = run(hot_traces, cfg)
        temp = run(hot_traces, cfg, scheduler=TemperatureScheduler(2))
        cov_ptr = coefficient_of_variation(
            ptr.frames[-1].dram_interval_requests)
        cov_temp = coefficient_of_variation(
            temp.frames[-1].dram_interval_requests)
        assert cov_temp <= cov_ptr * 1.25  # never dramatically burstier

    def test_libra_runs_and_switches_orders(self, hot_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        scheduler = LibraScheduler(cfg.scheduler)
        result = run(hot_traces, cfg, scheduler=scheduler)
        assert result.num_frames == len(hot_traces)
        assert len(scheduler.log) == len(hot_traces)

    def test_libra_not_catastrophic(self, hot_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        ptr = run(hot_traces, cfg)
        libra = run(hot_traces, cfg,
                    scheduler=LibraScheduler(cfg.scheduler))
        assert libra.speedup_over(ptr) > 0.85


class TestComputeWorkloads:
    def test_compute_app_low_memory_fraction(self, suite_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        real = run(suite_traces, cfg)
        ideal = run(suite_traces, cfg.replace(ideal_memory=True))
        fraction = 1 - ideal.total_cycles / real.total_cycles
        assert fraction < 0.25

    def test_compute_app_high_hit_ratio(self, suite_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        result = run(suite_traces, cfg)
        assert result.mean_texture_hit_ratio > 0.8


class TestEnergyAccounting:
    def test_faster_run_saves_static_energy(self, hot_traces):
        base = run(hot_traces,
                   baseline_config(screen_width=WIDTH, screen_height=HEIGHT))
        ptr = run(hot_traces,
                  libra_config(screen_width=WIDTH, screen_height=HEIGHT))
        base_static = sum(f.energy.static_j for f in base.frames)
        ptr_static = sum(f.energy.static_j for f in ptr.frames)
        if ptr.total_cycles < base.total_cycles:
            assert ptr_static < base_static

    def test_dram_energy_tracks_accesses(self, hot_traces):
        cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        result = run(hot_traces, cfg)
        dram_j = sum(f.energy.dynamic_dram_j for f in result.frames)
        assert dram_j > 0
