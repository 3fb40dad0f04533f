"""Integration tests for extension features and ablation machinery."""

import pytest

from repro import GPUSimulator, TraceBuilder, libra_config
from repro.core.alternatives import (OracleTemperatureScheduler,
                                     RandomScheduler, TraversalScheduler)
from repro.gpu.pfr import PFRSimulator
from repro.workloads.params import HotspotSpec, WorkloadParams
from repro.workloads.scene import SceneBuilder

WIDTH, HEIGHT = 256, 128


@pytest.fixture(scope="module")
def traces():
    params = WorkloadParams(
        name="MIX", title="Mixed", style="2D", seed=3,
        memory_intensive=True, roaming_sprites=10,
        hotspots=(HotspotSpec(center=(0.35, 0.5), sprites=8, layers=4,
                              sprite_size=0.2, uv_scale=1.6, cells=16),),
        hud_elements=4, fragment_instructions=10, texture_fetches=2,
        num_textures=8, texture_size=256, detail_texture_size=256,
        scroll_speed=6.0)
    scenes = SceneBuilder(params, WIDTH, HEIGHT)
    return TraceBuilder(scenes, WIDTH, HEIGHT, 32).build_many(4)


def run_with(traces, scheduler):
    config = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
    return GPUSimulator(config, scheduler=scheduler).run(traces)


class TestAlternativeSchedulersEndToEnd:
    def test_all_policies_complete_all_tiles(self, traces):
        expected = traces[0].num_tiles * len(traces)
        for scheduler in (TraversalScheduler("hilbert"),
                          RandomScheduler(size=2),
                          OracleTemperatureScheduler(2)):
            result = run_with(traces, scheduler)
            done = sum(f.tiles_completed for f in result.frames)
            assert done == expected, type(scheduler).__name__

    def test_policies_agree_on_work_not_time(self, traces):
        a = run_with(traces, TraversalScheduler("scanline"))
        b = run_with(traces, RandomScheduler(size=2))
        # Same instructions retired...
        assert (a.total_energy_counts().core_instructions
                == b.total_energy_counts().core_instructions)
        # ...but scheduling changes the time.
        assert a.total_cycles != b.total_cycles


class TestFBCompressionEndToEnd:
    def test_compression_reduces_dram_and_never_slows(self, traces):
        plain_cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        squeezed_cfg = libra_config(screen_width=WIDTH,
                                    screen_height=HEIGHT)
        squeezed_cfg.fb_compression_ratio = 0.5
        plain = GPUSimulator(plain_cfg).run(traces)
        squeezed = GPUSimulator(squeezed_cfg).run(traces)
        assert squeezed.raster_dram_accesses < plain.raster_dram_accesses
        assert squeezed.total_cycles <= plain.total_cycles * 1.01


class TestPFREndToEnd:
    def test_pfr_runs_on_real_traces(self, traces):
        config = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
        result = PFRSimulator(config).run(traces)
        assert result.frames == len(traces)
        assert result.total_cycles > 0


class TestHarnessThresholdVariants:
    def test_threshold_override_changes_key_not_crash(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro import harness
        from repro.experiments import SweepPoint, execute_point

        def point(**axes):
            return SweepPoint("GDL", "libra", tuple(sorted(axes.items())),
                              frames=2, width=harness.WIDTH,
                              height=harness.HEIGHT)

        assert point().point_id != point(hit_threshold=0.0).point_id
        default = execute_point(point())
        tweaked = execute_point(point(hit_threshold=0.0))
        # hit_threshold=0 forces Z-order forever; results may differ but
        # both must be complete runs of the same work.
        assert default.frames == tweaked.frames == 2
        assert all(o == "zorder" for o in tweaked.frame_orders)
