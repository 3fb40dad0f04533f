"""Tests for the frame driver (geometry + raster + stats + feedback)."""

import pytest

from repro.config import RasterUnitConfig, small_config
from repro.core.scheduler import (FrameFeedback, ScheduleDecision,
                                  TileScheduler, QueueDispenser,
                                  ZOrderScheduler, zorder_tile_batches)
from repro.gpu.frame import FrameDriver
from repro.gpu.workload import FrameTrace, TileWorkload


def make_trace(frame_index=0):
    workloads = {}
    for y in range(4):
        for x in range(4):
            heat = 50 if (x, y) == (3, 3) else 3
            base = (y * 4 + x) * 10_000
            workloads[(x, y)] = TileWorkload(
                tile=(x, y), instructions=4000, fragments=500,
                texture_lines=[base + i for i in range(heat)],
                texture_fetches=heat * 2,
                fb_lines=[1_000_000 + (y * 4 + x) * 64 + i
                          for i in range(8)],
                num_primitives=2,
                prim_fragments=[250, 250],
                prim_instructions=[2000, 2000])
    return FrameTrace(frame_index=frame_index, tiles_x=4, tiles_y=4,
                      tile_size=32, workloads=workloads,
                      geometry_cycles=2000,
                      vertex_lines=list(range(2_000_000, 2_000_040)),
                      vertex_instructions=640)


class RecordingScheduler(TileScheduler):
    """Z-order scheduler that records the feedback it receives."""

    def __init__(self):
        self.feedback = []

    def begin_frame(self, trace):
        return ScheduleDecision(
            dispenser=QueueDispenser(zorder_tile_batches(trace)),
            order="zorder", supertile_size=1)

    def end_frame(self, feedback):
        self.feedback.append(feedback)


def make_driver(scheduler=None, num_rus=2, **kwargs):
    cfg = small_config(num_raster_units=num_rus,
                       raster_unit=RasterUnitConfig(num_cores=4), **kwargs)
    return FrameDriver(cfg, scheduler or ZOrderScheduler())


class TestFrameResult:
    def test_basic_fields(self):
        result = make_driver().run_frame(make_trace())
        assert result.frame_index == 0
        assert result.geometry_cycles == 2000
        assert result.raster_cycles > 0
        assert result.total_cycles == (result.geometry_cycles
                                       + result.raster_cycles)
        assert result.tiles_completed == 16

    def test_hit_ratio_in_unit_range(self):
        result = make_driver().run_frame(make_trace())
        assert 0.0 <= result.texture_hit_ratio <= 1.0

    def test_dram_accesses_exclude_geometry(self):
        result = make_driver().run_frame(make_trace())
        assert result.raster_dram_accesses > 0
        # FB writes alone are 16 tiles x 8 lines.
        assert result.raster_dram_accesses >= 128

    def test_per_tile_maps_complete(self):
        result = make_driver().run_frame(make_trace())
        assert set(result.per_tile_dram) == {(x, y) for x in range(4)
                                             for y in range(4)}

    def test_energy_populated(self):
        result = make_driver().run_frame(make_trace())
        assert result.energy.total_j > 0
        counts = result.energy_counts
        assert counts.core_instructions == 16 * 4000 + 640
        assert counts.cycles == result.total_cycles

    def test_interval_series_recorded(self):
        result = make_driver().run_frame(make_trace())
        assert result.dram_interval_requests
        assert sum(result.dram_interval_requests) > 0

    def test_frame_indices_increment(self):
        driver = make_driver()
        first = driver.run_frame(make_trace(0))
        second = driver.run_frame(make_trace(1))
        assert (first.frame_index, second.frame_index) == (0, 1)


class TestSchedulerFeedback:
    def test_feedback_delivered_each_frame(self):
        scheduler = RecordingScheduler()
        driver = make_driver(scheduler)
        driver.run_frame(make_trace())
        driver.run_frame(make_trace(1))
        assert len(scheduler.feedback) == 2
        fb = scheduler.feedback[0]
        assert isinstance(fb, FrameFeedback)
        assert fb.raster_cycles > 0
        assert fb.per_tile_dram

    def test_hot_tile_visible_in_feedback(self):
        scheduler = RecordingScheduler()
        make_driver(scheduler).run_frame(make_trace())
        per_tile = scheduler.feedback[0].per_tile_dram
        assert per_tile[(3, 3)] > per_tile[(0, 0)]


class TestIdealMemoryMode:
    def test_ideal_is_not_slower(self):
        real = make_driver().run_frame(make_trace())
        ideal = make_driver(ideal_memory=True).run_frame(make_trace())
        assert ideal.raster_cycles <= real.raster_cycles
        assert ideal.raster_dram_accesses == 0

    def test_scheduler_configured_with_unit_count(self):
        scheduler = ZOrderScheduler()
        make_driver(scheduler, num_rus=2)
        assert scheduler.num_raster_units == 2
