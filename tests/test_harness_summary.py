"""Tests for RunSummary metrics."""

import pickle

import pytest

from repro import GPUSimulator, harness
from repro.config import RasterUnitConfig, small_config
from repro.gpu.workload import FrameTrace, TileWorkload


def tiny_run(frames=3):
    traces = []
    for index in range(frames):
        workloads = {
            (x, y): TileWorkload(
                tile=(x, y), instructions=1500, fragments=180,
                texture_lines=[(y * 2 + x) * 500 + i + index
                               for i in range(12)],
                texture_fetches=24, num_primitives=1,
                prim_fragments=[180], prim_instructions=[1500])
            for x in range(2) for y in range(2)}
        traces.append(FrameTrace(frame_index=index, tiles_x=2, tiles_y=2,
                                 tile_size=32, workloads=workloads,
                                 geometry_cycles=400))
    cfg = small_config(num_raster_units=2,
                       raster_unit=RasterUnitConfig(num_cores=4))
    return harness.summarize("tiny", "ptr",
                             GPUSimulator(cfg).run(traces))


class TestRunSummary:
    def test_fields_populated(self):
        summary = tiny_run()
        assert summary.total_cycles > 0
        assert summary.frames == 3
        assert len(summary.frame_cycles) == 3
        assert summary.geometry_cycles == 1200
        assert summary.fps > 0
        assert summary.energy_j > 0
        assert set(summary.energy_breakdown) == {"core", "l1", "l2",
                                                 "dram", "static"}

    def test_per_tile_maps_present(self):
        summary = tiny_run()
        assert len(summary.per_tile_dram_last) == 4
        assert len(summary.per_tile_dram_prev) == 4

    def test_single_frame_prev_equals_last(self):
        summary = tiny_run(frames=1)
        assert summary.per_tile_dram_prev == summary.per_tile_dram_last

    def test_speedup_symmetry(self):
        a = tiny_run()
        assert a.speedup_over(a) == pytest.approx(1.0)

    def test_picklable(self):
        summary = tiny_run()
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.total_cycles == summary.total_cycles
        assert clone.per_tile_dram_last == summary.per_tile_dram_last

