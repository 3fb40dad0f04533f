"""Tests for TileWorkload / FrameTrace descriptors."""

import numpy as np
import pytest

from repro.gpu.workload import FrameTrace, TileWorkload


def workload(tile=(0, 0), instructions=100, lines=None, fetches=10):
    return TileWorkload(tile=tile, instructions=instructions,
                        fragments=10,
                        texture_lines=list(lines or [1, 2, 3]),
                        texture_fetches=fetches)


class TestTileWorkload:
    def test_repeat_fetches(self):
        w = workload(lines=[1, 2, 3], fetches=10)
        assert w.repeat_fetches == 7

    def test_repeat_fetches_never_negative(self):
        w = workload(lines=[1, 2, 3], fetches=1)
        assert w.repeat_fetches == 0

    def test_validate_rejects_negative(self):
        w = workload(instructions=-1)
        with pytest.raises(ValueError):
            w.validate()

    def test_empty_workload_valid(self):
        TileWorkload(tile=(0, 0)).validate()

    def test_streams_become_int64_arrays(self):
        w = TileWorkload(tile=(0, 0), texture_lines=[5, 1 << 40],
                         pb_lines=(7,), fb_lines=range(3))
        for lines in (w.texture_lines, w.pb_lines, w.fb_lines):
            assert isinstance(lines, np.ndarray)
            assert lines.dtype == np.int64 and lines.ndim == 1
        assert w.texture_lines.tolist() == [5, 1 << 40]
        assert w.fb_lines.tolist() == [0, 1, 2]
        assert len(TileWorkload(tile=(0, 0)).texture_lines) == 0

    def test_an_int64_array_is_kept_without_a_copy(self):
        lines = np.arange(4, dtype=np.int64)
        assert TileWorkload(tile=(0, 0), texture_lines=lines) \
            .texture_lines is lines

    def test_equality_compares_streams_by_value(self):
        assert workload(lines=[1, 2, 3]) == workload(lines=[1, 2, 3])
        assert workload(lines=[1, 2, 3]) != workload(lines=[1, 2, 4])
        assert workload(lines=[1, 2, 3]) != workload(lines=[1, 2])
        assert TileWorkload(tile=(0, 0)) == TileWorkload(tile=(0, 0))
        assert TileWorkload(tile=(0, 0)) != TileWorkload(tile=(1, 0))
        w = workload(lines=[1, 2, 3])
        w.texture_lines = [1, 2, 3]  # a list assigned after construction
        assert w == workload(lines=[1, 2, 3])
        assert workload() != "not a workload"

    def test_validate_reads_a_list_assigned_after_construction(self):
        w = workload()
        w.fb_lines = [3, 1 << 50]
        with pytest.raises(ValueError, match="fb line address "
                                             f"{1 << 50} out of bounds"):
            w.validate()
        w.fb_lines = [3, 4]
        w.validate()

    @pytest.mark.parametrize("bad", [-1, 1 << 48])
    def test_validate_names_the_first_bad_address(self, bad):
        w = workload(lines=[0, 1, bad, -5])
        with pytest.raises(ValueError,
                           match=f"texture line address {bad} out of"):
            w.validate()


class TestFrameTrace:
    def _trace(self):
        workloads = {(0, 0): workload((0, 0), instructions=100),
                     (1, 0): workload((1, 0), instructions=50)}
        return FrameTrace(frame_index=0, tiles_x=2, tiles_y=2,
                          tile_size=32, workloads=workloads,
                          geometry_cycles=500)

    def test_all_tiles_covers_grid(self):
        trace = self._trace()
        assert len(trace.all_tiles()) == 4
        assert trace.num_tiles == 4

    def test_workload_for_missing_tile_is_empty(self):
        trace = self._trace()
        w = trace.workload_for((1, 1))
        assert w.instructions == 0
        assert w.texture_lines.tolist() == []

    def test_workload_for_existing_tile(self):
        trace = self._trace()
        assert trace.workload_for((0, 0)).instructions == 100

    def test_vertex_lines_become_an_int64_array(self):
        trace = FrameTrace(frame_index=0, tiles_x=1, tiles_y=1,
                           tile_size=32, workloads={},
                           vertex_lines=[4, 5])
        assert trace.vertex_lines.dtype == np.int64
        assert trace.vertex_lines.tolist() == [4, 5]
        assert len(FrameTrace(frame_index=0, tiles_x=1, tiles_y=1,
                              tile_size=32, workloads={}).vertex_lines) == 0

    def test_equality_compares_streams_by_value(self):
        assert self._trace() == self._trace()
        other = self._trace()
        other.workloads[(0, 0)].pb_lines = [9]
        assert other != self._trace()
        other = self._trace()
        other.vertex_lines = [1]
        assert other != self._trace()

    def test_vertex_bound_message_unchanged(self):
        trace = self._trace()
        trace.vertex_lines = [1 << 48]
        with pytest.raises(ValueError,
                           match="frame 0: vertex line address out of "
                                 "bounds"):
            trace.validate()

    def test_totals(self):
        trace = self._trace()
        assert trace.total_instructions() == 150
        assert trace.total_fragments() == 20
        assert trace.total_texture_lines() == 6

    def test_per_tile_metric(self):
        trace = self._trace()
        metric = trace.per_tile_metric("instructions")
        assert metric[(0, 0)] == 100.0
        with pytest.raises(ValueError):
            trace.per_tile_metric("bogus")
