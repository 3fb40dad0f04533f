"""Tests for the Color Buffer / Frame Buffer pair."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import CACHE_LINE_BYTES
from repro.raster.framebuffer import (PIXELS_PER_LINE, FrameBuffer,
                                      TileColorBuffer, tile_flush_lines)


class TestTileColorBuffer:
    def test_clear_color(self):
        cb = TileColorBuffer(32, clear_color=(0.1, 0.2, 0.3, 1.0))
        snap = cb.snapshot()
        assert np.allclose(snap[0, 0], [0.1, 0.2, 0.3, 1.0])

    def test_write_read_roundtrip(self):
        cb = TileColorBuffer(32)
        cb.reset(64, 64)
        xs = np.array([70, 71])
        ys = np.array([65, 66])
        colors = np.array([[1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.float64)
        cb.write(xs, ys, colors)
        assert np.allclose(cb.read(xs, ys), colors)

    def test_reset_clears(self):
        cb = TileColorBuffer(32)
        cb.write(np.array([1]), np.array([1]),
                 np.array([[1.0, 1, 1, 1]]))
        cb.reset(0, 0)
        assert np.allclose(cb.snapshot()[1, 1], cb.clear_color)


class TestFrameBuffer:
    def test_flush_writes_pixels(self):
        fb = FrameBuffer(64, 64, base_address=0)
        cb = TileColorBuffer(32, clear_color=(1, 0, 0, 1))
        cb.reset(32, 0)
        fb.flush_tile(32, 0, cb)
        assert np.allclose(fb.image()[0, 32], [1, 0, 0, 1])
        assert np.allclose(fb.image()[0, 0], 0.0)

    def test_flush_lines_cover_tile_bytes(self):
        fb = FrameBuffer(64, 64, base_address=0)
        cb = TileColorBuffer(32)
        cb.reset(0, 0)
        lines = fb.flush_tile(0, 0, cb)
        # 32 rows x 32 px x 4 B = 4096 bytes, but rows are strided across
        # the 64-px-wide frame: each row covers 128 bytes = 2 lines.
        assert len(lines) == 32 * (32 * 4 // CACHE_LINE_BYTES)

    def test_flush_clips_at_screen_edge(self):
        fb = FrameBuffer(48, 48, base_address=0)
        cb = TileColorBuffer(32)
        cb.reset(32, 32)
        lines = fb.flush_tile(32, 32, cb)
        assert lines  # the 16x16 visible part still flushes
        assert len(lines) == 16  # 16 rows x 64B each

    def test_flush_fully_offscreen_is_empty(self):
        fb = FrameBuffer(32, 32, base_address=0)
        cb = TileColorBuffer(32)
        assert fb.flush_tile(64, 64, cb) == []

    def test_image_without_storage_raises(self):
        fb = FrameBuffer(32, 32, store_pixels=False)
        with pytest.raises(RuntimeError):
            fb.image()

    def test_image_u8(self):
        fb = FrameBuffer(32, 32, base_address=0)
        cb = TileColorBuffer(32, clear_color=(1, 1, 1, 1))
        cb.reset(0, 0)
        fb.flush_tile(0, 0, cb)
        assert fb.image_u8().dtype == np.uint8
        assert fb.image_u8()[0, 0, 0] == 255

    def test_rejects_unaligned_base(self):
        with pytest.raises(ValueError):
            FrameBuffer(32, 32, base_address=100)


class TestFlushLinesHelper:
    def test_matches_framebuffer_flush(self):
        fb = FrameBuffer(64, 64, base_address=0)
        cb = TileColorBuffer(32)
        cb.reset(0, 32)
        via_fb = fb.flush_tile(0, 32, cb)
        via_helper = tile_flush_lines(0, 32, 32, 64, 64, base_address=0)
        assert via_fb == via_helper

    def test_distinct_tiles_distinct_interiors(self):
        a = tile_flush_lines(0, 0, 32, 128, 128)
        b = tile_flush_lines(64, 0, 32, 128, 128)
        assert not set(a) & set(b)

    def test_pixels_per_line(self):
        assert PIXELS_PER_LINE == 16


def row_loop_flush_lines(origin_x, origin_y, tile_size, width, height,
                         base_address):
    """``tile_flush_lines`` by its definition: each clipped row's line
    range, collected into a set and sorted."""
    x1 = min(origin_x + tile_size, width)
    y1 = min(origin_y + tile_size, height)
    if origin_x >= width or origin_y >= height:
        return []
    lines = set()
    base_line = base_address // CACHE_LINE_BYTES
    for y in range(origin_y, y1):
        start = (y * width + origin_x) * 4
        end = (y * width + x1) * 4
        lines.update(range(base_line + start // CACHE_LINE_BYTES,
                           base_line + (end - 1) // CACHE_LINE_BYTES + 1))
    return sorted(lines)


class TestFlushLinesProperty:
    """The array ``tile_flush_lines`` equals the row loop: any origin,
    tile size and width, including widths whose rows share a line (a
    row of ``width * 4`` bytes that is not a multiple of 64) and tiles
    the screen edge clips or misses."""

    @given(tile_size=st.integers(1, 40), width=st.integers(1, 130),
           height=st.integers(1, 70), data=st.data(),
           base_line=st.sampled_from([0, 1, 0xC000_0000 // 64]))
    def test_matches_row_loop(self, tile_size, width, height, data,
                              base_line):
        origin_x = data.draw(st.integers(0, width + tile_size))
        origin_y = data.draw(st.integers(0, height + tile_size))
        base = base_line * CACHE_LINE_BYTES
        got = tile_flush_lines(origin_x, origin_y, tile_size, width, height,
                               base)
        assert got == row_loop_flush_lines(origin_x, origin_y, tile_size,
                                           width, height, base)
        assert all(type(line) is int for line in got)

    def test_shared_lines_between_rows(self):
        # 20 px rows are 80 bytes: consecutive rows share a line.
        lines = tile_flush_lines(0, 0, 20, 20, 8, base_address=0)
        assert lines == row_loop_flush_lines(0, 0, 20, 20, 8, 0)
        assert len(lines) == 10
