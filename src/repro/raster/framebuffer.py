"""Color Buffer (on-chip, tile-sized) and Frame Buffer (main memory).

Once all the primitives of a tile have rendered, the Color Buffer's
content is flushed to the Frame Buffer exactly once per tile
(Section II-A) — this write stream is one of the four DRAM traffic
sources, and its line addresses are produced here for the timing model.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..config import CACHE_LINE_BYTES

#: Bytes per pixel in the Frame Buffer (RGBA8).
PIXEL_BYTES = 4
#: Pixels per cache line in the frame buffer's row-major layout.
PIXELS_PER_LINE = CACHE_LINE_BYTES // PIXEL_BYTES


class TileColorBuffer:
    """On-chip color buffer for the tile in flight."""

    def __init__(self, tile_size: int,
                 clear_color: Tuple[float, float, float, float]
                 = (0.0, 0.0, 0.0, 1.0)):
        self.tile_size = tile_size
        self.clear_color = np.asarray(clear_color, dtype=np.float64)
        self._color = np.empty((tile_size, tile_size, 4), dtype=np.float64)
        self._origin_x = 0
        self._origin_y = 0
        self.reset(0, 0)

    def reset(self, origin_x: int, origin_y: int) -> None:
        """Rebind to a new tile origin and clear to the clear color."""
        self._color[...] = self.clear_color
        self._origin_x = origin_x
        self._origin_y = origin_y

    def read(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Colors at the given pixel coordinates, (N, 4)."""
        return self._color[ys - self._origin_y, xs - self._origin_x]

    def write(self, xs: np.ndarray, ys: np.ndarray,
              colors: np.ndarray) -> None:
        """Store colors at the given pixel coordinates."""
        self._color[ys - self._origin_y, xs - self._origin_x] = colors

    def snapshot(self) -> np.ndarray:
        """Copy of the tile's pixels, (tile, tile, 4) float in [0, 1]."""
        return self._color.copy()


class FrameBuffer:
    """Main-memory frame buffer receiving Color Buffer flushes."""

    def __init__(self, width: int, height: int,
                 base_address: int = 0xC000_0000,
                 store_pixels: bool = True):
        if base_address % CACHE_LINE_BYTES:
            raise ValueError("frame buffer base must be line-aligned")
        self.width = width
        self.height = height
        self.base_address = base_address
        self.store_pixels = store_pixels
        self._pixels = (np.zeros((height, width, 4), dtype=np.float64)
                        if store_pixels else None)

    def flush_tile(self, origin_x: int, origin_y: int,
                   tile: TileColorBuffer) -> List[int]:
        """Write a tile's colors into the frame; returns the line addresses.

        Rows of the tile clipped to the screen are written; each screen row
        segment covers a contiguous byte range whose 64-byte lines are
        enumerated.
        """
        x1 = min(origin_x + tile.tile_size, self.width)
        y1 = min(origin_y + tile.tile_size, self.height)
        if origin_x >= self.width or origin_y >= self.height:
            return []
        if self.store_pixels and self._pixels is not None:
            self._pixels[origin_y:y1, origin_x:x1] = \
                tile.snapshot()[:y1 - origin_y, :x1 - origin_x]
        return tile_flush_lines(origin_x, origin_y, tile.tile_size,
                                self.width, self.height, self.base_address)

    def image(self) -> np.ndarray:
        """The full frame, (H, W, 4) float in [0, 1]."""
        if self._pixels is None:
            raise RuntimeError("frame buffer built with store_pixels=False")
        return self._pixels

    def image_u8(self) -> np.ndarray:
        """The frame as (H, W, 4) uint8."""
        return (np.clip(self.image(), 0.0, 1.0) * 255).astype(np.uint8)


def tile_flush_lines(origin_x: int, origin_y: int, tile_size: int,
                     width: int, height: int,
                     base_address: int = 0xC000_0000) -> List[int]:
    """Line addresses a tile flush writes, without touching pixel data.

    Used by the trace path (the timing model needs addresses only).
    Each screen row segment of the tile, clipped to the screen, covers
    the lines ``first..last`` of its byte range; the result is the union
    over rows, ascending.  Both ends grow with the row, so starting each
    row past the previous row's last line leaves disjoint ranges in
    ascending order: two rows share a line only at that boundary.
    """
    x1 = min(origin_x + tile_size, width)
    y1 = min(origin_y + tile_size, height)
    if origin_x >= width or origin_y >= height:
        return []
    row = np.arange(origin_y, y1, dtype=np.int64) * width
    first = (row + origin_x) * PIXEL_BYTES // CACHE_LINE_BYTES
    last = ((row + x1) * PIXEL_BYTES - 1) // CACHE_LINE_BYTES
    first[1:] = np.maximum(first[1:], last[:-1] + 1)
    count = np.maximum(last - first + 1, 0)
    lines = np.arange(int(count.sum())) \
        + np.repeat(first - (np.cumsum(count) - count), count)
    return (lines + base_address // CACHE_LINE_BYTES).tolist()
