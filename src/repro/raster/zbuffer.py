"""Tile-sized Z-Buffer and the Early-Z / Late-Z visibility tests.

The Z-Buffer is an on-chip, tile-sized buffer (Section II-A): it never
touches main memory, which is why TBR GPUs get depth testing "for free"
bandwidth-wise.  Early-Z rejects fragments occluded by previously processed
ones; when a shader modifies depth, the test must instead run after shading
(Late-Z), which the pipeline selects per draw call.
"""

from __future__ import annotations

import numpy as np

from .rasterizer import FragmentBatch, TileFragments


class TileZBuffer:
    """Depth buffer covering one tile, depth test LESS, cleared to +inf."""

    def __init__(self, tile_size: int):
        if tile_size < 1:
            raise ValueError("tile size must be positive")
        self.tile_size = tile_size
        self._depth = np.full((tile_size, tile_size), np.inf)
        self._pixel_type = np.min_scalar_type(tile_size * tile_size - 1)
        self._origin_x = 0
        self._origin_y = 0

    def reset(self, origin_x: int, origin_y: int) -> None:
        """Rebind the buffer to a new tile and clear it."""
        self._depth.fill(np.inf)
        self._origin_x = origin_x
        self._origin_y = origin_y

    def test(self, batch: FragmentBatch,
             depth_write: bool = True) -> np.ndarray:
        """Run the depth test for a fragment batch.

        Returns the boolean pass mask; passing fragments update the buffer
        when ``depth_write`` is set.  Fragments must lie inside the bound
        tile.
        """
        if batch.count == 0:
            return np.zeros(0, dtype=bool)
        lx = batch.xs - self._origin_x
        ly = batch.ys - self._origin_y
        if (lx < 0).any() or (ly < 0).any() \
                or (lx >= self.tile_size).any() \
                or (ly >= self.tile_size).any():
            raise ValueError("fragment outside the bound tile")
        current = self._depth[ly, lx]
        passed = batch.depth < current
        if depth_write and passed.any():
            # np.minimum.at handles duplicate pixels within one batch
            # (top-left rule prevents them for a single triangle, but a
            # batch may alias after clipping splits).
            np.minimum.at(self._depth, (ly[passed], lx[passed]),
                          batch.depth[passed])
        return passed

    def test_tile(self, fragments: TileFragments,
                  depth_write: np.ndarray) -> np.ndarray:
        """Depth-test every fragment of a tile in program order.

        ``fragments`` are packed primitive-major (:func:`rasterize_tile`)
        and ``depth_write`` holds one flag per primitive.  The pass mask
        and the final buffer equal those of calling :meth:`test` once per
        primitive in list order.  A primitive covers a pixel at most
        once, so the fragments of one pixel, taken in program order, are
        that pixel's test sequence: step ``k`` tests the ``k``-th
        fragment of every pixel at once.
        """
        count = fragments.count
        if count == 0:
            return np.zeros(0, dtype=bool)
        pixel = (fragments.ys - self._origin_y) * self.tile_size \
            + (fragments.xs - self._origin_x)
        depth = fragments.depth
        writes = depth_write[fragments.prim_id]
        if np.bincount(pixel).max() == 1:
            order, bounds = None, [0, count]
        else:
            # Stable sorts keep program order within a pixel; keys of
            # at most 16 bits sort in linear time.
            by_pixel = np.argsort(pixel.astype(self._pixel_type),
                                  kind="stable")
            index = np.arange(count)
            run_start = np.ones(count, dtype=bool)
            run_start[1:] = pixel[by_pixel[1:]] != pixel[by_pixel[:-1]]
            rank = index - np.maximum.accumulate(
                np.where(run_start, index, 0))
            order = by_pixel[np.argsort(
                rank.astype(np.min_scalar_type(len(depth_write))),
                kind="stable")]
            bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
            pixel, depth, writes = pixel[order], depth[order], writes[order]
        passed = np.empty(count, dtype=bool)
        flat = self._depth.reshape(-1)
        for a, b in zip(bounds[:-1], bounds[1:]):
            where = pixel[a:b]
            ok = np.less(depth[a:b], flat[where], out=passed[a:b])
            ok = ok & writes[a:b]
            flat[where[ok]] = depth[a:b][ok]
        if order is None:
            return passed
        in_order = np.empty(count, dtype=bool)
        in_order[order] = passed
        return in_order

    def depth_at(self, x: int, y: int) -> float:
        """Stored depth at a pixel of the bound tile."""
        return float(self._depth[y - self._origin_y, x - self._origin_x])


def filter_batch(batch: FragmentBatch, mask: np.ndarray) -> FragmentBatch:
    """Keep only the fragments selected by ``mask``."""
    return FragmentBatch(
        xs=batch.xs[mask], ys=batch.ys[mask], depth=batch.depth[mask],
        u=batch.u[mask], v=batch.v[mask])
