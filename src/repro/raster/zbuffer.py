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

    def test_tile(self, fragments: TileFragments, depth_write: np.ndarray,
                  slot, x0, y0) -> np.ndarray:
        """Depth-test every fragment of a chunk of tiles in program order.

        ``fragments`` are packed primitive-major (:func:`rasterize_tile`).
        ``depth_write`` holds one flag per primitive, and ``slot``,
        ``x0`` and ``y0`` give, per primitive or once for all, the slot of
        the tile the primitive is binned to and that tile's origin.  Each
        slot starts from a cleared buffer, so the pass mask equals that of
        resetting the buffer to each tile and calling :meth:`test` once
        per primitive of the tile in list order.  A primitive covers a
        pixel at most once, so the fragments of one pixel of one slot,
        taken in program order, are that pixel's test sequence: step
        ``k`` tests the ``k``-th fragment of every pixel at once.
        """
        count = fragments.count
        if count == 0:
            return np.zeros(0, dtype=bool)
        area = self.tile_size * self.tile_size
        slot = np.asarray(slot)
        buffer = np.full((int(slot.max()) + 1) * area, np.inf)
        # Slot s holds pixels [s * area, (s + 1) * area); keys of at most
        # 16 bits sort in linear time.
        base = np.asarray(slot * area - np.asarray(y0) * self.tile_size - x0)
        pixel = fragments.ys * self.tile_size + fragments.xs
        pixel += base[fragments.prim_id] if base.ndim else base
        pixel = pixel.astype(np.min_scalar_type(len(buffer) - 1))
        depth = fragments.depth
        writes = depth_write[fragments.prim_id]
        covered = np.zeros(len(buffer), dtype=bool)
        covered[pixel] = True
        if np.count_nonzero(covered) == count:
            order, bounds = None, [0, count]
        else:
            # Stable sorts keep program order within a pixel.
            by_pixel = np.argsort(pixel, kind="stable")
            key = pixel[by_pixel]
            # A fragment's rank is its distance from the start of its
            # pixel's run in that order.
            rank = np.arange(count)
            start = rank.copy()
            start[1:][key[1:] == key[:-1]] = 0
            del key
            rank -= np.maximum.accumulate(start, out=start)
            del start
            order = by_pixel[np.argsort(
                rank.astype(np.min_scalar_type(len(depth_write))),
                kind="stable")]
            bounds = [0, *np.cumsum(np.bincount(rank)).tolist()]
            del by_pixel, rank
            pixel, depth, writes = pixel[order], depth[order], writes[order]
        passed = np.empty(count, dtype=bool)
        for a, b in zip(bounds[:-1], bounds[1:]):
            where = pixel[a:b]
            ok = np.less(depth[a:b], buffer[where], out=passed[a:b])
            ok = ok & writes[a:b]
            buffer[where[ok]] = depth[a:b][ok]
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
