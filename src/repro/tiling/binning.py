"""The Polygon List Builder and Parameter Buffer (Tiling Engine).

Bins every screen-space primitive into the tiles it overlaps, keeping
program order within each tile's list (Section II-A: "a list in program
order for each tile with all the primitives that totally (or partially)
fall inside it").  The per-tile lists live in the Parameter Buffer, a main
memory region; reads of it during tile fetch are one of the four DRAM
traffic sources the paper identifies, so the model synthesizes line
addresses for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..config import CACHE_LINE_BYTES
from ..geometry.primitive import Primitive

TileCoord = Tuple[int, int]


def triangle_overlaps_rect(xy, rx0: float, ry0: float,
                           rx1: float, ry1: float) -> bool:
    """Exact triangle/axis-aligned-rectangle overlap test (separating axes).

    ``xy`` is the (3, 2) vertex array of a screen-space triangle; the
    rectangle is [rx0, rx1) x [ry0, ry1).  Used to refine the conservative
    bounding-box bin so thin diagonal triangles are not binned into tiles
    they never touch.
    """
    (ax, ay), (bx, by), (cx, cy) = xy
    # Axis-aligned separating axes (the rectangle's edges).
    if max(ax, bx, cx) <= rx0 or min(ax, bx, cx) >= rx1:
        return False
    if max(ay, by, cy) <= ry0 or min(ay, by, cy) >= ry1:
        return False
    # Triangle-edge separating axes.
    corners = ((rx0, ry0), (rx1, ry0), (rx1, ry1), (rx0, ry1))
    vertices = ((ax, ay), (bx, by), (cx, cy))
    for i in range(3):
        ex0, ey0 = vertices[i]
        ex1, ey1 = vertices[(i + 1) % 3]
        nx, ny = ey1 - ey0, ex0 - ex1  # outward-ish normal of the edge
        # Which side is the triangle's third vertex on?
        ox, oy = vertices[(i + 2) % 3]
        tri_side = nx * (ox - ex0) + ny * (oy - ey0)
        if tri_side == 0.0:
            continue  # degenerate edge; no separation information
        if tri_side < 0.0:
            nx, ny = -nx, -ny
        # If every rectangle corner is strictly outside this edge, separated.
        if all(nx * (px - ex0) + ny * (py - ey0) < 0.0
               for px, py in corners):
            return False
    return True


@dataclass
class ParameterBuffer:
    """Model of the main-memory Parameter Buffer.

    Stores, per tile, the primitive list produced by binning, and exposes
    the line addresses the Tile Fetcher reads when streaming that list into
    the Raster Pipeline.  Entries are ``entry_bytes`` each (a compressed
    triangle record: three vertices of screen position, depth, 1/w and UV).
    """

    base_address: int = 0x4000_0000
    entry_bytes: int = 48
    lists: Dict[TileCoord, List[Primitive]] = field(default_factory=dict)
    _offsets: Dict[TileCoord, int] = field(default_factory=dict)
    total_entries: int = 0

    def finalize(self) -> None:
        """Lay per-tile lists out contiguously and record their offsets."""
        offset = 0
        self._offsets.clear()
        for tile in sorted(self.lists):
            self._offsets[tile] = offset
            offset += len(self.lists[tile])
        self.total_entries = offset

    def size_bytes(self) -> int:
        """Total Parameter Buffer size in bytes."""
        return self.total_entries * self.entry_bytes

    def fetch_addresses(self, tile: TileCoord) -> List[int]:
        """Cache-line addresses read to fetch one tile's primitive list."""
        primitives = self.lists.get(tile, [])
        if not primitives:
            return []
        start_byte = (self.base_address
                      + self._offsets.get(tile, 0) * self.entry_bytes)
        end_byte = start_byte + len(primitives) * self.entry_bytes
        first_line = start_byte // CACHE_LINE_BYTES
        last_line = (end_byte - 1) // CACHE_LINE_BYTES
        return list(range(first_line, last_line + 1))


@dataclass
class BinningStats:
    """Counters produced while binning one frame."""
    primitives_binned: int = 0
    tile_entries: int = 0
    max_entries_per_tile: int = 0
    nonempty_tiles: int = 0


class PolygonListBuilder:
    """Bins screen-space primitives into per-tile, program-ordered lists."""

    def __init__(self, tiles_x: int, tiles_y: int, tile_size: int,
                 exact: bool = True):
        if tiles_x < 1 or tiles_y < 1:
            raise ValueError("grid must have at least one tile per axis")
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.tile_size = tile_size
        self.exact = exact

    def bin(self, primitives: Sequence[Primitive]
            ) -> Tuple[ParameterBuffer, BinningStats]:
        """Bin primitives into per-tile lists; returns (buffer, stats).

        Every (primitive, candidate tile) pair of the primitives'
        clamped bounding boxes, and the :func:`triangle_overlaps_rect`
        test of each, is computed as arrays with the scalar test's
        operations in its order, so the lists are those of testing one
        candidate at a time: each tile's list in program order, and the
        tiles in the order their first primitive reached them.
        """
        buffer = ParameterBuffer()
        stats = BinningStats()
        prims = list(primitives)
        if prims:
            size = self.tile_size
            xy = np.array([prim.xy for prim in prims])          # (P, 3, 2)
            lo, hi = xy.min(axis=1), xy.max(axis=1)              # (P, 2)
            # The clamped tile range of each bounding box.  Clamping the
            # far side too keeps off-screen ranges empty and integral.
            grid = np.array([self.tiles_x, self.tiles_y])
            first = np.clip(lo // size, 0, grid).astype(np.int64)
            last = np.clip(hi // size, -1, grid - 1).astype(np.int64)
            binned = np.flatnonzero((last >= first).all(axis=1))
            stats.primitives_binned = len(binned)
            span = last[binned] - first[binned] + 1
            per_prim = span[:, 0] * span[:, 1]
            # Candidates prim-major, then row-major over the box.
            owner = np.repeat(binned, per_prim)
            step = np.arange(len(owner)) \
                - np.repeat(np.cumsum(per_prim) - per_prim, per_prim)
            columns = np.repeat(span[:, 0], per_prim)
            tx = first[owner, 0] + step % columns
            ty = first[owner, 1] + step // columns
            if self.exact:
                keep = np.flatnonzero(_overlaps(xy, lo, hi, owner, tx, ty,
                                                size))
                owner, tx, ty = owner[keep], tx[keep], ty[keep]
            self._fill(buffer, prims, owner, ty * self.tiles_x + tx)
            stats.tile_entries = len(owner)
        buffer.finalize()
        stats.nonempty_tiles = len(buffer.lists)
        if buffer.lists:
            stats.max_entries_per_tile = max(
                len(lst) for lst in buffer.lists.values())
        return buffer, stats

    def _fill(self, buffer: ParameterBuffer, prims: List[Primitive],
              owner: np.ndarray, key: np.ndarray) -> None:
        """Lists from (primitive, tile key) pairs in candidate order."""
        if not len(key):
            return
        by_tile = np.argsort(key, kind="stable")
        key = key[by_tile]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        ends = np.r_[starts[1:], len(key)].tolist()
        listed = [prims[i] for i in owner[by_tile].tolist()]
        # A tile's first pair in candidate order is the first of its
        # group (the sort is stable); the dict takes tiles in that order.
        for group in np.argsort(by_tile[starts], kind="stable").tolist():
            tile = int(key[starts[group]])
            buffer.lists[(tile % self.tiles_x, tile // self.tiles_x)] = \
                listed[starts[group]:ends[group]]


def _overlaps(xy: np.ndarray, lo: np.ndarray, hi: np.ndarray,
              owner: np.ndarray, tx: np.ndarray, ty: np.ndarray,
              size: int) -> np.ndarray:
    """:func:`triangle_overlaps_rect` of every (primitive ``owner``,
    tile (``tx``, ``ty``)) candidate, as a boolean array."""
    rx0 = (tx * size).astype(np.float64)
    ry0 = (ty * size).astype(np.float64)
    rx1 = ((tx + 1) * size).astype(np.float64)
    ry1 = ((ty + 1) * size).astype(np.float64)
    # Axis-aligned separating axes (the rectangle's edges).
    keep = (hi[owner, 0] > rx0) & (lo[owner, 0] < rx1) \
        & (hi[owner, 1] > ry0) & (lo[owner, 1] < ry1)
    # Triangle-edge separating axes, oriented towards the third vertex;
    # a degenerate edge (third vertex on it) separates nothing.
    for i in range(3):
        ex0, ey0 = xy[:, i, 0], xy[:, i, 1]
        ex1, ey1 = xy[:, (i + 1) % 3, 0], xy[:, (i + 1) % 3, 1]
        ox, oy = xy[:, (i + 2) % 3, 0], xy[:, (i + 2) % 3, 1]
        nx, ny = ey1 - ey0, ex0 - ex1
        tri_side = nx * (ox - ex0) + ny * (oy - ey0)
        flip = tri_side < 0.0
        nx = np.where(flip, -nx, nx)[owner]
        ny = np.where(flip, -ny, ny)[owner]
        ex0, ey0 = ex0[owner], ey0[owner]
        separated = (tri_side != 0.0)[owner]
        for px, py in ((rx0, ry0), (rx1, ry0), (rx1, ry1), (rx0, ry1)):
            separated &= nx * (px - ex0) + ny * (py - ey0) < 0.0
        keep &= ~separated
    return keep
