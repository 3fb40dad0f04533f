"""The Tiling Engine: binning + Parameter Buffer + default traversal.

Ties the Polygon List Builder to a traversal order and exposes the
per-tile data the Tile Fetcher consumes.  This is the middle pipeline of
the paper's Figure 3 (sort-middle architecture).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..geometry.primitive import Primitive
from .binning import BinningStats, ParameterBuffer, PolygonListBuilder
from .orders import traversal_order

TileCoord = Tuple[int, int]


@dataclass
class TiledFrame:
    """One frame's worth of tiled geometry, ready for the Raster Pipeline."""

    tiles_x: int
    tiles_y: int
    tile_size: int
    parameter_buffer: ParameterBuffer
    binning_stats: BinningStats
    default_order: List[TileCoord]

    @property
    def num_tiles(self) -> int:
        """Tiles in the frame's grid."""
        return self.tiles_x * self.tiles_y

    def primitives_for(self, tile: TileCoord) -> List[Primitive]:
        """The program-ordered primitive list of one tile."""
        return self.parameter_buffer.lists.get(tile, [])

    def nonempty_tiles(self) -> List[TileCoord]:
        """Tiles with primitives, in traversal order."""
        return [t for t in self.default_order
                if t in self.parameter_buffer.lists]


class TilingEngine:
    """Runs the tiling process for each frame."""

    def __init__(self, tiles_x: int, tiles_y: int, tile_size: int,
                 order: str = "morton"):
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        self.tile_size = tile_size
        self.order = order
        self._builder = PolygonListBuilder(tiles_x, tiles_y, tile_size)
        self._default_order = traversal_order(order, tiles_x, tiles_y)

    def tile_frame(self, primitives: Sequence[Primitive]) -> TiledFrame:
        """Bin a frame's primitives; returns the TiledFrame."""
        buffer, stats = self._builder.bin(primitives)
        return TiledFrame(
            tiles_x=self.tiles_x,
            tiles_y=self.tiles_y,
            tile_size=self.tile_size,
            parameter_buffer=buffer,
            binning_stats=stats,
            default_order=list(self._default_order),
        )
