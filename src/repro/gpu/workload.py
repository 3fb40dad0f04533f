"""Tile workload descriptors — the input of the timing simulator.

A :class:`TileWorkload` captures everything the timing model needs to
execute one tile on a Raster Unit: how many shader instructions it costs,
and the ordered cache-line address streams it generates (texture reads,
Parameter Buffer reads at tile fetch, Frame Buffer writes at flush).
A :class:`FrameTrace` bundles the workloads of every tile of one frame
plus the Geometry-phase quantities.

The line streams are one-dimensional ``np.int64`` arrays (8 bytes a
line; a list of Python ints costs about 40).  Both classes convert any
integer sequence they are built with, so hand-built workloads may pass
lists.  A stream read therefore returns an array: test it with ``len``,
not truthiness, and compare it with ``np.array_equal`` or after
``.tolist()``.  Loops that walk a stream line by line through a dict
cache take it as Python ints from :func:`line_list`.

Traces are produced by :mod:`repro.workloads.traces` (driving the real
functional rasterizer) and are configuration-independent: the same trace
is reused across baseline / PTR / LIBRA runs of an experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceFormatError

TileCoord = Tuple[int, int]

#: Upper bound on plausible cache-line addresses (2^48 lines ≈ 16 PiB of
#: 64-byte lines — far beyond any modeled memory; anything larger is a
#: corrupted or miscomputed trace, not a big scene).
MAX_LINE_ADDRESS = 1 << 48


def as_lines(lines: Sequence[int]) -> np.ndarray:
    """A line stream as an ``int64`` array (no copy when it is one)."""
    return np.asarray(lines, dtype=np.int64)


def line_list(lines: Sequence[int]) -> List[int]:
    """A line stream as a list of Python ints.

    For loops that walk a stream line by line through a dict cache:
    indexing an array yields ``np.int64`` scalars, which are slower in
    Python arithmetic and would end up as the caches' keys.
    """
    return as_lines(lines).tolist()


def _no_lines() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _out_of_bounds(lines: Sequence[int]) -> Optional[int]:
    """The first address of a stream outside [0, 2^48), or None."""
    arr = np.asarray(lines)
    if len(arr) and (arr.min() < 0 or arr.max() >= MAX_LINE_ADDRESS):
        return arr[(arr < 0) | (arr >= MAX_LINE_ADDRESS)][0]
    return None


def _fields_equal(a, b) -> bool:
    """Field-wise dataclass equality, arrays compared by value."""
    for f in fields(a):
        x = getattr(a, f.name)
        y = getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


@dataclass
class TileWorkload:
    """The cost and traffic of rendering one tile.

    ``texture_lines``, ``pb_lines`` and ``fb_lines`` are ``int64``
    arrays; any integer sequence passed in is converted.
    """

    tile: TileCoord
    #: Total shader-core instructions (fragment shading work).
    instructions: int = 0
    #: Shaded fragments (post Early-Z).
    fragments: int = 0
    #: Ordered texture cache-line footprint (one entry per distinct line
    #: per primitive, in first-touch order), ``int64``.
    texture_lines: np.ndarray = field(default_factory=_no_lines)
    #: Total per-fragment texture fetches; fetches beyond the footprint
    #: re-hit resident lines and are accounted analytically.
    texture_fetches: int = 0
    #: Parameter Buffer lines read by the Tile Fetcher for this tile,
    #: ``int64``.
    pb_lines: np.ndarray = field(default_factory=_no_lines)
    #: Frame Buffer lines written by the Color Buffer flush, ``int64``
    #: (empty when transaction elimination suppressed the flush).
    fb_lines: np.ndarray = field(default_factory=_no_lines)
    #: Primitives binned into this tile (each costs rasterizer setup).
    num_primitives: int = 0
    #: Per-primitive shaded fragment counts (only primitives that shaded
    #: at least one fragment).  Drives the limited-parallelism model: a
    #: primitive with few fragments cannot fill a wide core array.
    prim_fragments: List[int] = field(default_factory=list)
    #: Per-primitive instruction counts, aligned with ``prim_fragments``.
    prim_instructions: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.texture_lines = as_lines(self.texture_lines)
        self.pb_lines = as_lines(self.pb_lines)
        self.fb_lines = as_lines(self.fb_lines)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields_equal(self, other)

    @property
    def repeat_fetches(self) -> int:
        """Texture fetches guaranteed to re-hit the L1 within this tile."""
        return max(self.texture_fetches - len(self.texture_lines), 0)

    def validate(self) -> None:
        """Raise :class:`TraceFormatError` on malformed workload data.

        (:class:`TraceFormatError` subclasses ``ValueError``, preserving
        the historical contract of this method.)
        """
        if self.instructions < 0 or self.fragments < 0:
            raise TraceFormatError(
                f"tile {self.tile}: negative workload quantities")
        if self.texture_fetches < 0 or self.num_primitives < 0:
            raise TraceFormatError(
                f"tile {self.tile}: negative counters")
        if len(self.prim_fragments) != len(self.prim_instructions):
            raise TraceFormatError(
                f"tile {self.tile}: prim_fragments/prim_instructions "
                "length mismatch")
        for name, lines in (("texture", self.texture_lines),
                            ("pb", self.pb_lines),
                            ("fb", self.fb_lines),):
            bad = _out_of_bounds(lines)
            if bad is not None:
                raise TraceFormatError(
                    f"tile {self.tile}: {name} line address {bad} "
                    "out of bounds")


@dataclass
class FrameTrace:
    """One frame of work, tiled and measured, ready for timing simulation.

    ``vertex_lines`` is an ``int64`` array; any integer sequence passed
    in is converted.
    """

    frame_index: int
    tiles_x: int
    tiles_y: int
    tile_size: int
    workloads: Dict[TileCoord, TileWorkload]
    #: Geometry-phase duration (cycles), from the Geometry Pipeline model.
    geometry_cycles: int = 0
    #: Vertex-fetch cache-line stream of the Geometry phase, ``int64``.
    vertex_lines: np.ndarray = field(default_factory=_no_lines)
    #: Shader instructions spent in vertex shading (for energy).
    vertex_instructions: int = 0

    def __post_init__(self) -> None:
        self.vertex_lines = as_lines(self.vertex_lines)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields_equal(self, other)

    @property
    def num_tiles(self) -> int:
        """Tiles in the frame's grid."""
        return self.tiles_x * self.tiles_y

    def validate(self) -> None:
        """Raise :class:`TraceFormatError` on a malformed trace.

        Checks the tile-grid consistency (positive dimensions, every
        workload's coordinate inside the grid and matching its key), and
        delegates the per-tile counter/address checks to
        :meth:`TileWorkload.validate`.  The simulator calls this at its
        trust boundary (:meth:`repro.gpu.simulator.GPUSimulator.run`) so
        a corrupt or hand-built trace fails fast with a precise message
        instead of producing nonsense timing.
        """
        if self.tiles_x <= 0 or self.tiles_y <= 0:
            raise TraceFormatError(
                f"frame {self.frame_index}: non-positive tile grid "
                f"{self.tiles_x}x{self.tiles_y}")
        if self.tile_size <= 0:
            raise TraceFormatError(
                f"frame {self.frame_index}: non-positive tile size "
                f"{self.tile_size}")
        if self.geometry_cycles < 0 or self.vertex_instructions < 0:
            raise TraceFormatError(
                f"frame {self.frame_index}: negative geometry counters")
        for coord, workload in self.workloads.items():
            tx, ty = coord
            if not (0 <= tx < self.tiles_x and 0 <= ty < self.tiles_y):
                raise TraceFormatError(
                    f"frame {self.frame_index}: tile {coord} outside "
                    f"the {self.tiles_x}x{self.tiles_y} grid")
            if workload.tile != coord:
                raise TraceFormatError(
                    f"frame {self.frame_index}: workload keyed {coord} "
                    f"claims tile {workload.tile}")
            workload.validate()
        if _out_of_bounds(self.vertex_lines) is not None:
            raise TraceFormatError(
                f"frame {self.frame_index}: vertex line address "
                "out of bounds")

    def all_tiles(self) -> List[TileCoord]:
        """Every tile of the grid, row-major (the schedule domain)."""
        return [(x, y) for y in range(self.tiles_y)
                for x in range(self.tiles_x)]

    def workload_for(self, tile: TileCoord) -> TileWorkload:
        """The workload of a tile; empty tiles get a flush-only workload."""
        existing = self.workloads.get(tile)
        if existing is not None:
            return existing
        return TileWorkload(tile=tile)

    def total_instructions(self) -> int:
        """Total shader instructions across all tiles."""
        return sum(w.instructions for w in self.workloads.values())

    def total_fragments(self) -> int:
        """Total shaded fragments across all tiles."""
        return sum(w.fragments for w in self.workloads.values())

    def total_texture_lines(self) -> int:
        """Total texture-line footprint across all tiles."""
        return sum(len(w.texture_lines) for w in self.workloads.values())

    def per_tile_metric(self, metric: str) -> Dict[TileCoord, float]:
        """Per-tile values of a named metric over non-empty tiles."""
        getters = {
            "instructions": lambda w: float(w.instructions),
            "fragments": lambda w: float(w.fragments),
            "texture_lines": lambda w: float(len(w.texture_lines)),
        }
        try:
            get = getters[metric]
        except KeyError:
            raise ValueError(f"unknown metric {metric!r}") from None
        return {tile: get(w) for tile, w in self.workloads.items()}
