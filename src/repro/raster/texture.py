"""Textures: procedural images, mipmaps, sampling and cache-line layout.

Textures are stored (conceptually) in main memory in a blocked layout:
each 64-byte cache line holds a 4x4 block of RGBA8 texels, the layout
mobile GPUs use so that a screen-space-local fragment quad touches few
lines.  The same address math feeds both the functional sampler (which
needs actual texel data, generated procedurally from the texture's seed)
and the timing model (which only needs line addresses).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..config import CACHE_LINE_BYTES

#: Texels per side of the square block stored in one cache line (RGBA8).
BLOCK = 4
#: Texels per cache line.
TEXELS_PER_LINE = BLOCK * BLOCK


class Texture:
    """One mipmapped texture with a blocked main-memory layout."""

    def __init__(self, texture_id: int, width: int, height: int,
                 base_address: int, seed: int = 0, style: str = "noise"):
        if width < BLOCK or height < BLOCK:
            raise ValueError(f"texture must be at least {BLOCK}x{BLOCK}")
        if width & (width - 1) or height & (height - 1):
            raise ValueError("texture dimensions must be powers of two")
        if base_address % CACHE_LINE_BYTES:
            raise ValueError("texture base must be line-aligned")
        self.texture_id = texture_id
        self.width = width
        self.height = height
        self.base_address = base_address
        self.seed = seed
        self.style = style
        self.levels = int(math.log2(min(width, height) // BLOCK)) + 1
        self._level_line_offsets: List[int] = []
        offset = 0
        for level in range(self.levels):
            self._level_line_offsets.append(offset)
            offset += self.blocks_x(level) * self.blocks_y(level)
        self._total_lines = offset
        self._data: Dict[int, np.ndarray] = {}

    # -- geometry ---------------------------------------------------------
    def level_width(self, level: int) -> int:
        """Texel width of a mip level."""
        return max(self.width >> level, BLOCK)

    def level_height(self, level: int) -> int:
        """Texel height of a mip level."""
        return max(self.height >> level, BLOCK)

    def blocks_x(self, level: int) -> int:
        """4x4-texel blocks per row of a mip level."""
        return self.level_width(level) // BLOCK

    def blocks_y(self, level: int) -> int:
        """4x4-texel block rows of a mip level."""
        return self.level_height(level) // BLOCK

    def size_bytes(self) -> int:
        """Total footprint of all mip levels in main memory."""
        return self._total_lines * CACHE_LINE_BYTES

    def clamp_level(self, level: int) -> int:
        """Clamp a mip level into the texture's valid range."""
        return min(max(level, 0), self.levels - 1)

    # -- addressing ---------------------------------------------------------
    def level_base_line(self, level: int) -> int:
        """First cache-line address of a mip level's block array."""
        level = self.clamp_level(level)
        return (self.base_address // CACHE_LINE_BYTES
                + self._level_line_offsets[level])

    def line_address(self, level: int, bx: int, by: int) -> int:
        """Cache-line address of block (bx, by) of a mip level."""
        level = self.clamp_level(level)
        bx %= self.blocks_x(level)
        by %= self.blocks_y(level)
        index = (self._level_line_offsets[level]
                 + by * self.blocks_x(level) + bx)
        return self.base_address // CACHE_LINE_BYTES + index

    def footprint_lines(self, u0: float, v0: float, u1: float, v1: float,
                        level: int = 0) -> List[int]:
        """Line addresses covering the UV rectangle at a mip level.

        Texture addressing wraps (GL_REPEAT); a UV span >= 1 covers the
        whole level.  Lines come back in row-major block order, which is
        the order a scanline of fragment quads first touches them.
        """
        level = self.clamp_level(level)
        nbx, nby = self.blocks_x(level), self.blocks_y(level)
        bxs = self._wrapped_block_range(u0, u1, nbx)
        bys = self._wrapped_block_range(v0, v1, nby)
        base = self.base_address // CACHE_LINE_BYTES
        offset = self._level_line_offsets[level]
        return [base + offset + by * nbx + bx for by in bys for bx in bxs]

    @staticmethod
    def _wrapped_block_range(c0: float, c1: float, nblocks: int) -> List[int]:
        if c1 < c0:
            c0, c1 = c1, c0
        if c1 - c0 >= 1.0:
            return list(range(nblocks))
        b0 = int(math.floor(c0 * nblocks)) % nblocks
        b1 = int(math.floor(c1 * nblocks - 1e-12)) % nblocks
        if b0 <= b1:
            return list(range(b0, b1 + 1))
        return list(range(b0, nblocks)) + list(range(0, b1 + 1))

    # -- functional sampling -------------------------------------------------
    def data(self, level: int = 0) -> np.ndarray:
        """Procedural texel data for a mip level, (H, W, 4) uint8."""
        level = self.clamp_level(level)
        cached = self._data.get(level)
        if cached is not None:
            return cached
        w, h = self.level_width(level), self.level_height(level)
        rng = np.random.default_rng(
            (self.seed * 1_000_003 + level) & 0xFFFF_FFFF)
        if self.style == "noise":
            texels = rng.integers(0, 256, size=(h, w, 4), dtype=np.uint8)
        elif self.style == "checker":
            ys, xs = np.mgrid[0:h, 0:w]
            check = ((xs // BLOCK + ys // BLOCK) % 2).astype(np.uint8)
            texels = np.empty((h, w, 4), dtype=np.uint8)
            base = rng.integers(64, 192, size=4, dtype=np.uint8)
            texels[...] = base
            texels[check == 1] = 255 - base
        elif self.style == "gradient":
            ys, xs = np.mgrid[0:h, 0:w]
            texels = np.empty((h, w, 4), dtype=np.uint8)
            texels[..., 0] = (255 * xs / max(w - 1, 1)).astype(np.uint8)
            texels[..., 1] = (255 * ys / max(h - 1, 1)).astype(np.uint8)
            texels[..., 2] = rng.integers(0, 256)
            texels[..., 3] = 255
        else:
            raise ValueError(f"unknown texture style {self.style!r}")
        texels[..., 3] = 255  # opaque alpha by default
        self._data[level] = texels
        return texels

    def sample(self, u: float, v: float, level: int = 0) -> np.ndarray:
        """Point-sample (wrapped) — returns float RGBA in [0, 1]."""
        data = self.data(level)
        h, w = data.shape[:2]
        x = int(math.floor(u * w)) % w
        y = int(math.floor(v * h)) % h
        return data[y, x].astype(np.float64) / 255.0

    def sample_bilinear(self, u: float, v: float,
                        level: int = 0) -> np.ndarray:
        """Bilinear sample (wrapped) — returns float RGBA in [0, 1]."""
        data = self.data(level)
        h, w = data.shape[:2]
        x = u * w - 0.5
        y = v * h - 0.5
        x0, y0 = int(math.floor(x)), int(math.floor(y))
        fx, fy = x - x0, y - y0
        c00 = data[y0 % h, x0 % w].astype(np.float64)
        c10 = data[y0 % h, (x0 + 1) % w].astype(np.float64)
        c01 = data[(y0 + 1) % h, x0 % w].astype(np.float64)
        c11 = data[(y0 + 1) % h, (x0 + 1) % w].astype(np.float64)
        top = c00 * (1 - fx) + c10 * fx
        bottom = c01 * (1 - fx) + c11 * fx
        return (top * (1 - fy) + bottom * fy) / 255.0


def select_mip(texture: Texture, uv_area: float, pixel_area: float) -> int:
    """Choose the mip level for ~1 texel per pixel.

    ``uv_area`` is the area of the primitive's UV footprint (UV units²),
    ``pixel_area`` its screen coverage in pixels.  The level halves the
    texel density per step, so level = ½ log2(texels / pixels).
    """
    if pixel_area <= 0.0:
        return texture.levels - 1
    texels = abs(uv_area) * texture.width * texture.height
    if texels <= 0.0:
        return 0
    ratio = texels / pixel_area
    if ratio <= 1.0:
        return 0
    # Standard LOD selection: level = floor(log2(texels-per-pixel-axis)),
    # keeping the sampled density in [1, 4) texels per pixel.
    return texture.clamp_level(int(0.5 * math.log2(ratio)))


class MipTable:
    """The mip geometry of a :class:`TextureSet`, as arrays.

    Row ``k`` describes the ``k``-th texture in ID order, column ``l``
    its mip level ``l`` clamped to the texture's range, so array code can
    address the levels of many textures at once.
    """

    def __init__(self, textures: List[Texture]):
        #: Row of each texture ID.
        self.row = {tex.texture_id: k for k, tex in enumerate(textures)}
        self.width = np.array([tex.width for tex in textures],
                              dtype=np.int64)
        self.height = np.array([tex.height for tex in textures],
                               dtype=np.int64)
        self.levels = np.array([tex.levels for tex in textures],
                               dtype=np.int64)
        columns = range(int(self.levels.max(initial=1)))
        self.level_width = np.array(
            [[tex.level_width(tex.clamp_level(level)) for level in columns]
             for tex in textures], dtype=np.int64).reshape(-1, len(columns))
        self.level_height = np.array(
            [[tex.level_height(tex.clamp_level(level)) for level in columns]
             for tex in textures], dtype=np.int64).reshape(-1, len(columns))
        self.base_line = np.array(
            [[tex.level_base_line(level) for level in columns]
             for tex in textures], dtype=np.int64).reshape(-1, len(columns))

    def __len__(self) -> int:
        return len(self.row)


class TextureSet:
    """All textures bound for a frame, addressable by ID.

    Allocates non-overlapping main-memory regions; the workload generator
    sizes this set per benchmark (the "memory footprint" column of
    Table II).
    """

    def __init__(self, base_address: int = 0x8000_0000):
        self._base = base_address
        self._next = base_address
        self._textures: Dict[int, Texture] = {}
        self._mip_table: Optional[MipTable] = None

    def add(self, width: int, height: int, seed: int = 0,
            style: str = "noise",
            texture_id: Optional[int] = None) -> Texture:
        """Allocate a new texture after the previous one; returns it."""
        if texture_id is None:
            texture_id = len(self._textures)
        if texture_id in self._textures:
            raise ValueError(f"texture id {texture_id} already in use")
        tex = Texture(texture_id, width, height, self._next,
                      seed=seed, style=style)
        self._next += tex.size_bytes()
        self._textures[texture_id] = tex
        self._mip_table = None
        return tex

    def __getitem__(self, texture_id: int) -> Texture:
        return self._textures[texture_id]

    def __contains__(self, texture_id: int) -> bool:
        return texture_id in self._textures

    def __len__(self) -> int:
        return len(self._textures)

    def ids(self) -> List[int]:
        """Sorted texture IDs in the set."""
        return sorted(self._textures)

    def mip_table(self) -> MipTable:
        """The set's mip geometry as arrays (rebuilt after an :meth:`add`)."""
        if self._mip_table is None:
            self._mip_table = MipTable([self[i] for i in self.ids()])
        return self._mip_table

    def total_bytes(self) -> int:
        """Main-memory footprint of the whole set."""
        return sum(t.size_bytes() for t in self._textures.values())
