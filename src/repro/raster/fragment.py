"""The Fragment Stage: shading fragments and deriving their texture traffic.

Shaders are cost models (see :class:`~repro.geometry.mesh.ShaderProfile`),
so "executing" one means (a) producing a color functionally — a textured
lookup modulated per draw — and (b) accounting its instructions and
texture fetches, including the exact set of texture cache lines the
fragments touch (vectorized over the fragment batch).
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..geometry.primitive import Primitive
from .rasterizer import FragmentBatch
from .texture import BLOCK, MipTable, Texture, TextureSet, select_mip


def pick_mip_level(texture: Texture, batch: FragmentBatch) -> int:
    """Mip level for one primitive's fragments in one tile.

    Derived from the batch's UV footprint versus its pixel count — the
    per-batch analogue of the per-quad derivative hardware uses.
    """
    if batch.count == 0:
        return 0
    u_span = float(batch.u.max() - batch.u.min())
    v_span = float(batch.v.max() - batch.v.min())
    uv_area = u_span * v_span
    if uv_area <= 0.0:
        return 0
    return select_mip(texture, uv_area, float(batch.count))


def touched_lines(texture: Texture, batch: FragmentBatch,
                  level: int) -> List[int]:
    """Texture cache lines the batch touches, in first-touch order."""
    if batch.count == 0:
        return []
    level = texture.clamp_level(level)
    w = texture.level_width(level)
    h = texture.level_height(level)
    nbx = texture.blocks_x(level)
    tx = (np.floor(batch.u * w).astype(np.int64) % w) // BLOCK
    ty = (np.floor(batch.v * h).astype(np.int64) % h) // BLOCK
    block_index = ty * nbx + tx
    _, first_pos = np.unique(block_index, return_index=True)
    ordered = block_index[np.sort(first_pos)]
    base = texture.level_base_line(level)
    return [int(base + b) for b in ordered]


#: log2(BLOCK): texel to block coordinate.
_BLOCK_SHIFT = BLOCK.bit_length() - 1
#: Fragment fetches one pass of :func:`tile_texture_lines` expands at
#: most (plus one primitive's fragments): it bounds the working set of
#: tiles with heavy overdraw and multitexturing.
FOOTPRINT_CHUNK = 8192


def tile_texture_lines(table: MipTable, u: np.ndarray, v: np.ndarray,
                       offsets: np.ndarray, rows: np.ndarray,
                       fetches: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Texture lines of the shaded fragments of a tile or a chunk of
    tiles, in trace order, and the (P,) number of lines of each primitive.

    ``u``, ``v`` and ``offsets`` are the UVs and the (P + 1,) offsets of
    the shaded fragments of P primitives, packed as
    :class:`~repro.raster.rasterizer.TileFragments`; ``rows``
    gives each primitive's texture row in ``table`` (-1 when its texture
    is not in the set) and ``fetches`` its texture fetches.  A
    primitive with ``f`` fetches samples the ``max(f, 1)`` textures
    bound consecutively from its own (multitexturing).  The lines are
    the concatenation, per primitive with fragments and a bound texture
    and per sampled texture, of :func:`touched_lines` at
    :func:`pick_mip_level`: the same levels and first-touch line order.
    Primitives share nothing, so the lines of consecutive primitives
    are those of one tile's list.
    """
    counts = offsets[1:] - offsets[:-1]
    drawn = np.flatnonzero(counts)
    # One segment per (primitive, sampled texture).
    slots = np.where(rows[drawn] < 0, 0, np.maximum(fetches[drawn], 1))
    seg = np.repeat(np.arange(len(drawn)), slots)
    if seg.size == 0:
        return (np.zeros(0, dtype=np.int64),
                np.zeros(len(counts), dtype=np.int64))
    # pick_mip_level: UV span of each drawn primitive's fragments.
    first = offsets[drawn]
    area = ((np.maximum.reduceat(u, first) - np.minimum.reduceat(u, first))
            * (np.maximum.reduceat(v, first)
               - np.minimum.reduceat(v, first)))[seg]
    prim, first = drawn[seg], first[seg]
    row = (rows[prim] + np.arange(len(seg))
           - (np.cumsum(slots) - slots)[seg]) % len(table)
    length = counts[prim]
    # select_mip; math.log2 keeps the scalar path's rounding.
    ratio = np.abs(area) * table.width[row] * table.height[row] / length
    level = np.zeros(len(seg), dtype=np.int64)
    mipped = ratio > 1.0
    level[mipped] = [int(0.5 * math.log2(r))
                     for r in ratio[mipped].tolist()]
    level = np.minimum(level, table.levels[row] - 1)
    width = table.level_width[row, level]
    height = table.level_height[row, level]
    base = table.base_line[row, level]

    # touched_lines depends on the fragments and the level's size only:
    # consecutive segments of one primitive whose levels have the same
    # size touch the same blocks, so each such run is computed once, over
    # a chunk of runs at a time.  Level sizes are powers of two (Texture
    # enforces it), so the wrap and block steps are masks and shifts.
    runs = np.ones(len(seg), dtype=bool)
    runs[1:] = (prim[1:] != prim[:-1]) | (width[1:] != width[:-1]) \
        | (height[1:] != height[:-1])
    shared = np.flatnonzero(runs)
    blocks, found = [], []
    for a, b in _chunks(length[shared], FOOTPRINT_CHUNK):
        pick = shared[a:b]
        lens = length[pick]
        owner = np.repeat(np.arange(b - a), lens)
        index = np.arange(len(owner)) \
            + (first[pick] - (np.cumsum(lens) - lens))[owner]
        w = width[pick][owner]
        h = height[pick][owner]
        tx = (np.floor(u[index] * w).astype(np.int64) & (w - 1)) \
            >> _BLOCK_SHIFT
        ty = (np.floor(v[index] * h).astype(np.int64) & (h - 1)) \
            >> _BLOCK_SHIFT
        block = ty * (w >> _BLOCK_SHIFT) + tx
        touched = _first_touch((owner << 32) + block)
        blocks.append(block[touched])
        found.append(np.bincount(owner[touched], minlength=b - a))
    blocks = np.concatenate(blocks)
    found = np.concatenate(found)
    if len(shared) == len(seg):
        # No run is shared: the blocks are already in segment order.
        count = found
        lines = np.repeat(base, found) + blocks
    else:
        # Every segment lists its run's blocks above its own level base.
        run = np.cumsum(runs) - 1
        count = found[run]
        index = np.arange(int(count.sum())) + np.repeat(
            (np.cumsum(found) - found)[run] - (np.cumsum(count) - count),
            count)
        lines = np.repeat(base, count) + blocks[index]
    per_prim = np.bincount(prim, weights=count, minlength=len(counts))
    return lines, per_prim.astype(np.int64)


def _chunks(lengths: np.ndarray, limit: int) -> List[Tuple[int, int]]:
    """Consecutive ``(start, stop)`` slices of ``lengths``: a slice ends
    where the running total crosses a multiple of ``limit``, so it sums
    to less than ``limit`` plus its last length."""
    ends = np.cumsum(lengths)
    if ends[-1] <= limit:
        return [(0, len(lengths))]
    cuts = np.flatnonzero(np.diff((ends - lengths) // limit)) + 1
    bounds = [0, *cuts.tolist(), len(lengths)]
    return list(zip(bounds[:-1], bounds[1:]))


def _first_touch(keys: np.ndarray) -> np.ndarray:
    """Position of each distinct key's first occurrence, ascending."""
    # A key equal to its predecessor is never a first touch; dropping
    # those runs first shrinks the sort.
    runs = np.ones(len(keys), dtype=bool)
    runs[1:] = keys[1:] != keys[:-1]
    candidates = np.flatnonzero(runs)
    keys = keys[candidates]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    first = candidates[order[new]]
    first.sort()
    return first


class FragmentProcessor:
    """Shades fragment batches against the bound texture set."""

    def __init__(self, textures: TextureSet):
        self.textures = textures
        self.instructions = 0
        self.texture_fetches = 0
        self.fragments_shaded = 0

    def charge(self, prim: Primitive, count: int) -> None:
        """Account the cost of shading ``count`` fragments of a primitive."""
        self.fragments_shaded += count
        self.instructions += count * prim.shader.fragment_instructions
        self.texture_fetches += count * prim.shader.texture_fetches

    def shade(self, prim: Primitive, batch: FragmentBatch) -> np.ndarray:
        """Produce (N, 4) RGBA colors for the batch (functional path)."""
        self.charge(prim, batch.count)
        if batch.count == 0:
            return np.empty((0, 4))
        if prim.texture_id in self.textures:
            texture = self.textures[prim.texture_id]
            level = pick_mip_level(texture, batch)
            colors = _sample_batch(texture, batch, level)
        else:
            # Untextured draw: flat color derived from the texture id so
            # output is deterministic and visually distinguishable.
            rng = np.random.default_rng(prim.texture_id)
            colors = np.tile(rng.uniform(0.2, 1.0, size=4), (batch.count, 1))
        if prim.blend == "alpha":
            colors = colors.copy()
            colors[:, 3] *= 0.8
        return colors


def _sample_batch(texture: Texture, batch: FragmentBatch,
                  level: int) -> np.ndarray:
    """Vectorized point-sampling of a whole batch (wrapped addressing)."""
    data = texture.data(level)
    h, w = data.shape[:2]
    xs = np.floor(batch.u * w).astype(np.int64) % w
    ys = np.floor(batch.v * h).astype(np.int64) % h
    return data[ys, xs].astype(np.float64) / 255.0


def batch_uv_bounds(batch: FragmentBatch) -> Tuple[float, float, float, float]:
    """(min_u, min_v, max_u, max_v) of a non-empty batch."""
    if batch.count == 0:
        raise ValueError("empty batch has no UV bounds")
    return (float(batch.u.min()), float(batch.v.min()),
            float(batch.u.max()), float(batch.v.max()))
