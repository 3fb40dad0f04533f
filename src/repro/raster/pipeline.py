"""Functional per-tile Raster Pipeline.

Runs the right-hand pipeline of the paper's Figure 3 for one tile:
Rasterizer -> Early-Z -> Fragment Stage -> Blending -> Color Buffer, then
flushes the Color Buffer to the Frame Buffer.  Two uses:

* **Rendering** — with ``shade_colors=True`` it produces actual frame
  images (examples, correctness tests).
* **Tracing** — with ``shade_colors=False`` it measures, per tile, exactly
  what the timing model needs: shaded fragment counts, instruction and
  texture-fetch totals, and the ordered texture-line footprint of every
  primitive (see :mod:`repro.workloads.traces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..geometry.primitive import Primitive
from .blending import blend
from .fragment import (FragmentProcessor, pick_mip_level, tile_texture_lines,
                       touched_lines)
from .framebuffer import FrameBuffer, TileColorBuffer
from .rasterizer import FragmentBatch, rasterize_in_region, rasterize_tile
from .texture import TextureSet
from .zbuffer import TileZBuffer, filter_batch

TileCoord = Tuple[int, int]


@dataclass
class TileRenderResult:
    """Measurements (and optionally pixels) from rendering one tile."""

    tile: TileCoord
    fragments_rasterized: int = 0
    fragments_early_rejected: int = 0
    fragments_shaded: int = 0
    quads: int = 0
    instructions: int = 0
    texture_fetches: int = 0
    #: Ordered texture cache-line footprint (per primitive, concatenated).
    texture_lines: List[int] = field(default_factory=list)
    #: Frame-buffer lines written by this tile's Color Buffer flush.
    framebuffer_lines: List[int] = field(default_factory=list)
    #: Tile pixels (tile_size, tile_size, 4) when shading was enabled.
    pixels: Optional[np.ndarray] = None
    #: Primitives in this tile's list (all of them cost raster setup).
    num_primitives: int = 0
    #: Shaded-fragment count per primitive that shaded anything.
    prim_fragments: List[int] = field(default_factory=list)
    #: Instruction count per primitive, aligned with ``prim_fragments``.
    prim_instructions: List[int] = field(default_factory=list)


class RasterPipeline:
    """Functional raster pipeline over a tile grid."""

    def __init__(self, width: int, height: int, tile_size: int,
                 textures: TextureSet, shade_colors: bool = True,
                 collect_lines: bool = True,
                 framebuffer: Optional[FrameBuffer] = None,
                 batched: bool = True):
        self.width = width
        self.height = height
        self.tile_size = tile_size
        self.textures = textures
        self.shade_colors = shade_colors
        self.collect_lines = collect_lines
        #: Render each tile as one array pass over all its primitives;
        #: ``False`` keeps the per-primitive scalar path, the parity
        #: oracle the batched pass is checked against (the two are
        #: bit-identical).
        self.batched = batched
        self.framebuffer = framebuffer or FrameBuffer(
            width, height, store_pixels=shade_colors)
        self._zbuffer = TileZBuffer(tile_size)
        self._colorbuffer = TileColorBuffer(tile_size)

    def process_tile(self, tile: TileCoord,
                     primitives: List[Primitive]) -> TileRenderResult:
        """Render one tile's primitive list in program order."""
        x0 = tile[0] * self.tile_size
        y0 = tile[1] * self.tile_size
        self._zbuffer.reset(x0, y0)
        self._colorbuffer.reset(x0, y0)
        result = TileRenderResult(tile=tile, num_primitives=len(primitives))
        if self.batched:
            self._render_batched(result, primitives, x0, y0)
        else:
            self._render_scalar(result, primitives, x0, y0)
        result.framebuffer_lines = self.framebuffer.flush_tile(
            x0, y0, self._colorbuffer)
        if self.shade_colors:
            result.pixels = self._colorbuffer.snapshot()
        return result

    def _render_batched(self, result: TileRenderResult,
                        primitives: List[Primitive], x0: int,
                        y0: int) -> None:
        """The whole tile as one array pass, bit-identical to the scalar
        loop: rasterize every primitive (:func:`rasterize_tile`), resolve
        Early-Z in program order (:meth:`TileZBuffer.test_tile`), count
        per primitive with ``bincount`` and a quad bitmap, and compute
        every texture footprint at once (:func:`tile_texture_lines`).
        """
        size = self.tile_size
        fragments = rasterize_tile(primitives, x0, y0, size, size)
        result.fragments_rasterized = fragments.count
        if fragments.count == 0:
            return
        table = self.textures.mip_table()
        late_z, depth_write, instructions, fetches, rows = np.array(
            [(prim.late_z, prim.depth_write,
              prim.shader.fragment_instructions,
              prim.shader.texture_fetches,
              table.row.get(prim.texture_id, -1))
             for prim in primitives], dtype=np.int64).T
        passed = self._zbuffer.test_tile(fragments, depth_write != 0)
        # A Late-Z primitive shades every fragment; its depth test only
        # masks the blend.
        shaded = passed | (late_z != 0)[fragments.prim_id]
        visible = fragments if shaded.all() else fragments.select(shaded)
        counts = visible.counts()
        quads = visible.quad_counts(x0, y0, size, size)
        instructions = counts * instructions
        drawn = np.flatnonzero(counts)
        result.fragments_early_rejected = fragments.count - visible.count
        result.fragments_shaded = visible.count
        result.instructions = int(instructions.sum())
        result.quads = int(quads.sum())
        # The texture unit works at quad granularity (one coalesced
        # access per quad per sampled texture).
        result.texture_fetches = int((quads * fetches).sum())
        result.prim_fragments = counts[drawn].tolist()
        result.prim_instructions = instructions[drawn].tolist()
        if self.collect_lines:
            result.texture_lines = tile_texture_lines(
                table, visible, rows, fetches).tolist()
        if self.shade_colors:
            processor = FragmentProcessor(self.textures)
            blend_masks = passed[shaded]
            for index in drawn.tolist():
                prim = primitives[index]
                blend_mask = None
                if prim.late_z:
                    blend_mask = blend_masks[visible.offsets[index]:
                                             visible.offsets[index + 1]]
                self._shade(processor, prim, visible.batch_for(index),
                            blend_mask)

    def _render_scalar(self, result: TileRenderResult,
                       primitives: List[Primitive], x0: int,
                       y0: int) -> None:
        """One primitive at a time: the parity oracle of the batched
        pass."""
        processor = FragmentProcessor(self.textures)
        for prim in primitives:
            batch = rasterize_in_region(prim, x0, y0, self.tile_size,
                                        self.tile_size)
            result.fragments_rasterized += batch.count
            if batch.count == 0:
                continue
            if prim.late_z:
                # Late-Z: the shader may modify depth, so every fragment
                # is shaded and the visibility test runs afterwards.
                # (Our cost model never actually changes depth values,
                # so the test outcome is the same — but the *cost* is
                # charged for all fragments, as in hardware.)
                passed = self._zbuffer.test(batch,
                                            depth_write=prim.depth_write)
                visible = batch
                blend_mask = passed
            else:
                passed = self._zbuffer.test(batch,
                                            depth_write=prim.depth_write)
                visible = filter_batch(batch, passed)
                blend_mask = None
                result.fragments_early_rejected += \
                    batch.count - visible.count
            if visible.count == 0:
                continue
            quads = visible.quad_count()
            result.quads += quads
            result.prim_fragments.append(visible.count)
            result.prim_instructions.append(
                visible.count * prim.shader.fragment_instructions)
            # The texture unit works at quad granularity (one coalesced
            # access per quad per sampled texture).
            result.texture_fetches += quads * prim.shader.texture_fetches
            if self.collect_lines and prim.texture_id in self.textures:
                result.texture_lines.extend(
                    self._footprint(prim, visible))
            if self.shade_colors:
                self._shade(processor, prim, visible, blend_mask)
            else:
                processor.charge(prim, visible.count)
        result.fragments_shaded = processor.fragments_shaded
        result.instructions = processor.instructions

    def _shade(self, processor: FragmentProcessor, prim: Primitive,
               visible: FragmentBatch,
               blend_mask: Optional[np.ndarray]) -> None:
        """Shade a primitive's visible fragments and blend the ones
        ``blend_mask`` keeps (all when ``None``) into the Color Buffer."""
        colors = processor.shade(prim, visible)
        survivors = visible if blend_mask is None \
            else filter_batch(visible, blend_mask)
        if survivors.count:
            surviving_colors = (colors if blend_mask is None
                                else colors[blend_mask])
            dst = self._colorbuffer.read(survivors.xs, survivors.ys)
            self._colorbuffer.write(
                survivors.xs, survivors.ys,
                blend(dst, surviving_colors, prim.blend))

    def _footprint(self, prim, visible) -> List[int]:
        """Texture lines the primitive's fragments touch, all textures.

        A shader with ``texture_fetches`` > 1 is multitexturing (albedo +
        normal/detail maps); the extra maps are the consecutively-bound
        textures of the set, each adding its own footprint.
        """
        lines: List[int] = []
        ids = self.textures.ids()
        base_index = ids.index(prim.texture_id)
        for j in range(max(prim.shader.texture_fetches, 1)):
            texture = self.textures[ids[(base_index + j) % len(ids)]]
            level = pick_mip_level(texture, visible)
            lines.extend(touched_lines(texture, visible, level))
        return lines

    def render_frame(self, tiled_frame) -> np.ndarray:
        """Render every tile of a tiled frame; returns the image (H, W, 4).

        ``tiled_frame`` is a :class:`repro.tiling.engine.TiledFrame`; tiles
        are processed in its default traversal order (results do not
        depend on tile order — a property the test suite checks).
        """
        for tile in tiled_frame.default_order:
            self.process_tile(tile, tiled_frame.primitives_for(tile))
        return self.framebuffer.image()
