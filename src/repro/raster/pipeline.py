"""Functional per-tile Raster Pipeline.

Runs the right-hand pipeline of the paper's Figure 3 for each tile:
Rasterizer -> Early-Z -> Fragment Stage -> Blending -> Color Buffer, then
flushes the Color Buffer to the Frame Buffer.  Tiles are independent, so
the batched pass renders a chunk of tiles per array pass.  Two uses:

* **Rendering** — with ``shade_colors=True`` it produces actual frame
  images (examples, correctness tests).
* **Tracing** — with ``shade_colors=False`` it measures, per tile, exactly
  what the timing model needs: shaded fragment counts, instruction and
  texture-fetch totals, and the ordered texture-line footprint of every
  primitive (see :mod:`repro.workloads.traces`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..geometry.primitive import Primitive
from .blending import blend
from .fragment import (FragmentProcessor, pick_mip_level, tile_texture_lines,
                       touched_lines)
from .framebuffer import FrameBuffer, TileColorBuffer
from .rasterizer import (FragmentBatch, TileFragments, rasterize_in_region,
                         rasterize_tile)
from .texture import TextureSet
from .zbuffer import TileZBuffer, filter_batch

TileCoord = Tuple[int, int]

#: Fragments one array pass of :meth:`RasterPipeline.process_tiles` can
#: hold: every (tile, primitive) pair can cover its whole tile, so a
#: chunk takes whole tiles while its pairs times the tile's area stay
#: within this bound (24 pairs of 32x32 tiles).  The pass holds a few
#: arrays per fragment and a coverage mask per cell of its pairs' grid,
#: so the bound keeps its working set at or below that of the heaviest
#: tiles the one-tile pass rendered (``tests/test_raster_tile.py`` pins
#: the peaks); a tile that alone exceeds it renders as a chunk of its
#: own.
RASTER_CHUNK = 24 * 32 * 32


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
    #: Ordered texture cache-line footprint (per primitive, concatenated),
    #: ``int64``.
    texture_lines: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64))
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
        #: Render a chunk of tiles as one array pass over all their
        #: primitives; ``False`` keeps the per-primitive scalar path,
        #: the parity oracle the batched pass is checked against (the
        #: two are bit-identical).
        self.batched = batched
        self.framebuffer = framebuffer or FrameBuffer(
            width, height, store_pixels=shade_colors)
        self._zbuffer = TileZBuffer(tile_size)
        self._colorbuffer = TileColorBuffer(tile_size)

    def process_tile(self, tile: TileCoord,
                     primitives: List[Primitive]) -> TileRenderResult:
        """Render one tile's primitive list in program order."""
        [result] = self.process_tiles([(tile, primitives)])
        return result

    def process_tiles(self, items: Iterable[Tuple[TileCoord,
                                                  List[Primitive]]]
                      ) -> Iterator[TileRenderResult]:
        """Render ``(tile, primitives)`` items, each list in program
        order; yields one result per item, in item order.

        Tiles do not interact, so the batched pass renders a chunk of
        consecutive tiles at a time (:meth:`_render_chunk`): a chunk
        takes whole tiles while its (tile, primitive) pairs times the
        tile's area stays within :data:`RASTER_CHUNK`, and a tile that
        alone exceeds it is a chunk of its own.  ``batched=False``
        renders one primitive at a time (:meth:`_render_scalar`).
        """
        if not self.batched:
            for tile, primitives in items:
                yield self._render_scalar(tile, primitives)
            return
        area = self.tile_size * self.tile_size
        chunk: list = []
        pairs = 0
        for item in items:
            pairs += len(item[1])
            if chunk and pairs * area > RASTER_CHUNK:
                yield from self._render_chunk(chunk)
                chunk, pairs = [], len(item[1])
            chunk.append(item)
        if chunk:
            yield from self._render_chunk(chunk)

    def _render_chunk(self, chunk: List[Tuple[TileCoord, List[Primitive]]]
                      ) -> List[TileRenderResult]:
        """A chunk of tiles as one array pass, bit-identical to the
        scalar loop on every tile.

        Every (tile, primitive) pair is one primitive of the pass, at its
        tile's origin: rasterize them all (:func:`rasterize_tile`),
        resolve Early-Z in program order with one depth-buffer slot per
        tile (:meth:`TileZBuffer.test_tile`), count per pair with
        ``bincount`` and a quad bitmap, and compute every texture
        footprint at once (:func:`tile_texture_lines`).  A tile's pairs
        are consecutive, so its counts and lines are one slice of the
        chunk's.
        """
        size = self.tile_size
        results = [TileRenderResult(tile=tile, num_primitives=len(prims))
                   for tile, prims in chunk]
        primitives = [prim for _, prims in chunk for prim in prims]
        lengths = np.array([len(prims) for _, prims in chunk])
        origins = np.array([tile for tile, _ in chunk],
                           dtype=np.int64).reshape(-1, 2) * size
        # Pair bounds of each tile; the pairs of a tile share its origin.
        bounds = np.zeros(len(chunk) + 1, dtype=np.int64)
        np.cumsum(lengths, out=bounds[1:])
        owner = np.repeat(np.arange(len(chunk)), lengths)
        x0, y0 = origins[owner, 0], origins[owner, 1]
        # The fragments are handed over unnamed, so that _measure holds
        # the only reference and can drop them before the footprints.
        shading = self._measure(
            results, primitives, rasterize_tile(primitives, x0, y0, size,
                                                size),
            bounds, x0, y0)
        for index, (result, (ox, oy)) in enumerate(
                zip(results, origins.tolist())):
            if self.shade_colors:
                self._colorbuffer.reset(ox, oy)
                if shading is not None:
                    self._shade_tile(primitives, *shading, index)
            self._flush(result, ox, oy)
        return results

    def _measure(self, results: List[TileRenderResult],
                 primitives: List[Primitive], fragments: TileFragments,
                 bounds: np.ndarray, x0: np.ndarray, y0: np.ndarray
                 ) -> Optional[tuple]:
        """Fill in each tile's counts and texture lines from the chunk's
        fragments; returns what shading the tiles needs (``None`` when
        nothing is covered)."""
        if not fragments.count:
            return None
        size = self.tile_size
        table = self.textures.mip_table()
        late_z, depth_write, instructions, fetches, rows = np.array(
            [(prim.late_z, prim.depth_write,
              prim.shader.fragment_instructions,
              prim.shader.texture_fetches,
              table.row.get(prim.texture_id, -1))
             for prim in primitives], dtype=np.int64).T
        # One depth-buffer slot per tile, numbered over the tiles that
        # have pairs.
        lengths = np.diff(bounds)
        slot = np.repeat(np.cumsum(lengths > 0) - 1, lengths)
        passed = self._zbuffer.test_tile(fragments, depth_write != 0,
                                         slot, x0, y0)
        # A Late-Z primitive shades every fragment; its depth test only
        # masks the blend.
        shaded = passed | (late_z != 0)[fragments.prim_id]
        visible = fragments if shaded.all() else fragments.select(shaded)
        counts = visible.counts()
        quads = visible.quad_counts(x0, y0, size, size)
        instructions = counts * instructions
        drawn = np.flatnonzero(counts)
        drawn_bounds = np.searchsorted(drawn, bounds).tolist()
        prim_fragments = counts[drawn].tolist()
        prim_instructions = instructions[drawn].tolist()
        columns = [np.diff(fragments.offsets[bounds]).tolist(),
                   np.diff(visible.offsets[bounds]).tolist(),
                   _tile_sums(instructions, bounds),
                   _tile_sums(quads, bounds),
                   # The texture unit works at quad granularity (one
                   # coalesced access per quad per sampled texture).
                   _tile_sums(quads * fetches, bounds)]
        for result, (rasterized, shaded_count, instrs, quad_count,
                     texture_fetches), a, b in zip(
                results, zip(*columns), drawn_bounds, drawn_bounds[1:]):
            result.fragments_rasterized = rasterized
            result.fragments_early_rejected = rasterized - shaded_count
            result.fragments_shaded = shaded_count
            result.instructions = instrs
            result.quads = quad_count
            result.texture_fetches = texture_fetches
            result.prim_fragments = prim_fragments[a:b]
            result.prim_instructions = prim_instructions[a:b]
        shading = None
        if self.shade_colors:
            shading = (visible, passed[shaded], drawn, drawn_bounds)
        if self.collect_lines:
            u, v, offsets = visible.u, visible.v, visible.offsets
            # The footprints read only the UVs: without shading, the
            # other fragment arrays go before they run.
            del fragments, visible
            lines, per_pair = tile_texture_lines(table, u, v, offsets,
                                                 rows, fetches)
            ends = np.zeros(len(per_pair) + 1, dtype=np.int64)
            np.cumsum(per_pair, out=ends[1:])
            ends = ends[bounds].tolist()
            for result, a, b in zip(results, ends, ends[1:]):
                result.texture_lines = lines[a:b]
        return shading

    def _shade_tile(self, primitives: List[Primitive],
                    visible: TileFragments, blend_masks: np.ndarray,
                    drawn: np.ndarray, drawn_bounds: List[int],
                    index: int) -> None:
        """Shade and blend the drawn pairs of the chunk's ``index``-th
        tile in program order."""
        processor = FragmentProcessor(self.textures)
        for pair in drawn[drawn_bounds[index]:
                          drawn_bounds[index + 1]].tolist():
            prim = primitives[pair]
            blend_mask = None
            if prim.late_z:
                blend_mask = blend_masks[visible.offsets[pair]:
                                         visible.offsets[pair + 1]]
            self._shade(processor, prim, visible.batch_for(pair),
                        blend_mask)

    def _flush(self, result: TileRenderResult, x0: int, y0: int) -> None:
        """Flush the tile's Color Buffer into the Frame Buffer."""
        result.framebuffer_lines = self.framebuffer.flush_tile(
            x0, y0, self._colorbuffer)
        if self.shade_colors:
            result.pixels = self._colorbuffer.snapshot()

    def _render_scalar(self, tile: TileCoord,
                       primitives: List[Primitive]) -> TileRenderResult:
        """One primitive at a time: the parity oracle of the batched
        pass."""
        x0 = tile[0] * self.tile_size
        y0 = tile[1] * self.tile_size
        self._zbuffer.reset(x0, y0)
        if self.shade_colors:
            self._colorbuffer.reset(x0, y0)
        result = TileRenderResult(tile=tile, num_primitives=len(primitives))
        processor = FragmentProcessor(self.textures)
        lines: List[int] = []
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
                lines.extend(self._footprint(prim, visible))
            if self.shade_colors:
                self._shade(processor, prim, visible, blend_mask)
            else:
                processor.charge(prim, visible.count)
        result.fragments_shaded = processor.fragments_shaded
        result.instructions = processor.instructions
        result.texture_lines = np.array(lines, dtype=np.int64)
        self._flush(result, x0, y0)
        return result

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
        for _ in self.process_tiles(
                (tile, tiled_frame.primitives_for(tile))
                for tile in tiled_frame.default_order):
            pass
        return self.framebuffer.image()


def _tile_sums(values: np.ndarray, bounds: np.ndarray) -> List[int]:
    """Sum of ``values`` over each slice ``bounds[i]:bounds[i + 1]``."""
    ends = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=ends[1:])
    return np.diff(ends[bounds]).tolist()
