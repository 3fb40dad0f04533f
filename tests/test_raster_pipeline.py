"""Tests for the functional per-tile raster pipeline."""

import numpy as np
import pytest

from repro.geometry import DrawCall, GeometryPipeline, ShaderProfile, quad_mesh
from repro.geometry.vecmath import orthographic
from repro.raster.pipeline import RasterPipeline
from repro.raster.texture import TextureSet
from repro.tiling.engine import TilingEngine

CAMERA = orthographic(0.0, 128.0, 0.0, 128.0, -10.0, 10.0)


def textures():
    ts = TextureSet()
    for i in range(3):
        ts.add(64, 64, seed=i)
    return ts


def tiled(draws):
    out = GeometryPipeline(128, 128).run(draws, CAMERA)
    return TilingEngine(4, 4, 32).tile_frame(out.primitives)


def pipeline(ts=None, **kwargs):
    return RasterPipeline(128, 128, 32, ts or textures(), **kwargs)


def sprite(x, y, size, z=0.0, texture_id=0, blend="opaque", fetches=1,
           insts=8):
    return DrawCall(mesh=quad_mesh(x, y, size, size, z=z),
                    texture_id=texture_id,
                    shader=ShaderProfile(fragment_instructions=insts,
                                         texture_fetches=fetches),
                    blend=blend, depth_write=(blend == "opaque"))


class TestTileProcessing:
    def test_full_tile_coverage(self):
        frame = tiled([sprite(0, 0, 128)])
        rp = pipeline()
        result = rp.process_tile((0, 0), frame.primitives_for((0, 0)))
        assert result.fragments_shaded == 1024

    def test_instructions_scale_with_fragments(self):
        frame = tiled([sprite(0, 0, 128, insts=8)])
        rp = pipeline()
        result = rp.process_tile((0, 0), frame.primitives_for((0, 0)))
        assert result.instructions == result.fragments_shaded * 8

    def test_early_z_rejects_occluded_layer(self):
        # Far quad drawn after a near opaque quad: everything rejected.
        near = sprite(0, 0, 128, z=1.0)
        far = sprite(0, 0, 128, z=0.0)
        frame = tiled([near, far])
        rp = pipeline()
        result = rp.process_tile((0, 0), frame.primitives_for((0, 0)))
        assert result.fragments_shaded == 1024
        assert result.fragments_early_rejected == 1024

    def test_painter_order_both_layers_shade(self):
        # Back-to-front: both layers survive the depth test.
        far = sprite(0, 0, 128, z=0.0)
        near = sprite(0, 0, 128, z=1.0)
        frame = tiled([far, near])
        rp = pipeline()
        result = rp.process_tile((0, 0), frame.primitives_for((0, 0)))
        assert result.fragments_shaded == 2048
        assert result.fragments_early_rejected == 0

    def test_texture_lines_collected(self):
        frame = tiled([sprite(0, 0, 128)])
        rp = pipeline()
        result = rp.process_tile((0, 0), frame.primitives_for((0, 0)))
        lines = result.texture_lines
        assert lines.dtype == np.int64
        assert len(lines)
        # One entry per distinct line of the one primitive.
        assert np.array_equal(np.sort(lines), np.unique(lines))

    def test_multitexture_fetches_extend_footprint(self):
        one = pipeline().process_tile(
            (0, 0), tiled([sprite(0, 0, 128, fetches=1)]).primitives_for((0, 0)))
        three = pipeline().process_tile(
            (0, 0), tiled([sprite(0, 0, 128, fetches=3)]).primitives_for((0, 0)))
        assert len(three.texture_lines) > len(one.texture_lines)
        assert three.texture_fetches == 3 * one.texture_fetches

    def test_texture_fetches_quad_level(self):
        frame = tiled([sprite(0, 0, 128, fetches=2)])
        result = pipeline().process_tile((0, 0),
                                         frame.primitives_for((0, 0)))
        assert result.texture_fetches == result.quads * 2

    def test_prim_lists_align(self):
        frame = tiled([sprite(0, 0, 128), sprite(10, 10, 50)])
        result = pipeline().process_tile((0, 0),
                                         frame.primitives_for((0, 0)))
        assert len(result.prim_fragments) == len(result.prim_instructions)
        assert sum(result.prim_fragments) == result.fragments_shaded
        assert result.num_primitives == len(frame.primitives_for((0, 0)))

    def test_empty_tile_still_flushes(self):
        result = pipeline().process_tile((3, 3), [])
        assert result.fragments_shaded == 0
        assert result.framebuffer_lines

    def test_trace_mode_skips_pixels(self):
        rp = pipeline(shade_colors=False)
        result = rp.process_tile(
            (0, 0), tiled([sprite(0, 0, 128)]).primitives_for((0, 0)))
        assert result.pixels is None
        assert result.instructions > 0


class TestFrameRendering:
    def test_render_full_frame(self):
        frame = tiled([sprite(0, 0, 128, texture_id=1)])
        rp = pipeline()
        image = rp.render_frame(frame)
        assert image.shape == (128, 128, 4)
        assert image[..., 3].min() >= 0.0

    def test_result_independent_of_tile_order(self):
        draws = [sprite(0, 0, 128, texture_id=0),
                 sprite(20, 20, 60, z=1.0, texture_id=1),
                 sprite(40, 10, 50, z=2.0, texture_id=2, blend="alpha")]
        frame = tiled(draws)
        forward = pipeline().render_frame(frame).copy()
        frame.default_order = list(reversed(frame.default_order))
        backward = pipeline().render_frame(frame)
        assert np.allclose(forward, backward)

    def test_blending_changes_output(self):
        base = tiled([sprite(0, 0, 128, texture_id=0)])
        layered = tiled([sprite(0, 0, 128, texture_id=0),
                         sprite(0, 0, 128, z=1.0, texture_id=1,
                                blend="alpha")])
        a = pipeline().render_frame(base).copy()
        b = pipeline().render_frame(layered)
        assert not np.allclose(a, b)



def test_trace_mode_leaves_the_color_buffer_alone(monkeypatch):
    # Without shading nothing writes the Color Buffer, so no tile clears
    # it; the tiles still measure and flush.
    frame = tiled([sprite(10, 10, 50)])
    rp = pipeline(shade_colors=False)
    monkeypatch.setattr(type(rp._colorbuffer), "reset",
                        lambda *args: pytest.fail("Color Buffer cleared"))
    results = list(rp.process_tiles(
        (tile, frame.primitives_for(tile)) for tile in frame.default_order))
    assert sum(r.fragments_shaded for r in results) == 50 * 50
    assert all(len(r.framebuffer_lines) == 64 for r in results)
