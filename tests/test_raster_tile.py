"""The batched tile pass versus the scalar oracle.

Every per-primitive slice of the packed :class:`TileFragments`
(``rasterize_tile``) must be bit-identical — coordinates, depth, UVs,
ordering — to ``rasterize_in_region``, and ``process_tile`` and the
chunked ``process_tiles`` must produce identical results, traces and
pixels with ``batched`` on or off, within the one-tile pass's memory.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.geometry.primitive import Primitive, ShaderProfile
from repro.raster.blending import BLEND_MODES
from repro.raster import pipeline as pipeline_module
from repro.raster.pipeline import RasterPipeline
from repro.raster.rasterizer import rasterize_in_region, rasterize_tile
from repro.raster.texture import TextureSet

from faults import tiny_params
from repro.workloads import get_params
from repro.workloads.scene import SceneBuilder
from repro.workloads.traces import TraceBuilder

SHADER = ShaderProfile(fragment_instructions=8, texture_fetches=1)


def _prim(xy, rng):
    inv_w = rng.uniform(0.2, 2.0, 3)
    uv = rng.uniform(0.0, 1.0, (3, 2))
    return Primitive(xy=np.asarray(xy, dtype=float),
                     depth=rng.uniform(0.0, 1.0, 3), inv_w=inv_w,
                     uv_over_w=uv * inv_w[:, None], texture_id=0,
                     shader=SHADER)


def _assert_identical(ref, got):
    assert ref.count == got.count
    for name in ("xs", "ys", "depth", "u", "v"):
        assert np.array_equal(getattr(ref, name), getattr(got, name)), name


class TestTileFragmentsParity:

    def test_random_primitive_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(60):
            count = int(rng.integers(0, 10))
            x0 = int(rng.integers(0, 3)) * 16
            y0 = int(rng.integers(0, 3)) * 16
            size = int(rng.choice([8, 16, 32]))
            prims = [_prim(rng.uniform(x0 - 12, x0 + 44, (3, 2)), rng)
                     for _ in range(count)]
            packed = rasterize_tile(prims, x0, y0, size, size)
            total = 0
            for i, prim in enumerate(prims):
                ref = rasterize_in_region(prim, x0, y0, size, size)
                _assert_identical(ref, packed.batch_for(i))
                total += ref.count
            assert packed.count == total
            assert int(packed.offsets[-1]) == total

    def test_degenerate_and_outside_primitives(self):
        rng = np.random.default_rng(1)
        degenerate = _prim([[0, 0], [8, 8], [16, 16]], rng)   # zero area
        outside = _prim([[100, 100], [120, 100], [100, 120]], rng)
        covering = _prim([[-4, -4], [40, -4], [-4, 40]], rng)
        packed = rasterize_tile([degenerate, outside, covering],
                                0, 0, 16, 16)
        assert packed.batch_for(0).count == 0
        assert packed.batch_for(1).count == 0
        ref = rasterize_in_region(covering, 0, 0, 16, 16)
        _assert_identical(ref, packed.batch_for(2))
        assert np.array_equal(np.unique(packed.prim_id), [2])

    def test_empty_primitive_list(self):
        packed = rasterize_tile([], 0, 0, 16, 16)
        assert packed.count == 0
        assert packed.offsets.tolist() == [0]

    def test_shared_edge_no_double_shade(self):
        # The top-left rule must survive batching: two triangles that
        # share an edge partition their quad exactly once.
        rng = np.random.default_rng(9)
        a = _prim([[0, 0], [16, 0], [16, 16]], rng)
        b = _prim([[0, 0], [16, 16], [0, 16]], rng)
        packed = rasterize_tile([a, b], 0, 0, 16, 16)
        keys = packed.xs * 1000 + packed.ys
        assert len(np.unique(keys)) == len(keys) == 256


#: Every field of a trace-mode :class:`TileRenderResult`.
TRACE_FIELDS = ("tile", "fragments_rasterized", "fragments_early_rejected",
                "fragments_shaded", "quads", "instructions",
                "texture_fetches", "texture_lines", "framebuffer_lines",
                "num_primitives", "prim_fragments", "prim_instructions")


def _assert_fields_equal(got, ref, context=None):
    """Every trace field of two results equal, the texture lines as
    ``int64`` arrays."""
    for name in TRACE_FIELDS:
        a, b = getattr(got, name), getattr(ref, name)
        if name == "texture_lines":
            assert a.dtype == b.dtype == np.int64, (context, name)
            assert np.array_equal(a, b), (context, name)
        else:
            assert a == b, (context, name)


def _random_tile(seed, count, size):
    """``count`` random primitives around one tile of a 4x4-tile screen.

    Large overlapping triangles with per-vertex random depths make
    Early-Z reject fragments; the flags, shaders and textures cover
    Late-Z, ``depth_write=False``, 0/1/3 texture fetches, textures
    missing from the set, degenerate and off-tile primitives, pixel
    centres on edges, and UV scales from constant (mip level 0) to
    heavily minified.
    """
    rng = np.random.default_rng(seed)
    tile = (int(rng.integers(0, 4)), int(rng.integers(0, 4)))
    return tile, _random_prims(rng, tile, count, size)


def _random_prims(rng, tile, count, size):
    """``count`` random primitives around ``tile`` (see _random_tile)."""
    x0, y0 = tile[0] * size, tile[1] * size
    prims = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:      # degenerate: collinear vertices
            p = rng.uniform(-size, 2 * size, 2)
            d = rng.uniform(-size, size, 2)
            xy = [p, p + d, p + 2 * d]
        elif kind < 0.2:    # outside the tile
            xy = rng.uniform(3 * size, 5 * size, (3, 2)) \
                * rng.choice([-1.0, 1.0])
        else:
            span = rng.choice([0.25, 1.0, 2.0]) * size
            xy = rng.uniform(-span, size + span, (3, 2))
            if rng.random() < 0.3:
                # Half-pixel vertices put pixel centres exactly on
                # edges, where the top-left fill rule decides.
                xy = np.round(xy * 2.0) / 2.0
        xy = np.asarray(xy) + (x0, y0)
        inv_w = rng.uniform(0.2, 2.0, 3)
        uv = rng.uniform(-2.0, 3.0, (3, 2)) \
            * rng.choice([0.0, 0.01, 1.0, 10.0])
        prims.append(Primitive(
            xy=xy, depth=rng.uniform(0.0, 1.0, 3), inv_w=inv_w,
            uv_over_w=uv * inv_w[:, None],
            texture_id=int(rng.choice([0, 1, 2, 99])),
            shader=ShaderProfile(
                fragment_instructions=int(rng.integers(1, 40)),
                texture_fetches=int(rng.choice([0, 1, 3]))),
            blend=str(rng.choice(BLEND_MODES)),
            depth_write=bool(rng.random() < 0.7),
            late_z=bool(rng.random() < 0.2)))
    return prims


def _parity_textures():
    textures = TextureSet()
    textures.add(64, 64, seed=1, style="noise")
    textures.add(16, 16, seed=2, style="checker")
    textures.add(256, 128, seed=3, style="gradient")
    return textures


class TestProcessTileParity:
    """Batched ``process_tile`` equals the scalar oracle on random tiles.

    The suite's own scenes never make Early-Z reject a fragment and have
    no Late-Z primitive, so this is the guard on the tile-wide depth
    resolution and everything downstream of it.
    """

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 100),
           size=st.sampled_from([8, 15, 32]))
    def test_trace_mode_fields(self, seed, count, size):
        tile, prims = _random_tile(seed, count, size)
        textures = _parity_textures()
        results = [RasterPipeline(4 * size, 4 * size, size, textures,
                                  shade_colors=False, batched=batched)
                   .process_tile(tile, prims) for batched in (True, False)]
        _assert_fields_equal(*results)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
    def test_shade_mode_pixels(self, seed, count):
        tile, prims = _random_tile(seed, count, 16)
        textures = _parity_textures()
        results = [RasterPipeline(64, 64, 16, textures, shade_colors=True,
                                  batched=batched)
                   .process_tile(tile, prims) for batched in (True, False)]
        assert np.array_equal(results[0].pixels, results[1].pixels)
        _assert_fields_equal(*results)

    def test_random_tiles_reject_fragments(self):
        # The generator must actually exercise Early-Z and Late-Z.
        rejected = late = 0
        for seed in range(20):
            tile, prims = _random_tile(seed, 40, 32)
            result = RasterPipeline(128, 128, 32, _parity_textures(),
                                    shade_colors=False).process_tile(
                                        tile, prims)
            rejected += result.fragments_early_rejected
            late += sum(prim.late_z for prim in prims)
        assert rejected > 0 and late > 0


def _random_screen(seed, size, chunk_pairs):
    """Random ``(tile, primitives)`` items over a screen of 1-3 x 1-3
    tiles whose right and bottom tiles the screen edge may clip.

    Items come in a random order and may repeat a tile.  They include
    an empty tile and a tile of ``min(chunk_pairs, 30)`` + 1-5
    primitives, more than a chunk of ``chunk_pairs`` pairs holds unless
    it holds the whole screen; the rest are _random_tile-style.
    """
    rng = np.random.default_rng(seed)
    tiles_x, tiles_y = (int(n) for n in rng.integers(1, 4, 2))
    width = tiles_x * size - int(rng.integers(0, size // 2 + 1))
    height = tiles_y * size - int(rng.integers(0, size // 2 + 1))
    grid = [(tx, ty) for ty in range(tiles_y) for tx in range(tiles_x)]
    tiles = [grid[i] for i in rng.permutation(len(grid))]
    tiles += [grid[int(i)] for i in rng.integers(0, len(grid), 2)]
    counts = [int(rng.integers(0, 12)) for _ in tiles]
    counts[0] = 0
    counts[-1] = min(chunk_pairs, 30) + int(rng.integers(1, 6))
    items = [(tile, _random_prims(rng, tile, count, size))
             for tile, count in zip(tiles, counts)]
    return width, height, [items[i] for i in rng.permutation(len(items))]


class TestProcessTilesParity:
    """Chunked ``process_tiles`` equals the scalar oracle tile by tile.

    Tile sizes 8, 15 and 32 put some tile origins at odd pixels, so quad
    cells start mid-quad; chunks hold one pair, a few pairs, or every
    tile of the screen, so tiles share a chunk's depth slots, quad
    bitmap and texture-line split.
    """

    @pytest.fixture(params=[1, 5, 10**6])
    def chunk_pairs(self, request):
        """Pairs a chunk holds: one, a few, or the whole screen."""
        return request.param

    def _compare(self, monkeypatch, seed, size, chunk_pairs, shade):
        # The bound is read per call: patch the pairs a chunk of
        # size x size tiles holds.
        monkeypatch.setattr(pipeline_module, "RASTER_CHUNK",
                            chunk_pairs * size * size)
        width, height, items = _random_screen(seed, size, chunk_pairs)
        textures = _parity_textures()
        chunked = list(RasterPipeline(width, height, size, textures,
                                      shade_colors=shade)
                       .process_tiles(items))
        oracle = RasterPipeline(width, height, size, textures,
                                shade_colors=shade, batched=False)
        assert len(chunked) == len(items)
        for got, (tile, prims) in zip(chunked, items):
            ref = oracle.process_tile(tile, prims)
            _assert_fields_equal(got, ref, tile)
            if shade:
                assert np.array_equal(got.pixels, ref.pixels), tile
        return chunked

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([8, 15, 32]))
    def test_trace_mode_fields(self, monkeypatch, seed, size, chunk_pairs):
        self._compare(monkeypatch, seed, size, chunk_pairs, shade=False)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), size=st.sampled_from([8, 15]))
    def test_shade_mode_pixels(self, monkeypatch, seed, size, chunk_pairs):
        self._compare(monkeypatch, seed, size, chunk_pairs, shade=True)

    def test_screens_exercise_the_chunk(self, monkeypatch, chunk_pairs):
        # The generator must reject at Early-Z, put origins at odd
        # pixels and give many tiles texture lines.
        rejected = odd = lined = 0
        for seed in range(6):
            for result in self._compare(monkeypatch, seed, 15, chunk_pairs,
                                        shade=False):
                rejected += result.fragments_early_rejected
                odd += result.tile[0] % 2 == 1
                lined += len(result.texture_lines) > 0
        assert rejected > 0 and odd > 0 and lined > 6


class TestChunkMemory:
    """The chunked pass holds no more memory than the one-tile pass.

    ``tracemalloc`` peak of rendering every tile of the heaviest GrT and
    GDL frames at 256x128 (frames 6 and 1: the most binned pairs among
    frames 0-7), results dropped as they come.  The bounds are the
    one-tile pass this replaced, measured the same way (5.017 and 0.841
    MiB, each set by the frame's heaviest tile: 170 and 27 pairs),
    rounded down.
    """

    @pytest.mark.parametrize("name, frame, bound_mib",
                             [("GrT", 6, 5.01), ("GDL", 1, 0.84)])
    def test_peak_at_most_one_tile_pass(self, name, frame, bound_mib):
        from repro.geometry.pipeline import GeometryPipeline
        from repro.raster.framebuffer import FrameBuffer
        from repro.tiling.engine import TilingEngine
        width, height, size = 256, 128, 32
        scenes = SceneBuilder(get_params(name), width, height)
        scene = scenes.frame(frame)
        geometry = GeometryPipeline(width, height).run(
            scene.draws, scene.view_projection)
        lists = TilingEngine(width // size, height // size, size) \
            .tile_frame(geometry.primitives).parameter_buffer.lists
        pipeline = RasterPipeline(
            width, height, size, scenes.textures, shade_colors=False,
            framebuffer=FrameBuffer(width, height, store_pixels=False))
        scenes.textures.mip_table()
        tracemalloc.start()
        try:
            for _ in pipeline.process_tiles(lists.items()):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2**20


class TestPipelineBatchedParity:

    def _traces(self, batched, params=None, width=128, height=64,
                frames=3):
        # The TraceBuilder constructs its own pipeline; steer the flag
        # through the class initializer for the duration of the build.
        scenes = SceneBuilder(params or tiny_params(), width, height)
        tb = TraceBuilder(scenes, width, height, 32)
        original = RasterPipeline.__init__

        def patched(self, *args, **kwargs):
            kwargs["batched"] = batched
            original(self, *args, **kwargs)

        RasterPipeline.__init__ = patched
        try:
            return tb.build_many(frames)
        finally:
            RasterPipeline.__init__ = original

    @staticmethod
    def _key(traces):
        out = []
        for trace in traces:
            for tile in sorted(trace.workloads):
                wl = trace.workloads[tile]
                out.append((tile, wl.instructions, wl.fragments,
                            tuple(wl.texture_lines), wl.texture_fetches,
                            tuple(wl.fb_lines), wl.num_primitives,
                            tuple(wl.prim_fragments),
                            tuple(wl.prim_instructions)))
        return out

    def test_traces_identical(self):
        assert self._key(self._traces(True)) \
            == self._key(self._traces(False))

    @pytest.mark.parametrize("name", ["GrT", "GDL"])
    def test_suite_benchmark_traces_identical(self, name):
        # Whole TileWorkloads of a many-primitive (GrT) and a
        # few-primitive (GDL) benchmark at the quick geometry.
        traces = [self._traces(batched, get_params(name), width=256,
                               height=128, frames=2)
                  for batched in (True, False)]
        assert [t.workloads for t in traces[0]] \
            == [t.workloads for t in traces[1]]

    def test_rendered_pixels_identical(self):
        from repro.geometry.pipeline import GeometryPipeline
        from repro.tiling.engine import TilingEngine
        scenes = SceneBuilder(tiny_params(), 128, 64)
        scene = scenes.frame(0)
        geometry = GeometryPipeline(128, 64).run(scene.draws,
                                                 scene.view_projection)
        tiled = TilingEngine(4, 2, 32).tile_frame(geometry.primitives)
        images = []
        for batched in (True, False):
            pipeline = RasterPipeline(128, 64, 32,
                                      textures=scenes.textures,
                                      shade_colors=True, batched=batched)
            images.append(pipeline.render_frame(tiled))
        assert np.array_equal(images[0], images[1])
