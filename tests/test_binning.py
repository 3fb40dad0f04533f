"""Tests for the Polygon List Builder and Parameter Buffer."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.config import CACHE_LINE_BYTES
from repro.geometry.mesh import ShaderProfile
from repro.geometry.primitive import Primitive
from repro.tiling.binning import (BinningStats, ParameterBuffer,
                                  PolygonListBuilder, triangle_overlaps_rect)


def prim(xy, sequence=0):
    return Primitive(
        xy=np.array(xy, dtype=np.float64),
        depth=np.zeros(3), inv_w=np.ones(3),
        uv_over_w=np.zeros((3, 2)),
        texture_id=0, shader=ShaderProfile(), sequence=sequence)


class TestOverlapTest:
    def test_triangle_inside_rect(self):
        assert triangle_overlaps_rect(
            np.array([[1, 1], [2, 1], [1, 2]]), 0, 0, 4, 4)

    def test_rect_inside_triangle(self):
        assert triangle_overlaps_rect(
            np.array([[-10, -10], [50, -10], [-10, 50]]), 0, 0, 4, 4)

    def test_disjoint(self):
        assert not triangle_overlaps_rect(
            np.array([[10, 10], [12, 10], [10, 12]]), 0, 0, 4, 4)

    def test_thin_diagonal_misses_corner_tile(self):
        # A sliver along the anti-diagonal of a 64x64 area overlaps the two
        # corner tiles it passes through, not the opposite corners.
        xy = np.array([[0.0, 63.0], [63.0, 0.0], [63.5, 0.5]])
        assert not triangle_overlaps_rect(xy, 0, 0, 16, 16)
        assert triangle_overlaps_rect(xy, 48, 0, 64, 16)

    def test_bbox_overlap_but_no_true_overlap(self):
        xy = np.array([[0.0, 0.0], [20.0, 0.0], [0.0, 20.0]])
        # Rect sits in the triangle's bbox but beyond the hypotenuse.
        assert not triangle_overlaps_rect(xy, 15, 15, 20, 20)

    @given(seed=st.integers(0, 5_000))
    def test_exact_is_subset_of_bbox(self, seed):
        rng = np.random.default_rng(seed)
        xy = rng.uniform(0, 64, size=(3, 2))
        rx0, ry0 = rng.uniform(0, 48, size=2)
        rx1, ry1 = rx0 + 16, ry0 + 16
        if triangle_overlaps_rect(xy, rx0, ry0, rx1, ry1):
            assert xy[:, 0].max() > rx0 and xy[:, 0].min() < rx1
            assert xy[:, 1].max() > ry0 and xy[:, 1].min() < ry1


class TestBinning:
    def test_single_tile_primitive(self):
        builder = PolygonListBuilder(4, 4, 32)
        buffer, stats = builder.bin([prim([[2, 2], [10, 2], [2, 10]])])
        assert list(buffer.lists) == [(0, 0)]
        assert stats.tile_entries == 1

    def test_spanning_primitive_in_all_overlapped_tiles(self):
        builder = PolygonListBuilder(4, 4, 32)
        buffer, _ = builder.bin(
            [prim([[0, 0], [128, 0], [0, 128]])])
        # The hypotenuse cuts the grid; the fully-covered lower-left
        # triangle of tiles must all contain it.
        assert (0, 0) in buffer.lists
        assert (1, 1) in buffer.lists
        assert (3, 3) not in buffer.lists

    def test_program_order_preserved_per_tile(self):
        builder = PolygonListBuilder(2, 2, 32)
        prims = [prim([[0, 0], [60, 0], [0, 60]], sequence=i)
                 for i in range(5)]
        buffer, _ = builder.bin(prims)
        for lst in buffer.lists.values():
            sequences = [p.sequence for p in lst]
            assert sequences == sorted(sequences)

    def test_offscreen_primitive_skipped(self):
        builder = PolygonListBuilder(2, 2, 32)
        buffer, stats = builder.bin(
            [prim([[200, 200], [210, 200], [200, 210]])])
        assert stats.primitives_binned == 0
        assert not buffer.lists

    def test_conservative_mode_uses_bbox(self):
        xy = [[0.0, 0.0], [63.0, 0.0], [0.0, 63.0]]
        exact_buffer, _ = PolygonListBuilder(2, 2, 32).bin([prim(xy)])
        loose_buffer, _ = PolygonListBuilder(2, 2, 32, exact=False).bin(
            [prim(xy)])
        assert (1, 1) not in exact_buffer.lists
        assert (1, 1) in loose_buffer.lists

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            PolygonListBuilder(0, 2, 32)

    def test_stats_max_entries(self):
        builder = PolygonListBuilder(2, 2, 32)
        prims = [prim([[0, 0], [10, 0], [0, 10]], sequence=i)
                 for i in range(3)]
        _, stats = builder.bin(prims)
        assert stats.max_entries_per_tile == 3
        assert stats.nonempty_tiles == 1


class TestParameterBuffer:
    def _filled(self):
        builder = PolygonListBuilder(2, 2, 32)
        prims = [prim([[0, 0], [60, 0], [0, 60]], sequence=i)
                 for i in range(4)]
        buffer, _ = builder.bin(prims)
        return buffer

    def test_size_counts_all_entries(self):
        buffer = self._filled()
        assert buffer.size_bytes() == buffer.total_entries * buffer.entry_bytes

    def test_fetch_addresses_cover_list_bytes(self):
        buffer = self._filled()
        for tile, lst in buffer.lists.items():
            lines = buffer.fetch_addresses(tile)
            needed = len(lst) * buffer.entry_bytes
            covered = len(lines) * CACHE_LINE_BYTES
            assert covered >= needed
            assert lines == sorted(lines)

    def test_fetch_addresses_empty_tile(self):
        buffer = self._filled()
        assert buffer.fetch_addresses((9, 9)) == []

    def test_tiles_have_disjoint_interiors(self):
        buffer = self._filled()
        tiles = list(buffer.lists)
        # Interior lines (excluding boundary lines that two lists can
        # legitimately share) must not overlap between tiles.
        for i, a in enumerate(tiles):
            for b in tiles[i + 1:]:
                la, lb = buffer.fetch_addresses(a), buffer.fetch_addresses(b)
                shared = set(la[1:-1]) & set(lb[1:-1])
                assert not shared


def loop_bin(builder, primitives):
    """The per-candidate loop the array binning replaced: every tile of
    each primitive's clamped bounding box, tested one at a time with
    :func:`triangle_overlaps_rect` (the oracle)."""
    buffer = ParameterBuffer()
    stats = BinningStats()
    size = builder.tile_size
    for p in primitives:
        min_x, min_y, max_x, max_y = p.bounding_box()
        tx0 = max(int(min_x // size), 0)
        ty0 = max(int(min_y // size), 0)
        tx1 = min(int(max_x // size), builder.tiles_x - 1)
        ty1 = min(int(max_y // size), builder.tiles_y - 1)
        if tx1 < tx0 or ty1 < ty0:
            continue
        stats.primitives_binned += 1
        for ty in range(ty0, ty1 + 1):
            for tx in range(tx0, tx1 + 1):
                if builder.exact and not triangle_overlaps_rect(
                        p.xy, tx * size, ty * size,
                        (tx + 1) * size, (ty + 1) * size):
                    continue
                buffer.lists.setdefault((tx, ty), []).append(p)
                stats.tile_entries += 1
    buffer.finalize()
    stats.nonempty_tiles = len(buffer.lists)
    if buffer.lists:
        stats.max_entries_per_tile = max(
            len(lst) for lst in buffer.lists.values())
    return buffer, stats


@st.composite
def triangles(draw, size):
    """Vertices on tile edges, collinear, repeated, off screen, negative
    or spanning many tiles as thin slivers."""
    coord = st.one_of(
        st.integers(-3, 8).map(lambda k: float(k * size)),
        st.floats(-3.0 * size, 8.0 * size, allow_nan=False),
        st.integers(-4 * size, 9 * size).map(lambda k: k / 2.0))
    kind = draw(st.sampled_from(["free", "collinear", "repeated", "sliver",
                                 "offscreen"]))
    a = np.array([draw(coord), draw(coord)])
    b = np.array([draw(coord), draw(coord)])
    if kind == "collinear":
        c = a + (b - a) * draw(st.sampled_from([-1.0, 0.5, 2.0]))
    elif kind == "repeated":
        c = a.copy()
    elif kind == "sliver":
        c = b + draw(st.floats(-0.5, 0.5, allow_nan=False))
    elif kind == "offscreen":
        shift = draw(st.sampled_from([-20.0, 20.0])) * size
        a, b = a + shift, b + shift
        c = a + (draw(coord), draw(coord))
    else:
        c = np.array([draw(coord), draw(coord)])
    return np.array([a, b, c])


class TestArrayBinningParity:
    """``PolygonListBuilder.bin`` equals the per-candidate loop: the same
    primitive objects in each list in program order, the same key order,
    stats and Parameter Buffer addresses."""

    @given(data=st.data(), size=st.sampled_from([8, 15, 32]),
           tiles_x=st.integers(1, 5), tiles_y=st.integers(1, 5),
           exact=st.booleans())
    def test_matches_loop(self, data, size, tiles_x, tiles_y, exact):
        vertices = data.draw(st.lists(triangles(size), max_size=25))
        prims = [prim(xy, sequence=i) for i, xy in enumerate(vertices)]
        builder = PolygonListBuilder(tiles_x, tiles_y, size, exact=exact)
        got, got_stats = builder.bin(prims)
        ref, ref_stats = loop_bin(builder, prims)
        assert list(got.lists) == list(ref.lists)
        for tile, lst in ref.lists.items():
            assert [id(p) for p in got.lists[tile]] == [id(p) for p in lst]
            assert got.fetch_addresses(tile) == ref.fetch_addresses(tile)
        assert got_stats == ref_stats
        assert got.total_entries == ref.total_entries

    def test_empty_frame(self):
        buffer, stats = PolygonListBuilder(2, 2, 32).bin([])
        assert buffer.lists == {} and stats == BinningStats()

    @pytest.mark.parametrize("name", ["GrT", "CCS", "GDL"])
    def test_suite_frames_match_loop(self, name):
        from repro.geometry.pipeline import GeometryPipeline
        from repro.workloads import SceneBuilder, get_params
        scenes = SceneBuilder(get_params(name), 256, 128)
        builder = PolygonListBuilder(8, 4, 32)
        for frame in range(2):
            scene = scenes.frame(frame)
            prims = GeometryPipeline(256, 128).run(
                scene.draws, scene.view_projection).primitives
            got, got_stats = builder.bin(prims)
            ref, ref_stats = loop_bin(builder, prims)
            assert list(got.lists) == list(ref.lists)
            assert all([id(p) for p in got.lists[tile]]
                       == [id(p) for p in lst]
                       for tile, lst in ref.lists.items())
            assert got_stats == ref_stats
