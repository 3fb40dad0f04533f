"""Tests for trace building (scene -> FrameTrace) and the trace cache."""

import pytest

from repro.workloads.params import HotspotSpec, WorkloadParams
from repro.workloads.scene import SceneBuilder
from repro.workloads.traces import TraceBuilder, TraceCache


def builder(seed=42, transaction_elimination=True, **overrides):
    defaults = dict(
        name="TST", title="Test", style="2D", seed=seed,
        memory_intensive=True, roaming_sprites=4,
        hotspots=(HotspotSpec(center=(0.5, 0.5), sprites=3, layers=2),),
        hud_elements=2, num_textures=3,
        texture_size=64, detail_texture_size=64,
        scroll_speed=16.0,
    )
    defaults.update(overrides)
    params = WorkloadParams(**defaults)
    scenes = SceneBuilder(params, 256, 128)
    return TraceBuilder(scenes, 256, 128, 32,
                        transaction_elimination=transaction_elimination)


class TestTraceBuilding:
    def test_grid_dimensions(self):
        trace = builder().build(0)
        assert (trace.tiles_x, trace.tiles_y) == (8, 4)
        assert len(trace.workloads) == 32  # every tile has a workload

    def test_nonempty_tiles_have_work(self):
        trace = builder().build(0)
        busy = [w for w in trace.workloads.values() if w.instructions]
        assert busy
        for w in busy:
            assert w.fragments > 0
            assert w.num_primitives > 0
            assert sum(w.prim_fragments) == w.fragments

    def test_geometry_fields_populated(self):
        trace = builder().build(0)
        assert trace.geometry_cycles > 0
        assert len(trace.vertex_lines)
        assert trace.vertex_instructions > 0

    def test_pb_lines_only_for_occupied_tiles(self):
        trace = builder().build(0)
        for tile, w in trace.workloads.items():
            if w.num_primitives == 0:
                assert len(w.pb_lines) == 0

    def test_first_frame_flushes_every_tile(self):
        trace = builder().build(0)
        assert all(len(w.fb_lines) for w in trace.workloads.values())

    def test_build_many_indices(self):
        traces = builder().build_many(3, start=2)
        assert [t.frame_index for t in traces] == [2, 3, 4]


class TestTransactionElimination:
    def test_static_tiles_skip_flush_on_second_frame(self):
        b = builder(scroll_speed=0.0, wobble=0.0)
        b.build(0)
        second = b.build(0)  # identical content
        flushed = [w for w in second.workloads.values() if len(w.fb_lines)]
        assert len(flushed) == 0

    def test_moving_content_keeps_flushing(self):
        b = builder(scroll_speed=16.0)
        b.build(0)
        second = b.build(1)
        flushed = [w for w in second.workloads.values() if len(w.fb_lines)]
        assert flushed

    def test_disabled_flushes_everything(self):
        b = builder(transaction_elimination=False, scroll_speed=0.0,
                    wobble=0.0)
        b.build(0)
        second = b.build(0)
        assert all(len(w.fb_lines) for w in second.workloads.values())


class TestFrameCoherence:
    def test_consecutive_traces_similar_footprints(self):
        b = builder(scroll_speed=2.0, wobble=0.5)
        a = b.build(0)
        c = b.build(1)
        common = 0
        total = 0
        for tile, wa in a.workloads.items():
            la = set(wa.texture_lines)
            lb = set(c.workloads[tile].texture_lines)
            if not la and not lb:
                continue
            common += len(la & lb)
            total += len(la | lb)
        assert total > 0
        assert common / total > 0.5  # most lines shared frame-to-frame


class TestTraceCache:
    def test_roundtrip(self, tmp_path):
        cache = TraceCache(tmp_path)
        b = builder()
        traces = cache.get_or_build("k", b, 2)
        again = cache.get("k")
        assert again is not None
        assert len(again) == 2
        assert again[0].total_instructions() == \
            traces[0].total_instructions()

    def test_miss_returns_none(self, tmp_path):
        assert TraceCache(tmp_path).get("absent") is None

    def test_get_or_build_extends(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", builder(), 1)
        more = cache.get_or_build("k", builder(), 3)
        assert len(more) == 3

    def test_get_or_build_honours_start(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", builder(), 2)
        later = cache.get_or_build("k", builder(), 2, start=2)
        assert [t.frame_index for t in later] == [2, 3]
        again = cache.get_or_build("k", builder(), 1, start=2)
        assert [t.frame_index for t in again] == [2]

    def test_corrupt_file_ignored(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", builder(), 1)
        for path in tmp_path.iterdir():
            path.write_bytes(b"garbage")
        assert cache.get("k") is None
