"""Tests for JSON trace interchange."""

import json

import pytest

from repro.config import GPUConfig
from repro.errors import TraceFormatError
from repro.gpu import GPUSimulator
from repro.gpu.workload import FrameTrace, TileWorkload
from repro.workloads.trace_io import (load_traces, save_traces,
                                      trace_from_dict, trace_to_dict)


def make_trace(frame_index=0):
    workloads = {
        (0, 0): TileWorkload(
            tile=(0, 0), instructions=1234, fragments=150,
            texture_lines=[1, 5, 9], texture_fetches=40,
            pb_lines=[100], fb_lines=[200, 201],
            num_primitives=2, prim_fragments=[100, 50],
            prim_instructions=[800, 434]),
        (1, 1): TileWorkload(tile=(1, 1)),  # empty: should be omitted
    }
    return FrameTrace(frame_index=frame_index, tiles_x=2, tiles_y=2,
                      tile_size=32, workloads=workloads,
                      geometry_cycles=777, vertex_lines=[3, 4],
                      vertex_instructions=64)


class TestDictRoundtrip:
    def test_roundtrip_preserves_workloads(self):
        trace = make_trace()
        back = trace_from_dict(trace_to_dict(trace))
        assert back.frame_index == trace.frame_index
        assert back.geometry_cycles == 777
        assert back.vertex_lines.tolist() == [3, 4]
        original = trace.workloads[(0, 0)]
        restored = back.workloads[(0, 0)]
        assert restored.instructions == original.instructions
        assert restored.texture_lines.tolist() == \
            original.texture_lines.tolist()
        assert restored.prim_fragments == original.prim_fragments

    def test_empty_tiles_omitted_but_regenerated(self):
        back = trace_from_dict(trace_to_dict(make_trace()))
        assert (1, 1) not in back.workloads
        # workload_for still serves a flush-only placeholder.
        assert back.workload_for((1, 1)).instructions == 0

    def test_streams_read_back_as_int64_arrays(self):
        back = trace_from_dict(trace_to_dict(make_trace()))
        assert back.vertex_lines.dtype.name == "int64"
        restored = back.workloads[(0, 0)]
        for lines in (restored.texture_lines, restored.pb_lines,
                      restored.fb_lines):
            assert lines.dtype.name == "int64"
        assert restored == make_trace().workloads[(0, 0)]

    def test_tile_with_only_primitives_survives(self):
        # Nothing shaded, no stream, but 400 primitives of raster setup:
        # dropping the tile would lose that cost.
        trace = FrameTrace(frame_index=0, tiles_x=2, tiles_y=1,
                           tile_size=32, workloads={
                               (0, 0): TileWorkload(tile=(0, 0),
                                                    num_primitives=400)})
        back = trace_from_dict(trace_to_dict(trace))
        assert back.workloads[(0, 0)].num_primitives == 400

        def cycles(t):
            config, scheduler = GPUConfig.build(
                "baseline", screen_width=64, screen_height=32)
            return GPUSimulator(config, scheduler=scheduler).run(
                [t]).total_cycles

        assert cycles(back) == cycles(trace)

    def test_dict_is_json_serializable(self):
        json.dumps(trace_to_dict(make_trace()))

    def test_version_checked(self):
        data = trace_to_dict(make_trace())
        data["version"] = 99
        with pytest.raises(ValueError):
            trace_from_dict(data)


class TestFileRoundtrip:
    def test_plain_json(self, tmp_path):
        traces = [make_trace(0), make_trace(1)]
        path = tmp_path / "traces.jsonl"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert [t.frame_index for t in loaded] == [0, 1]
        assert loaded[0].total_instructions() == \
            traces[0].total_instructions()

    def test_gzipped(self, tmp_path):
        traces = [make_trace()]
        path = tmp_path / "traces.jsonl.gz"
        save_traces(traces, path)
        loaded = load_traces(path)
        assert len(loaded) == 1
        assert path.stat().st_size > 0

    def test_gzip_smaller_than_plain(self, tmp_path):
        trace = make_trace()
        trace.workloads[(0, 0)].texture_lines = list(range(5000))
        save_traces([trace], tmp_path / "a.jsonl")
        save_traces([trace], tmp_path / "a.jsonl.gz")
        assert (tmp_path / "a.jsonl.gz").stat().st_size < \
            (tmp_path / "a.jsonl").stat().st_size


class TestCorruptedInputs:
    """Malformed files raise TraceFormatError naming the offending path."""

    def saved(self, tmp_path, name="t.jsonl"):
        path = tmp_path / name
        save_traces([make_trace(0), make_trace(1)], path)
        return path

    def test_full_roundtrip_via_dict_and_file(self, tmp_path):
        path = self.saved(tmp_path)
        loaded = load_traces(path)
        assert [trace_to_dict(t) for t in loaded] == \
            [trace_to_dict(make_trace(0)), trace_to_dict(make_trace(1))]

    def test_truncated_gzip_names_path(self, tmp_path):
        path = self.saved(tmp_path, "t.jsonl.gz")
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceFormatError) as err:
            load_traces(path)
        assert str(path) in str(err.value)

    def test_binary_garbage_plain_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"\xff\xfe\x00garbage\x80")
        with pytest.raises(TraceFormatError):
            load_traces(path)

    def test_invalid_json_line_reports_line_number(self, tmp_path):
        path = self.saved(tmp_path)
        path.write_text(path.read_text() + "\n{broken")
        with pytest.raises(TraceFormatError, match=r":3: invalid JSON"):
            load_traces(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TraceFormatError, match="JSON object"):
            load_traces(path)

    def test_version_skew_names_path(self, tmp_path):
        path = self.saved(tmp_path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        for record in records:
            record["version"] = 2
        path.write_text("\n".join(json.dumps(r) for r in records))
        with pytest.raises(TraceFormatError) as err:
            load_traces(path)
        assert str(path) in str(err.value)
        assert "version 2" in str(err.value)

    def test_missing_trace_key(self):
        data = trace_to_dict(make_trace())
        del data["tiles"]
        with pytest.raises(TraceFormatError, match="tiles"):
            trace_from_dict(data)

    def test_missing_tile_field(self):
        data = trace_to_dict(make_trace())
        del data["tiles"]["0,0"]["fragments"]
        with pytest.raises(TraceFormatError, match="fragments"):
            trace_from_dict(data)

    @pytest.mark.parametrize("value", ["abc", [[1, 2]], [None], 7])
    def test_malformed_line_stream_names_tile(self, value):
        data = trace_to_dict(make_trace())
        data["tiles"]["0,0"]["pb_lines"] = value
        with pytest.raises(TraceFormatError, match="tile 0,0 pb_lines"):
            trace_from_dict(data, source="t.jsonl:1")

    def test_malformed_vertex_stream(self):
        data = trace_to_dict(make_trace())
        data["vertex_lines"] = {"a": 1}
        with pytest.raises(TraceFormatError, match="vertex_lines"):
            trace_from_dict(data)

    def test_malformed_tile_key(self):
        data = trace_to_dict(make_trace())
        data["tiles"]["not-a-coord"] = data["tiles"].pop("0,0")
        with pytest.raises(TraceFormatError, match="tile key"):
            trace_from_dict(data)

    def test_error_is_a_value_error(self):
        # Pre-taxonomy callers caught ValueError; the subclass keeps
        # that contract.
        data = trace_to_dict(make_trace())
        data["version"] = 99
        with pytest.raises(ValueError):
            trace_from_dict(data)
