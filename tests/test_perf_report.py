"""Tests for the telemetry analysis report (repro.perf.report) and the
JSONL event reader (repro.telemetry.io) it consumes."""

import gzip
import json

import pytest

from repro.cli import main
from repro.errors import TraceFormatError
from repro.perf import build_report
from repro.perf.report import _SPARK, _sparkline
from repro.stats import coefficient_of_variation
from repro.telemetry import (CacheDelta, DRAMSample, FSMState,
                             FSMTransition, HUB, JsonlSink, PhaseBegin,
                             PhaseEnd, RecordingSink, SchedulerDecision,
                             TileRetire, load_jsonl_events,
                             telemetry_session)
from repro.workloads import TraceBuilder, make_scene_builder

WIDTH, HEIGHT, TILE = 256, 128, 32

SECTIONS = ("## DRAM bandwidth over time",
            "## Per-RU utilization and load balance",
            "## FSM decision timeline",
            "## Cache hit-ratio trend",
            "## Anomalies")


@pytest.fixture(scope="module")
def libra_run():
    """Events + metrics snapshot of a 2-frame LIBRA run."""
    from repro.config import libra_config
    from repro.core import LibraScheduler
    from repro.gpu import GPUSimulator
    builder = make_scene_builder("tri_overlap", WIDTH, HEIGHT)
    traces = TraceBuilder(builder, WIDTH, HEIGHT, TILE).build_many(2)
    cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
    sim = GPUSimulator(cfg, scheduler=LibraScheduler(cfg.scheduler),
                       name="libra")
    sink = RecordingSink()
    with telemetry_session(sink):
        sim.run(traces)
        metrics = HUB.metrics.snapshot()
    return sink.events, metrics


def _seq(events):
    for i, event in enumerate(events):
        event.seq = i + 1
    return events


class TestLiveRunReport:
    def test_all_sections_present(self, libra_run):
        events, metrics = libra_run
        report = build_report(events, metrics=metrics)
        for section in SECTIONS:
            assert section in report
        assert "## Metrics snapshot" in report

    def test_every_ru_appears_with_tiles(self, libra_run):
        events, _ = libra_run
        report = build_report(events)
        assert "| ru0 |" in report and "| ru1 |" in report
        assert "load imbalance" in report

    def test_dram_stats_computed(self, libra_run):
        events, _ = libra_run
        report = build_report(events)
        assert "burst factor (peak/mean)" in report
        assert "coefficient of variation" in report

    def test_fsm_timeline_has_decisions(self, libra_run):
        events, _ = libra_run
        report = build_report(events)
        # Per-frame scheduler decisions and FSM snapshots both render.
        assert "order `zorder`" in report or "order `temperature`" \
            in report
        assert "`order` frame" in report

    def test_empty_stream(self):
        report = build_report([])
        assert "No DRAM interval samples" in report
        assert "No tile-retire events" in report
        assert "No scheduler/FSM events" in report


class TestSparkline:
    def test_empty_series_placeholder(self):
        assert _sparkline([]) == "(no samples)"

    def test_all_equal_positive_renders_flat_mid_height(self):
        assert _sparkline([7.0, 7.0, 7.0]) == _SPARK[4] * 3

    def test_all_zero_renders_flat_floor(self):
        assert _sparkline([0.0, 0.0]) == _SPARK[1] * 2

    def test_all_equal_negative_renders_flat_floor(self):
        assert _sparkline([-3.0, -3.0]) == _SPARK[1] * 2

    def test_negative_values_clamp_instead_of_wrapping(self):
        # A negative sample must pick the floor glyph, never wrap the
        # index around to a tall bar from the end of the scale.
        line = _sparkline([-50.0, 0.0, 100.0])
        assert line[0] == _SPARK[0]
        assert line[-1] == _SPARK[8]

    def test_peak_maps_to_top_glyph(self):
        line = _sparkline([0.0, 50.0, 100.0])
        assert line == _SPARK[0] + _SPARK[4] + _SPARK[8]

    def test_long_series_resampled_to_width(self):
        line = _sparkline(list(range(600)), width=60)
        assert len(line) == 60
        assert line[-1] == _SPARK[8]


class TestCoefficientOfVariation:
    """The DRAM section's burstiness figure and its degenerate cases."""

    def test_empty_series(self):
        assert coefficient_of_variation([]) == 0.0

    def test_all_equal_has_no_variation(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0

    def test_zero_mean_is_no_signal_not_a_crash(self):
        assert coefficient_of_variation([-1.0, 1.0]) == 0.0

    def test_known_value(self):
        # mean 2, population variance 2/3
        assert coefficient_of_variation([1.0, 2.0, 3.0]) == \
            pytest.approx((2 / 3) ** 0.5 / 2)


class TestAnomalyFlags:
    def test_bursty_dram_flagged(self):
        events = _seq([DRAMSample(ts=i * 100, requests=r)
                       for i, r in enumerate([1, 1, 1, 1, 100])])
        report = build_report(events)
        assert "DRAM burst factor" in report
        assert "**flag**" in report

    def test_flat_dram_not_flagged(self):
        events = _seq([DRAMSample(ts=i * 100, requests=10)
                       for i in range(8)])
        report = build_report(events)
        assert "None — all analyses within thresholds." in report

    def test_ru_imbalance_flagged(self):
        events = _seq(
            [TileRetire(ru=0, tile=(i, 0), ts=1000 * (i + 1),
                        start_ts=1000 * i, dram_lines=5)
             for i in range(9)]
            + [TileRetire(ru=1, tile=(0, 1), ts=1000, start_ts=0,
                          dram_lines=5)])
        report = build_report(events)
        assert "RU load imbalance" in report

    def test_hit_ratio_collapse_flagged(self):
        events = _seq([
            CacheDelta(name="l1tex", frame=0, accesses=100, hits=90),
            CacheDelta(name="l1tex", frame=1, accesses=100, hits=20),
        ])
        report = build_report(events)
        assert "hit ratio dropped" in report


class TestJsonlRoundTrip:
    def test_report_from_reloaded_stream_matches(self, libra_run,
                                                 tmp_path):
        events, _ = libra_run
        path = tmp_path / "events.jsonl"
        with open(path, "w") as stream:
            sink = JsonlSink(stream)
            for event in events:
                sink.handle(event)
        reloaded = load_jsonl_events(path)
        assert len(reloaded) == len(events)
        assert [e.seq for e in reloaded] == [e.seq for e in events]
        assert build_report(reloaded) == build_report(events)

    def test_gzip_transparent(self, tmp_path):
        path = tmp_path / "events.jsonl.gz"
        events = _seq([PhaseBegin(name="run", ts=0, frame=0),
                       PhaseEnd(name="run", ts=10, frame=0)])
        with gzip.open(path, "wt") as stream:
            sink = JsonlSink(stream)
            for event in events:
                sink.handle(event)
        reloaded = load_jsonl_events(path)
        assert [type(e).__name__ for e in reloaded] == ["PhaseBegin",
                                                        "PhaseEnd"]
        assert reloaded[0].ts == 0 and reloaded[1].ts == 10

    def test_tuple_fields_restored(self, tmp_path):
        path = tmp_path / "e.jsonl"
        event = TileRetire(ru=1, tile=(3, 4), ts=50, start_ts=0)
        event.seq = 1
        with open(path, "w") as stream:
            JsonlSink(stream).handle(event)
        (reloaded,) = load_jsonl_events(path)
        assert reloaded.tile == (3, 4)

    def test_unknown_event_type_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(
            json.dumps({"type": "FutureEvent", "seq": 1}) + "\n"
            + json.dumps({"type": "PhaseBegin", "name": "run",
                          "ts": 0, "seq": 2}) + "\n")
        events = load_jsonl_events(path)
        assert len(events) == 1
        assert events[0].name == "run"

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(json.dumps(
            {"type": "DRAMSample", "ts": 5, "requests": 3,
             "seq": 1, "added_in_v99": True}) + "\n")
        (event,) = load_jsonl_events(path)
        assert event.requests == 3

    def test_malformed_json_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "PhaseBegin"}\nnot json\n')
        with pytest.raises(TraceFormatError, match=r"bad\.jsonl:2"):
            load_jsonl_events(path)

    def test_record_without_type_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 4}\n')
        with pytest.raises(TraceFormatError, match="no 'type'"):
            load_jsonl_events(path)


class TestCliReport:
    def test_report_benchmark_acceptance(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "report.md"
        code = main(["--width", "256", "--height", "128",
                     "report", "tri_overlap", "--frames", "2",
                     "--out", str(out)])
        assert code == 0
        markdown = out.read_text()
        for section in SECTIONS:
            assert section in markdown

    def test_report_from_events_file(self, capsys, tmp_path):
        events = _seq([
            PhaseBegin(name="run", ts=0, frame=0),
            SchedulerDecision(frame=0, order="zorder", supertile_size=2,
                              batches=4, ts=10),
            FSMTransition(machine="order", old=None, new="zorder"),
            FSMState(machine="order", state="zorder", frame=0),
            PhaseEnd(name="run", ts=100, frame=0),
        ])
        path = tmp_path / "events.jsonl"
        with open(path, "w") as stream:
            sink = JsonlSink(stream)
            for event in events:
                sink.handle(event)
        assert main(["report", "--events", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## FSM decision timeline" in out
        assert "initial state" in out

    def test_report_without_input_is_usage_error(self, capsys):
        assert main(["report"]) == 2
