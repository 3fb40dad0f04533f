"""Tests for the telemetry subsystem (events, metrics, exporters).

The two load-bearing guarantees:

* **disabled = free and inert** — a disabled hub swallows nothing and
  touches nothing;
* **enabled = observation only** — a run with telemetry on is
  bit-identical to the same run with it off.
"""

import io
import json

import pytest

from repro.config import libra_config
from repro.core import LibraScheduler
from repro.gpu import GPUSimulator
from repro.telemetry import (DRAMSample, FSMState, FSMTransition, HUB,
                             HarnessSpan, Histogram, JsonlSink,
                             MetricsRegistry, PID_JOB, PID_WORKER0,
                             PhaseBegin, PhaseEnd, PointTraceSink,
                             RecordingSink, TileDispatch, TileRetire,
                             chrome_trace, fleet_chrome_trace,
                             fleet_trace_events, metric_name,
                             render_exposition, telemetry_session)
from repro.telemetry.exposition import cumulative_counts
from repro.workloads import TraceBuilder, make_scene_builder

WIDTH, HEIGHT, TILE = 256, 128, 32


def _small_traces(benchmark="GDL", frames=2):
    builder = make_scene_builder(benchmark, WIDTH, HEIGHT)
    return TraceBuilder(builder, WIDTH, HEIGHT, TILE).build_many(frames)


def _run_libra(traces):
    cfg = libra_config(screen_width=WIDTH, screen_height=HEIGHT)
    sim = GPUSimulator(cfg, scheduler=LibraScheduler(cfg.scheduler),
                       name="libra")
    return sim.run(traces)


def _fingerprint(result):
    """Everything observable about a run, hashable for comparison."""
    return (
        result.total_cycles,
        result.raster_dram_accesses,
        tuple((f.frame_index, f.geometry_cycles, f.raster_cycles,
               f.order, f.supertile_size,
               round(f.texture_hit_ratio, 12), f.raster_dram_accesses,
               tuple(sorted(f.per_tile_dram.items())))
              for f in result.frames),
    )


class TestHubLifecycle:
    def test_disabled_by_default_and_emits_nothing(self):
        assert HUB.enabled is False
        sink = RecordingSink()
        # The instrumentation contract: emit() is only reached behind an
        # ``if HUB.enabled:`` guard, so a disabled hub simply never sees
        # events.  Simulate a full run and assert nothing was recorded.
        HUB.add_sink(sink)
        try:
            _run_libra(_small_traces(frames=1))
        finally:
            HUB.remove_sink(sink)
        assert sink.events == []

    def test_session_restores_prior_state(self):
        assert HUB.enabled is False
        with telemetry_session(RecordingSink()):
            assert HUB.enabled is True
        assert HUB.enabled is False
        assert HUB.sinks == []

    def test_seq_is_strictly_increasing_emit_order(self):
        sink = RecordingSink()
        with telemetry_session(sink):
            HUB.emit(PhaseBegin(name="a", ts=5))
            HUB.emit(PhaseEnd(name="a", ts=9))
            HUB.emit(PhaseBegin(name="b", ts=9))
        seqs = [e.seq for e in sink.events]
        assert len(seqs) == 3
        assert all(b > a for a, b in zip(seqs, seqs[1:]))

    def test_run_event_stream_is_ordered(self):
        sink = RecordingSink()
        with telemetry_session(sink):
            _run_libra(_small_traces(frames=2))
        assert len(sink.events) > 0
        seqs = [e.seq for e in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        # Phases nest: the first event is the run-begin, the last the
        # run-end, and every frame emits geometry before raster.
        assert isinstance(sink.events[0], PhaseBegin)
        assert sink.events[0].name.startswith("run:")
        assert isinstance(sink.events[-1], PhaseEnd)
        names = [e.name for e in sink.events if isinstance(e, PhaseBegin)]
        assert names.count("geometry") == 2
        assert names.count("raster") == 2


class TestParity:
    def test_enabled_run_is_bit_identical_to_disabled(self):
        traces = _small_traces(frames=2)
        plain = _fingerprint(_run_libra(traces))
        with telemetry_session(RecordingSink()):
            observed = _fingerprint(_run_libra(traces))
        again = _fingerprint(_run_libra(traces))
        assert observed == plain
        assert again == plain  # and the hub left no residue behind


class TestMetrics:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc()
        reg.counter("a.b").inc(4)
        reg.gauge("c").set(2.5)
        assert reg.snapshot() == {"a.b": 5, "c": 2.5}
        with pytest.raises(ValueError):
            reg.counter("a.b").inc(-1)

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_histogram_bucket_edges(self):
        h = Histogram("h", (10, 20, 40))
        # Inclusive upper bounds: 10 -> first bucket, 11 -> second,
        # 40 -> last bounded bucket, 41 -> overflow.
        for v in (0, 10, 11, 20, 21, 40, 41, 1000):
            h.observe(v)
        assert h.counts == [2, 2, 2, 2]
        assert h.count == 8
        assert h.min_seen == 0 and h.max_seen == 1000
        assert h.mean == pytest.approx(sum((0, 10, 11, 20, 21, 40, 41,
                                            1000)) / 8)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", ())
        with pytest.raises(ValueError):
            Histogram("h", (10, 10, 20))
        with pytest.raises(ValueError):
            Histogram("h", (20, 10))

    def test_histogram_snapshot_shape(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (100, 200))
        h.observe(50)
        h.observe(250)
        snap = reg.snapshot()
        assert snap["lat.count"] == 2
        assert snap["lat.sum"] == 300
        assert snap["lat.le_100"] == 1
        assert snap["lat.le_200"] == 0
        assert snap["lat.le_inf"] == 1

    def test_reset_keeps_cached_instruments_live(self):
        reg = MetricsRegistry()
        counter = reg.counter("n")
        counter.inc(3)
        reg.reset()
        assert reg.snapshot()["n"] == 0
        counter.inc()  # the cached reference still feeds the registry
        assert reg.snapshot()["n"] == 1

    def test_width_limited_counter_saturates(self):
        # The paper's Section III-E stat-buffer widths: 16-bit access
        # and 24-bit instruction fields saturate instead of wrapping.
        reg = MetricsRegistry()
        access = reg.counter("st.accesses", width_bits=16)
        access.inc((1 << 16) - 2)
        assert not access.saturated
        access.inc(5)  # would cross the ceiling
        assert access.value == (1 << 16) - 1
        assert access.saturated
        access.inc(1000)  # stays pinned, never wraps
        assert access.value == (1 << 16) - 1
        instr = reg.counter("st.instructions", width_bits=24)
        instr.inc(1 << 30)
        assert instr.value == (1 << 24) - 1

    def test_counter_width_fixed_at_creation(self):
        reg = MetricsRegistry()
        c = reg.counter("n", width_bits=8)
        assert reg.counter("n", width_bits=32) is c  # width ignored
        c.inc(10_000)
        assert c.value == 255
        with pytest.raises(ValueError):
            MetricsRegistry().counter("bad", width_bits=0)

    def test_histogram_boundary_values_merge_consistently(self):
        # Observations exactly on bucket bounds must land in the same
        # bucket whether observed directly or folded in via merge.
        a = Histogram("h", (10, 20, 40))
        b = Histogram("h", (10, 20, 40))
        for v in (10, 20, 40):
            a.observe(v)
            b.observe(v)
        a.merge(b)
        assert a.counts == [2, 2, 2, 0]
        assert a.count == 6
        assert a.total == 140
        assert a.min_seen == 10 and a.max_seen == 40

    def test_histogram_merge_rejects_bucket_mismatch(self):
        a = Histogram("h", (10, 20))
        with pytest.raises(ValueError, match="different buckets"):
            a.merge(Histogram("h", (10, 30)))

    def test_dump_merge_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.counter("w", width_bits=16).inc(70_000)  # saturated
        reg.gauge("g").set(1.25)
        h = reg.histogram("lat", (100, 200))
        h.observe(100)
        h.observe(250)
        rebuilt = MetricsRegistry.from_state(reg.dump())
        assert rebuilt.snapshot() == reg.snapshot()
        # The width survives the trip: merging more keeps saturating.
        rebuilt.counter("w").inc(1)
        assert rebuilt.snapshot()["w"] == (1 << 16) - 1

    def test_merge_adds_counters_and_histograms(self):
        a = MetricsRegistry()
        a.counter("dram.reads").inc(10)
        a.histogram("lat", (100,)).observe(50)
        a.gauge("ratio").set(0.5)
        b = MetricsRegistry()
        b.counter("dram.reads").inc(32)
        b.histogram("lat", (100,)).observe(150)
        b.gauge("ratio").set(0.9)
        a.merge(b)
        snap = a.snapshot()
        assert snap["dram.reads"] == 42
        assert snap["lat.count"] == 2
        assert snap["lat.le_100"] == 1
        assert snap["lat.le_inf"] == 1
        assert snap["ratio"] == 0.9  # last write wins

    def test_merge_rejects_unknown_state_type(self):
        with pytest.raises(ValueError, match="unknown state type"):
            MetricsRegistry().merge({"x": {"type": "exotic", "value": 1}})

    def test_run_populates_expected_names(self):
        with telemetry_session(RecordingSink()):
            _run_libra(_small_traces(frames=2))
            snap = HUB.metrics.snapshot()
        assert snap["frames"] == 2
        assert snap["ru0.tiles_retired"] > 0
        assert snap["ru0.tile_latency_cycles.count"] > 0
        assert snap["dram.reads"] > 0
        assert 0.0 <= snap["l1tex.hit_ratio"] <= 1.0
        assert snap["l2.accesses"] > 0


class TestChromeTrace:
    def _events(self):
        events = [
            PhaseBegin(name="raster", ts=0, frame=0),
            TileDispatch(ru=0, tile=(1, 2), ts=0),
            TileRetire(ru=0, tile=(1, 2), ts=400, start_ts=0,
                       dram_lines=7, instructions=64),
            FSMTransition(machine="order", old="zorder",
                          new="temperature"),
            DRAMSample(ts=1000, requests=12, utilization=0.4,
                       latency_cycles=150.0),
            PhaseEnd(name="raster", ts=1200, frame=0),
            HarnessSpan(name="GDL/libra", wall_start_s=10.0,
                        wall_dur_s=0.5, status="ok", attempts=1),
        ]
        for i, event in enumerate(events):
            event.seq = i + 1
        return events

    def test_document_schema(self):
        doc = chrome_trace(self._events(), metrics={"frames": 1})
        # Round-trip through JSON: must serialize and keep its shape.
        doc = json.loads(json.dumps(doc))
        assert isinstance(doc["traceEvents"], list)
        for entry in doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(entry)
            assert entry["ph"] == "M" or isinstance(entry["ts"], int)
            if entry["ph"] == "X":
                assert entry["dur"] >= 1
        assert doc["otherData"]["metrics"] == {"frames": 1}

    def test_track_mapping(self):
        events = chrome_trace(self._events())["traceEvents"]
        by_ph = {}
        for entry in events:
            by_ph.setdefault(entry["ph"], []).append(entry)
        # Tile span on the RU process, harness span on the harness one.
        pids = {e["pid"] for e in by_ph["X"]}
        assert 100 in pids and 999 in pids
        assert {e["pid"] for e in by_ph["B"]} == {0}
        assert any(e["name"] == "dram.bandwidth" for e in by_ph["C"])
        assert any(e["name"].startswith("fsm:") for e in by_ph["i"])
        names = {e["args"]["name"] for e in by_ph["M"]
                 if e["name"] == "process_name"}
        assert {"sim", "RU 0", "harness"} <= names

    def test_missing_ts_reuses_last_seen(self):
        events = chrome_trace(self._events())["traceEvents"]
        fsm = next(e for e in events if e["name"].startswith("fsm:"))
        assert fsm["ts"] == 400  # the TileRetire before it
        assert fsm["args"]["ts_inferred"] is True

    def test_process_and_thread_metadata(self):
        events = chrome_trace(self._events())["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        by_pid = {}
        for entry in meta:
            by_pid.setdefault(entry["pid"], {})[entry["name"]] = \
                entry["args"]
        for pid in (0, 100, 999):
            assert by_pid[pid]["process_name"]["name"]
            assert by_pid[pid]["process_sort_index"]["sort_index"] == pid
        # The thread label names the time domain of each track.
        assert by_pid[0]["thread_name"]["name"] == "simulated cycles"
        assert by_pid[999]["thread_name"]["name"] == "wall clock"

    def test_ts_units_recorded_in_other_data(self):
        doc = chrome_trace(self._events())
        units = doc["otherData"]["ts_units"]
        assert units["harness"] == "wall-clock microseconds"
        assert units["sim"] == units["ru"] == "simulated GPU cycles"
        # The legacy single-unit key stays for older readers.
        assert doc["otherData"]["ts_unit"] == "simulated GPU cycles"

    def test_tsless_frame_event_clamped_into_its_frame(self):
        # Frame 0 runs [0, 1000], frame 1 runs [5000, 6000].  An FSM
        # snapshot for frame 1 emitted before frame 1's timed phases
        # (so last_ts is still 1000) must not land at the end of frame
        # 0 — it is clamped forward to frame 1's begin.
        events = [
            PhaseBegin(name="frame", ts=0, frame=0),
            PhaseEnd(name="frame", ts=1000, frame=0),
            FSMState(machine="order", state="zorder", frame=1),
            PhaseBegin(name="frame", ts=5000, frame=1),
            PhaseEnd(name="frame", ts=6000, frame=1),
        ]
        for i, event in enumerate(events):
            event.seq = i + 1
        trace = chrome_trace(events)["traceEvents"]
        fsm = next(e for e in trace if e["name"].startswith("fsm:"))
        assert fsm["ts"] == 5000
        assert fsm["args"]["ts_inferred"] is True

    def test_tsless_frame_event_clamped_backwards(self):
        # Symmetrically: a frame-0 instant emitted after a later
        # timestamp was seen clamps back into frame 0's window.
        events = [
            PhaseBegin(name="frame", ts=0, frame=0),
            PhaseEnd(name="frame", ts=1000, frame=0),
            PhaseBegin(name="frame", ts=5000, frame=1),
            FSMState(machine="order", state="zorder", frame=0),
            PhaseEnd(name="frame", ts=6000, frame=1),
        ]
        for i, event in enumerate(events):
            event.seq = i + 1
        trace = chrome_trace(events)["traceEvents"]
        fsm = next(e for e in trace if e["name"].startswith("fsm:"))
        assert fsm["ts"] == 1000
        assert fsm["args"]["ts_inferred"] is True


class TestCliTrace:
    def test_trace_tri_overlap_acceptance(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.cli import main
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "trace.json")
        code = main(["--width", "256", "--height", "128",
                     "trace", "tri_overlap", "--frames", "2",
                     "--out", out])
        assert code == 0
        doc = json.loads(open(out).read())
        events = doc["traceEvents"]
        assert events
        # Per-RU tile duration events, FSM instants, DRAM counter track.
        assert any(e["ph"] == "X" and e["pid"] >= 100 and e["pid"] < 999
                   for e in events)
        assert any(e["ph"] == "i" and e["name"].startswith("fsm:")
                   for e in events)
        assert any(e["ph"] == "C" and e["name"] == "dram.bandwidth"
                   for e in events)
        assert capsys.readouterr().out.startswith("wrote ")

    def test_trace_frames_format_unchanged(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.cli import main
        from repro.workloads import load_traces
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = str(tmp_path / "t.jsonl.gz")
        code = main(["--width", "256", "--height", "128",
                     "trace", "GDL", "--frames", "2", "--out", out])
        assert code == 0
        assert len(load_traces(out)) == 2


class TestExposition:
    def test_renders_every_metric_family(self):
        reg = MetricsRegistry()
        reg.counter("dram.reads").inc(7)
        reg.gauge("l1tex.hit_ratio").set(0.5)
        h = reg.histogram("lat.s", (0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = render_exposition(reg)
        assert ("# TYPE repro_dram_reads_total counter\n"
                "repro_dram_reads_total 7") in text
        assert ("# TYPE repro_l1tex_hit_ratio gauge\n"
                "repro_l1tex_hit_ratio 0.5") in text
        assert "# TYPE repro_lat_s histogram" in text
        assert 'repro_lat_s_bucket{le="0.1"} 1' in text
        assert 'repro_lat_s_bucket{le="1"} 2' in text
        assert 'repro_lat_s_bucket{le="+Inf"} 3' in text
        assert "repro_lat_s_count 3" in text
        assert "repro_lat_s_sum 5.55" in text
        assert text.endswith("\n")

    def test_names_mangled_into_exposition_charset(self):
        assert metric_name("http.latency_s.job.result") \
            == "repro_http_latency_s_job_result"
        assert metric_name("a-b c/d", "_total") == "repro_a_b_c_d_total"
        import re
        for dotted in ("x.y", "weird name!", "a:b"):
            assert re.fullmatch(r"[a-zA-Z_:][a-zA-Z0-9_:]*",
                                metric_name(dotted))

    def test_inf_bucket_equals_count(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (10, 20))
        for v in (5, 15, 25, 100):
            h.observe(v)
        text = render_exposition(reg)
        assert 'repro_lat_bucket{le="+Inf"} 4' in text
        assert "repro_lat_count 4" in text
        assert cumulative_counts(h.counts)[-1] == h.count

    def test_render_is_pure_function_of_dump_state(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.25)
        reg.histogram("h", (1.0, 2.0)).observe(1.5)
        rebuilt = MetricsRegistry.from_state(reg.dump())
        assert render_exposition(reg) == render_exposition(rebuilt)
        assert render_exposition(reg) == render_exposition(reg.dump())

    def test_unknown_dump_types_are_skipped_not_fatal(self):
        state = {"new.metric": {"type": "exotic", "value": 1}}
        assert render_exposition(state) == "\n"

    def test_empty_registry_renders_empty_document(self):
        assert render_exposition(MetricsRegistry()) == "\n"


class TestSnapshotCumulativeBuckets:
    def test_cumulative_counts_method(self):
        h = Histogram("h", (10, 20, 40))
        for v in (0, 10, 11, 20, 21, 40, 41, 1000):
            h.observe(v)
        assert h.counts == [2, 2, 2, 2]  # storage stays non-cumulative
        assert h.cumulative_counts() == [2, 4, 6, 8]
        assert h.cumulative_counts()[-1] == h.count

    def test_snapshot_carries_cumulative_expansion(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", (100, 200))
        h.observe(50)
        h.observe(250)
        snap = reg.snapshot()
        # The non-cumulative keys are unchanged (pinned above)...
        assert snap["lat.le_100"] == 1 and snap["lat.le_inf"] == 1
        # ...and the cumulative expansion sits alongside them.
        assert snap["lat.le_cum_100"] == 1
        assert snap["lat.le_cum_200"] == 1
        assert snap["lat.le_cum_inf"] == snap["lat.count"] == 2

    def test_snapshot_roundtrips_through_dump(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        h = reg.histogram("lat", (100, 200))
        for v in (50, 150, 250):
            h.observe(v)
        assert MetricsRegistry.from_state(reg.dump()).snapshot() \
            == reg.snapshot()


class TestCorrelatedSinks:
    def _event(self):
        event = HarnessSpan(name="GDL/libra", wall_start_s=10.0,
                            wall_dur_s=0.5, status="ok", attempts=1)
        event.seq = 1
        return event

    def test_jsonl_sink_stamps_extra_fields(self):
        stream = io.StringIO()
        sink = JsonlSink(stream, extra={"job_id": "j1",
                                        "worker_id": "w1"})
        sink.handle(self._event())
        record = json.loads(stream.getvalue())
        assert record["type"] == "HarnessSpan"
        assert record["job_id"] == "j1"
        assert record["worker_id"] == "w1"
        assert record["name"] == "GDL/libra"

    def test_event_fields_win_over_extra_on_clash(self):
        stream = io.StringIO()
        sink = JsonlSink(stream, extra={"name": "imposter"})
        sink.handle(self._event())
        assert json.loads(stream.getvalue())["name"] == "GDL/libra"

    def test_point_trace_sink_lazily_creates_file(self, tmp_path):
        path = tmp_path / "traces" / "p0.123.jsonl"
        sink = PointTraceSink(path, extra={"point_id": "p0"})
        assert not path.exists()  # nothing until the first event
        sink.handle(self._event())
        sink.close()
        record = json.loads(path.read_text().splitlines()[0])
        assert record["point_id"] == "p0"
        assert record["type"] == "HarnessSpan"

    def test_point_trace_sink_degrades_never_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        sink = PointTraceSink(blocker / "deeper" / "p.jsonl")
        sink.handle(self._event())  # must swallow the OSError
        assert sink.degraded
        sink.handle(self._event())  # and stay silent afterwards
        sink.close()


class TestFleetTraceMerge:
    def _job_dir(self, tmp_path):
        job_dir = tmp_path / "job"
        traces = job_dir / "traces"
        traces.mkdir(parents=True)
        span = {"type": "HarnessSpan", "name": "tri.p0",
                "wall_start_s": 100.0, "wall_dur_s": 2.0,
                "status": "ok", "attempts": 1,
                "job_id": "j1", "worker_id": "w1", "point_id": "p0"}
        (traces / "p0.11.jsonl").write_text(json.dumps(span) + "\n")
        events = [
            {"event": "job_submitted", "ts": 99.0, "job_id": "j1"},
            {"event": "point_claimed", "ts": 100.0, "owner": "w1",
             "point_id": "p0"},
            {"event": "point_done", "ts": 102.0, "owner": "w1",
             "point_id": "p0", "elapsed_s": 2.0},
            {"event": "point_claimed", "ts": 100.5, "owner": "w2",
             "point_id": "p1"},
            # w2's stream was lost: only the completion event remains.
            {"event": "point_done", "ts": 103.5, "owner": "w2",
             "point_id": "p1", "elapsed_s": 3.0, "attempts": 2},
            {"event": "job_done", "ts": 104.0, "job_id": "j1"},
        ]
        (job_dir / "events.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in events))
        return job_dir

    def test_one_pid_per_worker_sorted_by_id(self, tmp_path):
        events = fleet_trace_events(self._job_dir(tmp_path))
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names[PID_JOB] == "job"
        assert names[PID_WORKER0] == "worker w1"
        assert names[PID_WORKER0 + 1] == "worker w2"

    def test_spans_carry_correlation_args(self, tmp_path):
        events = fleet_trace_events(self._job_dir(tmp_path))
        spans = {e["args"]["point_id"]: e for e in events
                 if e["ph"] == "X"}
        real = spans["p0"]
        assert real["pid"] == PID_WORKER0
        assert real["dur"] == 2_000_000  # 2 s in microseconds
        assert real["args"]["job_id"] == "j1"
        assert real["args"]["status"] == "ok"
        # The lost stream is synthesized back from point_done.
        synth = spans["p1"]
        assert synth["pid"] == PID_WORKER0 + 1
        assert synth["args"]["synthesized_from"] == "point_done"
        assert synth["dur"] == 3_000_000
        assert synth["args"]["attempts"] == 2

    def test_timeline_is_relative_wall_clock_microseconds(self, tmp_path):
        events = fleet_trace_events(self._job_dir(tmp_path))
        timed = [e for e in events if e["ph"] != "M"]
        assert min(e["ts"] for e in timed) == 0  # job_submitted at t0
        claimed = [e for e in timed if e["name"] == "point_claimed"]
        assert {e["ts"] for e in claimed} == {1_000_000, 1_500_000}
        lifecycle = [e for e in timed if e["pid"] == PID_JOB]
        assert [e["name"] for e in lifecycle] \
            == ["job_submitted", "job_done"]

    def test_document_shape_and_empty_job_dir(self, tmp_path):
        doc = fleet_chrome_trace(self._job_dir(tmp_path))
        doc = json.loads(json.dumps(doc))  # JSON-serializable
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["ts_unit"].startswith("wall-clock")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert fleet_trace_events(empty) == []
