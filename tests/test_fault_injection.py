"""Fault-injection suite: every layer degrades as specified, never crashes.

The contract under test (docs/robustness.md):

* a corrupted/truncated cache entry is *quarantined and rebuilt* —
  never served, never silently deleted;
* an interrupted write never leaves a partial file visible under the
  final cache-entry name;
* malformed trace files fail with :class:`TraceFormatError` naming the
  offending path;
* invalid traces/configs/scene parameters are rejected at the
  simulator's trust boundary;
* a supervised suite run with one failing benchmark still returns
  results for all the others, with the failure recorded.
"""

import os
import pickle

import pytest

from repro import cachefile, harness
from repro.experiments import engine
from repro.errors import (BenchmarkTimeoutError, CacheCorruptionError,
                          ConfigValidationError, ReproError,
                          SimulationError, TraceFormatError)
from repro.config import RasterUnitConfig, SchedulerConfig, small_config
from repro.gpu.simulator import GPUSimulator
from repro.workloads import load_traces, save_traces
from repro.workloads.params import HotspotSpec
from repro.workloads.traces import TraceCache

from faults import (ExplodesMidPickle, ScriptedRunner, bit_flip,
                    skew_trace_version, sleepy_runner, tiny_builder,
                    tiny_params, truncate_file, valid_trace)


class TestTaxonomy:
    def test_all_errors_are_repro_errors(self):
        for exc in (CacheCorruptionError, TraceFormatError,
                    ConfigValidationError, BenchmarkTimeoutError,
                    SimulationError):
            assert issubclass(exc, ReproError)

    def test_compat_with_builtin_hierarchy(self):
        # Pre-taxonomy callers caught ValueError/TimeoutError; keep them
        # working.
        assert issubclass(TraceFormatError, ValueError)
        assert issubclass(ConfigValidationError, ValueError)
        assert issubclass(BenchmarkTimeoutError, TimeoutError)

    def test_transient_flags(self):
        assert CacheCorruptionError("x").transient
        assert not SimulationError("x").transient


class TestCacheCorruption:
    def cache_entry(self, tmp_path):
        cache = TraceCache(tmp_path)
        cache.get_or_build("k", tiny_builder(), 1)
        return cache, cache._path("k")

    def test_truncated_entry_quarantined_not_served(self, tmp_path, caplog):
        cache, path = self.cache_entry(tmp_path)
        truncate_file(path)
        with caplog.at_level("WARNING"):
            assert cache.get("k") is None
        assert not path.exists()
        assert any(".corrupt" in p.name for p in tmp_path.iterdir())
        assert "quarantine" in caplog.text

    def test_bit_flip_detected_by_checksum(self, tmp_path):
        cache, path = self.cache_entry(tmp_path)
        bit_flip(path)
        assert cache.get("k") is None

    def test_corrupt_entry_rebuilt(self, tmp_path):
        cache, path = self.cache_entry(tmp_path)
        truncate_file(path)
        rebuilt = cache.get_or_build("k", tiny_builder(), 1)
        assert len(rebuilt) == 1
        assert cache.get("k") is not None  # fresh valid entry on disk

    def test_legacy_unchecksummed_pickle_quarantined(self, tmp_path):
        cache = TraceCache(tmp_path)
        path = cache._path("k")
        with path.open("wb") as handle:  # pre-taxonomy format
            pickle.dump([valid_trace()], handle)
        assert cache.get("k") is None
        assert any(".corrupt" in p.name for p in tmp_path.iterdir())

    def test_quarantine_preserves_evidence(self, tmp_path):
        cache, path = self.cache_entry(tmp_path)
        original = path.read_bytes()
        bit_flip(path)
        damaged = path.read_bytes()
        cache.get("k")
        corrupt = [p for p in tmp_path.iterdir() if ".corrupt" in p.name]
        assert len(corrupt) == 1
        assert corrupt[0].read_bytes() == damaged != original


class TestInterruptedWrite:
    def test_no_partial_file_under_final_name(self, tmp_path):
        path = tmp_path / "entry.pkl"
        with pytest.raises(IOError):
            cachefile.write_cache(ExplodesMidPickle(), path)
        assert not path.exists()

    def test_interrupted_replace_keeps_old_entry(self, tmp_path,
                                                 monkeypatch):
        path = tmp_path / "entry.pkl"
        cachefile.write_cache("old", path)

        def exploding_replace(src, dst):
            raise OSError("injected: crash at rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError):
            cachefile.write_cache("new", path)
        monkeypatch.undo()
        assert cachefile.read_cache(path) == "old"

    def test_no_temp_litter_after_failure(self, tmp_path):
        path = tmp_path / "entry.pkl"
        with pytest.raises(IOError):
            cachefile.write_cache(ExplodesMidPickle(), path)
        assert [p.name for p in tmp_path.iterdir()] == []


class TestTraceFileFaults:
    def save(self, tmp_path, name="t.jsonl"):
        path = tmp_path / name
        save_traces([valid_trace(0), valid_trace(1)], path)
        return path

    def test_truncated_gzip(self, tmp_path):
        path = self.save(tmp_path, "t.jsonl.gz")
        truncate_file(path, keep_fraction=0.6)
        with pytest.raises(TraceFormatError, match=str(path)):
            load_traces(path)

    def test_version_skew(self, tmp_path):
        path = self.save(tmp_path)
        skew_trace_version(path, version=999)
        with pytest.raises(TraceFormatError, match="version 999"):
            load_traces(path)

    def test_bad_json(self, tmp_path):
        path = self.save(tmp_path)
        path.write_text(path.read_text() + "\n{not json")
        with pytest.raises(TraceFormatError, match="invalid JSON"):
            load_traces(path)

    def test_missing_keys(self, tmp_path):
        import json
        path = self.save(tmp_path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        del records[0]["tiles_x"]
        path.write_text("\n".join(json.dumps(r) for r in records))
        with pytest.raises(TraceFormatError, match="tiles_x"):
            load_traces(path)


class TestTrustBoundaries:
    def sim(self):
        return GPUSimulator(small_config(
            num_raster_units=2, raster_unit=RasterUnitConfig(num_cores=2)))

    def test_valid_trace_accepted(self):
        result = self.sim().run([valid_trace()])
        assert result.num_frames == 1

    def test_out_of_grid_tile_rejected(self):
        trace = valid_trace()
        trace.workloads[(9, 9)] = trace.workloads[(0, 0)]
        with pytest.raises(TraceFormatError, match="outside"):
            self.sim().run([trace])

    def test_negative_counters_rejected(self):
        trace = valid_trace()
        trace.workloads[(0, 0)].fragments = -5
        with pytest.raises(TraceFormatError, match="negative"):
            self.sim().run([trace])

    def test_absurd_line_address_rejected(self):
        trace = valid_trace()
        trace.workloads[(0, 0)].texture_lines[1] = 1 << 60
        with pytest.raises(TraceFormatError, match="out of bounds"):
            self.sim().run([trace])

    def test_config_cross_field_rejected(self):
        cfg = small_config()
        cfg.scheduler = SchedulerConfig(initial_supertile_size=3)
        with pytest.raises(ConfigValidationError, match="supertile"):
            GPUSimulator(cfg).run([valid_trace()])

    def test_validation_can_be_bypassed(self):
        # Power users (and the perf-sensitive harness) may skip checks.
        trace = valid_trace()
        result = self.sim().run([trace], validate=False)
        assert result.num_frames == 1

    def test_nan_scene_parameter_rejected(self):
        with pytest.raises(ConfigValidationError, match="finite"):
            tiny_params(scroll_speed=float("nan"))

    def test_inf_hotspot_rejected(self):
        with pytest.raises(ConfigValidationError, match="finite"):
            HotspotSpec(center=(float("inf"), 0.5))

    def test_zero_area_sprites_rejected(self):
        with pytest.raises(ConfigValidationError, match="zero-area"):
            HotspotSpec(center=(0.5, 0.5), sprite_size=0.0)
        with pytest.raises(ConfigValidationError):
            tiny_params(roaming_size=(0.0, 0.0))


class TestRunSupervisor:
    """``run_suite`` with a scripted ``execute_point`` (see faults.py)."""

    @pytest.fixture(autouse=True)
    def private_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))

    @staticmethod
    def suite(runner, names, monkeypatch, **kwargs):
        monkeypatch.setattr(engine, "execute_point", runner)
        return harness.run_suite(names, frames=1, width=128, height=64,
                                 **kwargs)

    def test_one_failure_does_not_sink_the_suite(self, monkeypatch):
        runner = ScriptedRunner({"GDL": [SimulationError] * 5})
        result = self.suite(runner, ["CCS", "GDL", "SuS"], monkeypatch,
                            backoff_s=0.0)
        assert [o.point.benchmark for o in result.completed] \
            == ["CCS", "SuS"]
        assert [o.point.benchmark for o in result.failed] == ["GDL"]
        assert result.failed[0].error_type == "SimulationError"
        assert [s.benchmark for s in result.summaries().values()] \
            == ["CCS", "SuS"]

    def test_transient_fault_retried_with_success(self, monkeypatch):
        runner = ScriptedRunner({"CCS": [CacheCorruptionError]})
        result = self.suite(runner, ["CCS"], monkeypatch, max_attempts=3,
                            backoff_s=0.0)
        assert result.completed and result.completed[0].attempts == 2

    def test_non_transient_fault_not_retried(self, monkeypatch):
        runner = ScriptedRunner({"CCS": [ConfigValidationError] * 5})
        result = self.suite(runner, ["CCS"], monkeypatch, max_attempts=3,
                            backoff_s=0.0)
        assert result.failed and result.failed[0].attempts == 1

    def test_retries_are_bounded(self, monkeypatch):
        runner = ScriptedRunner({"CCS": [CacheCorruptionError] * 10})
        result = self.suite(runner, ["CCS"], monkeypatch, max_attempts=3,
                            backoff_s=0.0)
        assert result.failed[0].attempts == 3
        assert len(runner.calls) == 3

    def test_timeout_recorded_as_failure(self, monkeypatch):
        result = self.suite(sleepy_runner(10.0), ["CCS"], monkeypatch,
                            timeout_s=0.2, backoff_s=0.0)
        assert result.failed
        assert result.failed[0].error_type == "BenchmarkTimeoutError"
        assert result.failed[0].elapsed_s < 5.0

    def test_unknown_benchmark_skipped_with_valid_names(self,
                                                        monkeypatch):
        runner = ScriptedRunner({})
        with pytest.raises(ConfigValidationError) as err:
            self.suite(runner, ["CCS", "NOPE"], monkeypatch)
        assert "NOPE" in str(err.value)
        assert "valid:" in str(err.value) and "CCS" in str(err.value)
        # nothing was attempted, the known name included
        assert runner.calls == []

    def test_unexpected_exception_wrapped(self, monkeypatch):
        runner = ScriptedRunner({"CCS": [ZeroDivisionError] * 5})
        result = self.suite(runner, ["CCS"], monkeypatch, backoff_s=0.0)
        assert result.failed[0].error_type == "SimulationError"

    def test_report_format_mentions_every_outcome(self, monkeypatch):
        runner = ScriptedRunner({"GDL": [SimulationError] * 5})
        result = self.suite(runner, ["CCS", "GDL"], monkeypatch,
                            backoff_s=0.0)
        text = result.format()
        assert "1 ok" in text and "1 failed" in text and "0 skipped" in text
        assert "[PARTIAL]" in text
        for name in ("CCS", "GDL"):
            assert name in text


class TestEndToEndDegradation:
    """The acceptance scenario: corrupt cache mid-campaign, keep going."""

    def test_campaign_survives_cache_corruption(self, tmp_path,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = harness.run_suite(["GDL"], kinds=("ptr",), frames=1)
        # Damage every cache entry and stored result the run produced.
        for path in tmp_path.rglob("*.pkl"):
            truncate_file(path)
        again = harness.run_suite(["GDL"], kinds=("ptr",), frames=1)
        assert not again.resumed  # the torn result was not served
        assert again.completed[0].summary.total_cycles \
            == first.completed[0].summary.total_cycles
        assert list(tmp_path.rglob("*.corrupt*"))  # evidence retained
