"""Tests for the declarative sweep engine (repro.experiments).

Spec validation/expansion/serialization, the crash-safe artifact store,
in-process resume semantics, failure isolation, and the speedup-matrix
aggregation.  The subprocess SIGKILL test lives in test_sweep_resume.py.
"""

import json
import os
from types import SimpleNamespace

import pytest

from repro.errors import ConfigValidationError
from repro.experiments import (AXIS_ALIASES, ArtifactStore, ExperimentSpec,
                               PointOutcome, SweepPoint, SweepResult,
                               parse_axis_option, parse_axis_value,
                               resolve_axes, run_sweep, speedup_matrix)
from repro.experiments.engine import run_sweeps, store_breaker
from repro.supervision import CircuitBreaker

from faults import bit_flip, truncate_file


def tiny_spec(**overrides):
    """A fast 128x64 tri_overlap grid used across these tests."""
    defaults = dict(name="tiny", benchmarks=["tri_overlap"],
                    kinds=["baseline", "libra"],
                    axes={"raster_units": [1, 2]},
                    frames=1, width=128, height=64)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One trace-cache directory for the module (runs share traces)."""
    path = tmp_path_factory.mktemp("sweep_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestSpecValidation:
    def test_valid_spec_passes(self):
        tiny_spec().validate()

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigValidationError, match="unknown benchmark"):
            tiny_spec(benchmarks=["nope"]).validate()

    def test_bad_kind(self):
        with pytest.raises(ConfigValidationError):
            tiny_spec(kinds=["quantum"]).validate()

    def test_baseline_must_be_swept(self):
        with pytest.raises(ConfigValidationError, match="baseline kind"):
            tiny_spec(kinds=["ptr", "libra"]).validate()

    def test_empty_axis_values(self):
        with pytest.raises(ConfigValidationError, match="non-empty"):
            tiny_spec(axes={"supertile": []}).validate()

    def test_unknown_axis_path(self):
        with pytest.raises(ConfigValidationError):
            tiny_spec(axes={"scheduler.not_a_field": [1]}).validate()

    def test_alias_and_dotted_axes_accepted(self):
        tiny_spec(axes={"supertile": [2, 4],
                        "dram.requests_per_cycle": [0.32]}).validate()

    def test_policy_bounds(self):
        with pytest.raises(ConfigValidationError):
            tiny_spec(workers=0).validate()
        with pytest.raises(ConfigValidationError):
            tiny_spec(retries=-1).validate()


class TestSpecExpansion:
    def test_num_points(self):
        spec = tiny_spec(axes={"raster_units": [1, 2], "supertile": [2, 4]})
        assert spec.num_points == 8
        assert len(spec.expand()) == 8

    def test_kinds_vary_fastest(self):
        points = tiny_spec().expand()
        assert [p.kind for p in points[:2]] == ["baseline", "libra"]
        assert points[0].axes == points[1].axes

    def test_point_ids_deterministic_and_unique(self):
        a = [p.point_id for p in tiny_spec().expand()]
        b = [p.point_id for p in tiny_spec().expand()]
        assert a == b
        assert len(set(a)) == len(a)

    def test_axisless_spec_degenerates_to_compare(self):
        spec = tiny_spec(axes={})
        points = spec.expand()
        assert len(points) == 2
        assert all(p.axes == () for p in points)

    def test_resolve_axes_split(self):
        build, settings = resolve_axes(
            {"raster_units": 4, "supertile": 8, "dram.latency_cycles": 90})
        assert build == {"raster_units": 4}
        assert settings == {AXIS_ALIASES["supertile"]: 8,
                            "dram.latency_cycles": 90}


class TestSpecSerialization:
    def test_round_trip(self):
        spec = tiny_spec(axes={"supertile": [2, 4]})
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_key_rejected(self):
        data = tiny_spec().to_dict()
        data["benchmark"] = "typo"
        with pytest.raises(ConfigValidationError, match="unknown spec key"):
            ExperimentSpec.from_dict(data)

    def test_needs_name_and_benchmarks(self):
        with pytest.raises(ConfigValidationError, match="name"):
            ExperimentSpec.from_dict({"frames": 2})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(tiny_spec().to_dict()))
        assert ExperimentSpec.from_file(path) == tiny_spec()

    def test_from_yaml_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text(
            "name: tiny\n"
            "benchmarks: [tri_overlap]\n"
            "kinds: [baseline, libra]\n"
            "axes:\n  raster_units: [1, 2]\n"
            "frames: 1\nwidth: 128\nheight: 64\n")
        assert ExperimentSpec.from_file(path) == tiny_spec()

    def test_invalid_json_diagnosed(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope")
        with pytest.raises(ConfigValidationError, match="invalid JSON"):
            ExperimentSpec.from_file(path)

    def test_fingerprint_ignores_execution_policy(self):
        grid = tiny_spec()
        assert grid.fingerprint() == tiny_spec(
            workers=8, timeout_s=60.0, retries=3).fingerprint()
        assert grid.fingerprint() != tiny_spec(frames=2).fingerprint()
        assert grid.fingerprint() != tiny_spec(
            axes={"raster_units": [1, 4]}).fingerprint()


class TestAxisParsing:
    def test_values_typed_eagerly(self):
        assert parse_axis_value("4") == 4
        assert parse_axis_value("0.25") == 0.25
        assert parse_axis_value("morton") == "morton"

    def test_option_parsing(self):
        assert parse_axis_option("supertile=2,4") == ("supertile", [2, 4])

    def test_bad_option(self):
        for option in ("supertile", "=2,4", "supertile="):
            with pytest.raises(ConfigValidationError):
                parse_axis_option(option)


class TestArtifactStore:
    def test_fresh_then_resume(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        assert store.initialize(tiny_spec()) is False
        assert store.initialize(tiny_spec(workers=4)) is True

    def test_different_grid_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.initialize(tiny_spec())
        with pytest.raises(ConfigValidationError, match="different"):
            store.initialize(tiny_spec(frames=2))

    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.initialize(tiny_spec())
        store.save("p1", {"total_cycles": 42})
        assert store.load("p1") == {"total_cycles": 42}
        assert store.completed_ids() == ["p1"]

    def test_corrupt_artifact_quarantined(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.initialize(tiny_spec())
        store.save("p1", {"total_cycles": 42})
        bit_flip(store.point_path("p1"))
        assert store.load("p1") is None
        assert not store.point_path("p1").exists()

    def test_corrupt_manifest_reinitializes(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.initialize(tiny_spec())
        truncate_file(store.manifest_path, 0.3)
        assert store.initialize(tiny_spec()) is False  # fresh manifest
        assert store.read_manifest() is not None

    def test_keyed_breaker_write_keeps_other_keys(self, tmp_path):
        # Two fleet workers load the breaker, then record in turn: the
        # later writer's stale copy must not reopen what the first
        # tripped, and a repeated write must not duplicate its trip.
        store = ArtifactStore(tmp_path / "s")
        first, second = store_breaker(store), store_breaker(store)
        for _ in range(3):
            second.record_failure("CCS|ptr")
        store.record_breaker_state(second.to_state(), key="CCS|ptr")
        first.record_failure("GDL|libra")
        store.record_breaker_state(first.to_state(), key="GDL|libra")
        store.record_breaker_state(second.to_state(), key="CCS|ptr")
        state = store.load_breaker_state()
        assert CircuitBreaker.from_state(state).open_keys == ["CCS|ptr"]
        assert state["cells"]["GDL|libra"]["failures"] == 1
        assert [t["key"] for t in state["trips"]] == ["CCS|ptr"]


class TestEngine:
    def test_sweep_runs_and_orders_outcomes(self, shared_cache_dir,
                                            tmp_path):
        spec = tiny_spec()
        result = run_sweep(spec, store_root=tmp_path / "store")
        assert [o.point for o in result.outcomes] == spec.expand()
        assert len(result.completed) == 4
        assert not result.failed and not result.resumed
        # Point artifacts landed in the store, one per point.
        store = ArtifactStore(tmp_path / "store")
        assert len(store.completed_ids()) == 4

    def test_rerun_resumes_everything(self, shared_cache_dir, tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, store_root=tmp_path / "store")
        again = run_sweep(spec, store_root=tmp_path / "store")
        assert len(again.resumed) == 4
        assert ([o.summary.total_cycles for o in again.completed]
                == [o.summary.total_cycles for o in first.completed])

    def test_corrupt_point_reruns_only_that_point(self, shared_cache_dir,
                                                  tmp_path, monkeypatch):
        spec = tiny_spec()
        first = run_sweep(spec, store_root=tmp_path / "store")
        victim = first.outcomes[0].point.point_id
        store = ArtifactStore(tmp_path / "store")
        bit_flip(store.point_path(victim))

        executed = []
        import repro.experiments.engine as engine
        original = engine.execute_point

        def tracking(point):
            executed.append(point.point_id)
            return original(point)

        monkeypatch.setattr(engine, "execute_point", tracking)
        again = run_sweep(spec, store_root=tmp_path / "store")
        assert executed == [victim]
        assert len(again.resumed) == 3
        assert len(again.completed) == 4

    def test_failed_point_isolated(self, shared_cache_dir, tmp_path,
                                   monkeypatch):
        from repro.errors import SimulationError
        spec = tiny_spec()
        doomed = spec.expand()[1].point_id

        import repro.experiments.engine as engine
        original = engine.execute_point

        def sometimes(point):
            if point.point_id == doomed:
                raise SimulationError("injected")
            return original(point)

        monkeypatch.setattr(engine, "execute_point", sometimes)
        result = run_sweep(spec, store_root=tmp_path / "store", retries=0)
        assert len(result.failed) == 1
        assert result.failed[0].point.point_id == doomed
        assert result.failed[0].error_type == "SimulationError"
        assert len(result.completed) == 3
        # The failure leaves no artifact, so a clean rerun completes it.
        monkeypatch.setattr(engine, "execute_point", original)
        healed = run_sweep(spec, store_root=tmp_path / "store")
        assert not healed.failed
        assert len(healed.resumed) == 3

    def test_retried_point_reported_degraded(self, shared_cache_dir,
                                             tmp_path, monkeypatch):
        # An in-process recovery is marked like a supervised one.
        from repro.errors import CacheCorruptionError
        spec = tiny_spec(backoff_s=0.01)
        flaky = spec.expand()[1].point_id

        import repro.experiments.engine as engine
        original = engine.execute_point
        failed = []

        def once(point):
            if point.point_id == flaky and not failed:
                failed.append(point.point_id)
                raise CacheCorruptionError("injected")
            return original(point)

        monkeypatch.setattr(engine, "execute_point", once)
        result = run_sweep(spec, store_root=tmp_path / "store", retries=1)
        assert [o.attempts for o in result.outcomes] == [1, 2, 1, 1]
        assert result.provenance()[flaky] == "degraded"
        assert set(result.provenance().values()) == {"completed",
                                                     "degraded"}
        assert "†" in speedup_matrix(result).to_markdown()


class TestIdealMemoryAxis:
    def test_axis_runs_the_real_and_the_ideal_memory_system(
            self, shared_cache_dir, tmp_path):
        # Fig. 6's method as a spec: the same point with the real and
        # with the ideal memory system.  The counts are the simulator's
        # own when ideal memory was a constructor keyword, so moving it
        # into GPUConfig changed no number.
        spec = ExperimentSpec.from_dict(json.loads("""{
            "name": "memory-time", "benchmarks": ["CCS"],
            "kinds": ["ptr"], "baseline_kind": "ptr",
            "axes": {"ideal_memory": [false, true]},
            "frames": 1, "width": 256, "height": 128}"""))
        result = run_sweep(spec, store_root=tmp_path / "store")
        cycles = {o.point.axis_values["ideal_memory"]: o.summary.total_cycles
                  for o in result.completed}
        assert cycles == {False: 289_464, True: 219_464}


class TestRunSweeps:
    """Several specs as one grid: each distinct point executes once."""

    def _specs(self):
        # Two grids sharing tri_overlap/baseline at both unit counts.
        return (tiny_spec(name="left", kinds=["baseline", "ptr"]),
                tiny_spec(name="right", kinds=["baseline", "libra"]))

    def _tracking(self, monkeypatch):
        import repro.experiments.engine as engine
        original = engine.execute_point
        executed = []

        def tracking(point):
            executed.append(point.point_id)
            return original(point)

        monkeypatch.setattr(engine, "execute_point", tracking)
        return executed

    def test_shared_points_execute_once(self, shared_cache_dir, tmp_path,
                                        monkeypatch):
        left, right = self._specs()
        executed = self._tracking(monkeypatch)
        a, b = run_sweeps([(left, tmp_path / "l"), (right, tmp_path / "r")])
        distinct = {p.point_id for s in (left, right) for p in s.expand()}
        assert len(distinct) == 6
        assert sorted(executed) == sorted(distinct)
        # The first sweep listing a point runs it; the other is served.
        assert [o.provenance for o in a.outcomes] == ["completed"] * 4
        assert [o.provenance for o in b.outcomes] == [
            "resumed", "completed"] * 2
        assert [o.point for o in b.outcomes] == right.expand()
        for o in b.resumed:
            shared = ArtifactStore(tmp_path / "l").point_path(
                o.point.point_id)
            linked = ArtifactStore(tmp_path / "r").point_path(
                o.point.point_id)
            assert os.path.samefile(shared, linked)
        # Each store alone resumes its whole grid.
        executed.clear()
        again = run_sweep(right, store_root=tmp_path / "r")
        assert executed == [] and len(again.resumed) == 4
        assert ([o.summary.total_cycles for o in again.outcomes]
                == [o.summary.total_cycles for o in b.outcomes])

    def test_point_stored_elsewhere_is_shared_not_run(
            self, shared_cache_dir, tmp_path, monkeypatch):
        left, right = self._specs()
        run_sweep(right, store_root=tmp_path / "r")
        executed = self._tracking(monkeypatch)
        a, b = run_sweeps([(left, tmp_path / "l"), (right, tmp_path / "r")])
        assert sorted(executed) == sorted(
            p.point_id for p in left.expand() if p.kind == "ptr")
        assert [o.provenance for o in a.outcomes] == [
            "resumed", "completed"] * 2
        assert len(b.resumed) == 4

    def test_copy_when_links_fail(self, shared_cache_dir, tmp_path,
                                  monkeypatch):
        def no_link(src, dst):
            raise OSError(18, "Invalid cross-device link")

        monkeypatch.setattr(os, "link", no_link)
        left, right = self._specs()
        a, b = run_sweeps([(left, tmp_path / "l"), (right, tmp_path / "r")])
        store = ArtifactStore(tmp_path / "r")
        done = store.load_completed(right.expand())
        assert len(done) == 4
        for o in b.resumed:
            assert os.stat(store.point_path(o.point.point_id)).st_nlink == 1
            assert (done[o.point.point_id].total_cycles
                    == o.summary.total_cycles)

    def test_failed_shared_point_fails_in_both(self, shared_cache_dir,
                                               tmp_path, monkeypatch):
        from repro.errors import SimulationError
        import repro.experiments.engine as engine
        left, right = self._specs()
        doomed = left.expand()[0].point_id  # baseline, in both grids
        original = engine.execute_point

        def sometimes(point):
            if point.point_id == doomed:
                raise SimulationError("injected")
            return original(point)

        monkeypatch.setattr(engine, "execute_point", sometimes)
        a, b = run_sweeps([(left, tmp_path / "l"), (right, tmp_path / "r")],
                          retries=0)
        for result in (a, b):
            (failed,) = result.failed
            assert failed.point.point_id == doomed
        assert not ArtifactStore(tmp_path / "r").point_path(doomed).exists()

    def test_supervised_grid_records_each_stores_keys(
            self, shared_cache_dir, tmp_path):
        left, right = self._specs()
        for name, key in (("l", "tri_overlap|ptr"),
                          ("r", "tri_overlap|libra")):
            breaker = CircuitBreaker()
            breaker.record_failure(key)
            ArtifactStore(tmp_path / name).record_breaker_state(
                breaker.to_state())
        run_sweeps([(left, tmp_path / "l"), (right, tmp_path / "r")],
                   workers=2)
        for name, spec in (("l", left), ("r", right)):
            cells = ArtifactStore(tmp_path / name).load_breaker_state()[
                "cells"]
            assert set(cells) <= {f"tri_overlap|{k}" for k in spec.kinds}
        assert ArtifactStore(tmp_path / "l").load_breaker_state()[
            "cells"]["tri_overlap|ptr"]["failures"] == 0

    def test_no_sweeps(self):
        assert run_sweeps([]) == []


class TestSweepTelemetry:
    def test_merged_counts_equal_sum_of_point_artifacts(
            self, shared_cache_dir, tmp_path):
        # The acceptance check for sweep-wide aggregation: a 2x2 grid's
        # merged DRAM-access count equals the sum over the per-point
        # checkpointed artifacts (workers=2 runs points in forked
        # workers, which the driver's hub cannot see into).
        spec = tiny_spec()
        result = run_sweep(spec, store_root=tmp_path / "store", workers=2)
        assert len(result.completed) == 4
        states = [o.summary.telemetry_state for o in result.completed]
        assert all(states)
        merged = result.merged_metrics().snapshot()
        for name in ("raster.dram_accesses", "dram.reads", "frames"):
            assert merged[name] == sum(s[name]["value"] for s in states)
        assert merged["frames"] == 4  # one frame per grid point

    def test_resumed_points_keep_their_telemetry(self, shared_cache_dir,
                                                 tmp_path):
        spec = tiny_spec()
        first = run_sweep(spec, store_root=tmp_path / "store")
        again = run_sweep(spec, store_root=tmp_path / "store")
        assert len(again.resumed) == 4
        assert (again.merged_metrics().snapshot()
                == first.merged_metrics().snapshot())

    def test_point_telemetry_can_be_disabled(self, shared_cache_dir,
                                             tmp_path):
        spec = tiny_spec()
        result = run_sweep(spec, store_root=tmp_path / "store",
                           point_telemetry=False)
        assert len(result.completed) == 4
        assert result.merged_metrics() is None
        matrix = speedup_matrix(result)
        assert matrix.telemetry is None
        assert matrix.format_telemetry() == ""

    def test_matrix_carries_merged_telemetry(self, shared_cache_dir,
                                             tmp_path):
        spec = tiny_spec()
        result = run_sweep(spec, store_root=tmp_path / "store")
        matrix = speedup_matrix(result)
        assert matrix.telemetry["frames"] == 4
        table = matrix.format_telemetry()
        assert "merged across all completed points" in table
        assert "dram.reads" in table
        assert ".le_" not in table  # histogram buckets elided

    def test_merged_metrics_tolerates_pre_g4_artifacts(self):
        # Summaries without a telemetry state (pre-g4 pickles read the
        # field's default, None) contribute nothing to the merge.
        spec = tiny_spec()
        result = fake_result(spec, {("baseline", 1): 100,
                                    ("libra", 1): 50,
                                    ("baseline", 2): 100,
                                    ("libra", 2): 50})
        assert result.merged_metrics() is None
        assert speedup_matrix(result).telemetry is None

    def test_artifact_without_telemetry_state_resumes(self,
                                                      shared_cache_dir,
                                                      tmp_path):
        # An artifact pickled before RunSummary had ``telemetry_state``:
        # the field is missing from the instance, so unpickling falls
        # back to the dataclass default and the merge skips the point.
        spec = tiny_spec()
        store = ArtifactStore(tmp_path / "store")
        first = run_sweep(spec, store_root=store.root)
        old_id = first.outcomes[0].point.point_id
        old = store.load(old_id)
        del old.__dict__["telemetry_state"]
        store.save(old_id, old)
        again = run_sweep(spec, store_root=store.root)
        assert len(again.resumed) == 4
        assert again.outcomes[0].summary.telemetry_state is None
        assert again.merged_metrics().snapshot()["frames"] == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_artifact_counts_its_own_execution(
            self, shared_cache_dir, tmp_path, workers):
        # The counter is incremented before the registry is copied into
        # the point's summary, so the merge counts every executed point.
        spec = tiny_spec(axes={})
        first = run_sweep(spec, store_root=tmp_path / "store",
                          workers=workers)
        again = run_sweep(spec, store_root=tmp_path / "store",
                          workers=workers)
        assert len(first.completed) == 2 and len(again.resumed) == 2
        for result in (first, again):
            merged = result.merged_metrics().snapshot()
            assert merged["sweep.points.executed"] == 2


def fake_result(spec, cycles_by_point):
    """A SweepResult with scripted total_cycles per (kind, axes) cell."""
    result = SweepResult(spec=spec, store_root="unused")
    for point in spec.expand():
        key = (point.kind,) + tuple(v for _, v in point.axes)
        cycles = cycles_by_point.get(key)
        if cycles is None:
            result.outcomes.append(PointOutcome(point=point,
                                                status="failed",
                                                error="boom",
                                                error_type="Err",
                                                provenance="failed"))
        else:
            result.outcomes.append(PointOutcome(
                point=point, status="ok",
                summary=SimpleNamespace(total_cycles=cycles,
                                        telemetry_state=None),
                provenance="completed"))
    return result


class TestAggregation:
    def test_speedups_and_geomeans(self):
        spec = tiny_spec()
        result = fake_result(spec, {("baseline", 1): 100, ("libra", 1): 50,
                                    ("baseline", 2): 100, ("libra", 2): 200})
        matrix = speedup_matrix(result)
        assert [row.speedups["libra"] for row in matrix.rows] == [2.0, 0.5]
        assert matrix.geomeans()["libra"] == pytest.approx(1.0)
        assert matrix.geomeans()["baseline"] == pytest.approx(1.0)

    def test_marginal_collapses_other_axes(self):
        spec = tiny_spec(axes={"raster_units": [1, 2],
                               "supertile": [2, 4]})
        cycles = {}
        for ru in (1, 2):
            for st in (2, 4):
                cycles[("baseline", ru, st)] = 100
                cycles[("libra", ru, st)] = 100 // ru
        matrix = speedup_matrix(fake_result(spec, cycles))
        marginal = matrix.marginal("raster_units")
        assert marginal[1]["libra"] == pytest.approx(1.0)
        assert marginal[2]["libra"] == pytest.approx(2.0)
        with pytest.raises(ConfigValidationError, match="unknown axis"):
            matrix.marginal("nope")

    def test_failed_baseline_leaves_no_speedups(self):
        spec = tiny_spec()
        result = fake_result(spec, {("libra", 1): 50,
                                    ("baseline", 2): 100, ("libra", 2): 80})
        matrix = speedup_matrix(result)
        assert matrix.rows[0].speedups == {}
        assert matrix.rows[1].speedups["libra"] == pytest.approx(1.25)
        # Formatting degrades to em-dashes instead of crashing.
        assert "—" in matrix.format()
        assert "—" in matrix.to_markdown()

    def test_markdown_partial_cells_and_footer(self):
        spec = tiny_spec(axes={"raster_units": [1, 2, 3]})
        result = fake_result(spec, {("baseline", 1): 100,
                                    ("libra", 1): 50,
                                    ("baseline", 2): 100,
                                    ("baseline", 3): 100})
        # libra@ru=1 completed but via degraded recovery; libra@ru=2
        # stays failed; libra@ru=3 was quarantined by the breaker.
        for outcome in result.outcomes:
            if outcome.point.kind != "libra":
                continue
            ru = dict(outcome.point.axes)["raster_units"]
            if ru == 1:
                outcome.provenance = "degraded"
            elif ru == 3:
                outcome.status = outcome.provenance = "tripped"
        markdown = speedup_matrix(result).to_markdown()
        lines = markdown.splitlines()
        assert "| 2.000† |" in lines[2]  # degraded value carries †
        assert "| ✗ |" in lines[3]      # failed cell is a marked hole
        assert "| ⊘ |" in lines[4]      # breaker-tripped likewise
        assert lines[-1] == ("PARTIAL matrix: 1 degraded, 1 failed, "
                             "1 tripped  "
                             "(† degraded, ✗ failed, ⊘ breaker-tripped)")

    def test_markdown_degraded_only_footer_is_not_partial(self):
        spec = tiny_spec()
        result = fake_result(spec, {("baseline", 1): 100,
                                    ("libra", 1): 50,
                                    ("baseline", 2): 100,
                                    ("libra", 2): 80})
        result.outcomes[1].provenance = "degraded"
        matrix = speedup_matrix(result)
        assert not matrix.partial
        markdown = matrix.to_markdown()
        assert "1.250" in markdown
        assert markdown.splitlines()[-1].startswith("annotations: "
                                                    "1 degraded")
        assert "PARTIAL" not in markdown

    def test_markdown_shape(self):
        spec = tiny_spec()
        result = fake_result(spec, {("baseline", 1): 100, ("libra", 1): 50,
                                    ("baseline", 2): 100, ("libra", 2): 50})
        lines = speedup_matrix(result).to_markdown().splitlines()
        assert lines[0].startswith("| benchmark | raster_units |")
        assert lines[-1].startswith("| **geomean**")
