"""Contract tests for the curated ``repro.api`` façade.

``repro.api.__all__`` is the supported surface: importing it must be
warning-free, every name documented, and the verbs must agree with each
other — a ``compare`` row equals the sweep point with the same settings.
"""

import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import repro
import repro.api as api

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("api_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestFacadeSurface:
    def test_all_names_resolve_and_are_documented(self):
        for name in api.__all__:
            obj = getattr(api, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"repro.api.{name} lacks a docstring"

    def test_facade_reexported_from_top_level(self):
        for name in ("build_traces", "simulate", "compare", "sweep",
                     "load_spec", "ExperimentSpec", "SweepResult",
                     "SpeedupMatrix", "ComparisonReport"):
            assert getattr(repro, name) is getattr(api, name)
            assert name in repro.__all__

    def test_service_surface_is_stable_api(self):
        """1.3.0 promoted the sweep service into the façade."""
        for name in ("serve", "run_worker", "SweepClient", "JobRecord",
                     "ServiceError"):
            assert name in api.__all__
            assert getattr(repro, name) is getattr(api, name)
            assert name in repro.__all__
        # ServiceError is part of the catchable ReproError taxonomy.
        assert issubclass(api.ServiceError, api.ReproError)
        assert tuple(map(int, repro.__version__.split("."))) >= (1, 3, 0)

    def test_import_is_warning_free(self):
        # A fresh interpreter: the session's own imports already fired.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-W", "error::DeprecationWarning", "-c",
             "import repro, repro.api"],
            check=True, env=env, timeout=120)


class TestVerbs:
    def test_simulate_returns_summary(self, shared_cache_dir):
        summary = api.simulate("tri_overlap", kind="libra", frames=1,
                               width=128, height=64)
        assert summary.kind == "libra"
        assert summary.total_cycles > 0

    def test_simulate_settings_reach_the_config(self, shared_cache_dir):
        slow = api.simulate("tri_overlap", kind="baseline", frames=1,
                            width=128, height=64,
                            settings={"dram.row_miss_cycles": 800,
                                      "dram.row_hit_cycles": 400})
        fast = api.simulate("tri_overlap", kind="baseline", frames=1,
                            width=128, height=64,
                            settings={"dram.row_miss_cycles": 40,
                                      "dram.row_hit_cycles": 20})
        assert slow.total_cycles > fast.total_cycles

    def test_compare_speedups_normalize_to_first(self, shared_cache_dir):
        report = api.compare("tri_overlap", kinds=("baseline", "libra"),
                             frames=1, width=128, height=64)
        speedups = report.speedups()
        assert report.baseline_kind == "baseline"
        assert speedups["baseline"] == pytest.approx(1.0)
        assert speedups["libra"] > 0
        assert "speedup" in report.format()

    def test_compare_matches_sweep_matrix(self, shared_cache_dir,
                                          tmp_path):
        """The acceptance cross-check: matrix entries == compare rows."""
        kinds = ("baseline", "libra")
        report = api.compare("tri_overlap", kinds=kinds, frames=1,
                             width=128, height=64)
        spec = api.ExperimentSpec(
            name="xcheck", benchmarks=["tri_overlap"], kinds=list(kinds),
            frames=1, width=128, height=64)
        result = api.sweep(spec, store_root=tmp_path / "store")
        row = api.speedup_matrix(result).rows[0]
        for kind in kinds:
            assert row.cycles[kind] == report.summaries[kind].total_cycles
        assert row.speedups["libra"] == \
            pytest.approx(report.speedups()["libra"])

    def test_sweep_accepts_spec_path(self, shared_cache_dir, tmp_path):
        import json
        spec = api.ExperimentSpec(
            name="fromfile", benchmarks=["tri_overlap"],
            kinds=["baseline"], frames=1, width=128, height=64)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert api.load_spec(path) == spec
        result = api.sweep(path, store_root=tmp_path / "store")
        assert len(result.completed) == 1

    def test_build_traces_cached_and_shared(self, shared_cache_dir):
        first = api.build_traces("tri_overlap", frames=1, width=128,
                                 height=64)
        second = api.build_traces("tri_overlap", frames=1, width=128,
                                  height=64)
        assert len(first) == 1
        assert first[0].total_texture_lines() == \
            second[0].total_texture_lines()
