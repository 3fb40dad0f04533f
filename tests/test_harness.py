"""Tests for the experiment harness (configs, caching, summaries)."""

import pytest

from repro import harness
from repro.config import GPUConfig
from repro.core import (LibraScheduler, StaticSupertileScheduler,
                        TemperatureScheduler, ZOrderScheduler)


def _build(kind, **overrides):
    return GPUConfig.build(kind, screen_width=harness.WIDTH,
                           screen_height=harness.HEIGHT, **overrides)


class TestMakeConfig:
    """Per-kind build semantics of the ``GPUConfig.build`` grammar."""

    def test_baseline_merges_cores(self):
        config, scheduler = _build("baseline", raster_units=2,
                                   cores_per_unit=4)
        assert config.num_raster_units == 1
        assert config.raster_unit.num_cores == 8
        assert scheduler is None

    def test_baseline_fixed_cores(self):
        config, _ = _build("baseline4")
        assert config.raster_unit.num_cores == 4

    def test_ptr(self):
        config, scheduler = _build("ptr")
        assert config.num_raster_units == 2
        assert isinstance(scheduler, ZOrderScheduler)

    def test_libra(self):
        config, scheduler = _build("libra")
        assert isinstance(scheduler, LibraScheduler)

    def test_temperature_with_size(self):
        _, scheduler = _build("temperature8")
        assert isinstance(scheduler, TemperatureScheduler)
        assert scheduler.size == 8

    def test_supertile_with_size(self):
        _, scheduler = _build("supertile4")
        assert isinstance(scheduler, StaticSupertileScheduler)
        assert scheduler.size == 4

    def test_more_raster_units(self):
        config, _ = _build("libra", raster_units=3)
        assert config.num_raster_units == 3
        assert config.total_cores == 12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            _build("quantum")


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One cache directory for the whole module so runs are shared."""
    import os
    path = tmp_path_factory.mktemp("repro_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


class TestCachedRuns:
    """``run_suite`` keeps its results in a store under the cache dir."""

    @pytest.fixture(autouse=True)
    def _use_shared_cache(self, shared_cache_dir):
        self.cache_path = shared_cache_dir

    @staticmethod
    def summary(kind):
        [outcome] = harness.run_suite(["GDL"], kinds=(kind,),
                                      frames=2).outcomes
        return outcome.summary

    def test_run_and_summary(self):
        summary = self.summary("ptr")
        assert summary.benchmark == "GDL"
        assert summary.total_cycles > 0
        assert len(summary.frame_cycles) == 2
        assert summary.per_tile_dram_last

    def test_cache_hit_identical(self):
        first = harness.run_suite(["GDL"], kinds=("ptr",), frames=2)
        second = harness.run_suite(["GDL"], kinds=("ptr",), frames=2)
        assert second.resumed == second.outcomes
        assert second.summaries() == first.summaries()

    def test_traces_cached_on_disk(self):
        harness.get_traces("GDL", frames=1)
        assert any(p.name.startswith("trace-")
                   for p in self.cache_path.iterdir())

    def test_speedup_between_summaries(self):
        base = self.summary("baseline")
        ptr = self.summary("ptr")
        assert ptr.speedup_over(base) > 0.5
