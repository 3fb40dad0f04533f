"""Parity suite: the batched hot path versus the scalar golden path.

The batched paths (``Cache.lookup_batch``, the planned texture walk of
:class:`TimingRasterUnit`, the Geometry vertex stream) are written for
speed, and the scalar implementations stay as the golden reference
(``batched=False``).  These tests pin the contract: **bit-identical**
LRU state, hit/miss/eviction counters, DRAM request
interleaving and interval series, at every level.  The tiny scenes keep
each tile's lines within the ways of every L1 set; the suite scenes of
:class:`TestOverflowingTileParity` make tiles evict their own lines.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import (CacheConfig, GPUConfig, RasterUnitConfig,
                          small_config)
from repro.core import (LibraScheduler, TemperatureScheduler,
                        ZOrderScheduler)
from repro.gpu import GPUSimulator
from repro.gpu.frame import FrameDriver
from repro.memory.cache import Cache
from repro.memory.hierarchy import make_texture_l1
from repro.perf.kernels import run_kernel
from repro.telemetry import HUB, RecordingSink
from repro.workloads import make_scene_builder
from repro.workloads.scene import SceneBuilder
from repro.workloads.traces import TraceBuilder

from faults import tiny_builder, tiny_params

# Tiny geometry: 4 sets x 2 ways so random streams of a few dozen lines
# exercise eviction constantly.
TINY = CacheConfig(size_bytes=8 * 32, ways=2, line_bytes=32)

line_streams = st.lists(st.integers(0, 31), max_size=200)


def _state(cache: Cache):
    s = cache.stats
    return ((s.accesses, s.hits, s.misses, s.evictions),
            cache.resident_lines())


class TestLookupBatchProperty:
    """``lookup_batch`` is observably identical to scalar ``lookup``."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=line_streams, run=st.integers(1, 40))
    def test_batch_equals_scalar_sequence(self, stream, run):
        scalar = Cache(TINY, name="scalar")
        batched = Cache(TINY, name="batched")
        missed_scalar = [pos for pos, line in enumerate(stream)
                         if not scalar.lookup(line)]
        # Cut the stream into runs, as callers do.
        missed = []
        for start in range(0, len(stream), run):
            missed += [start + pos for pos in
                       batched.lookup_batch(stream[start:start + run])]
        assert missed == missed_scalar
        assert _state(batched) == _state(scalar)

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(streams=st.lists(st.lists(st.integers(0, 31), max_size=40),
                            max_size=8))
    def test_state_carries_across_batches(self, streams):
        scalar = Cache(TINY)
        batched = Cache(TINY)
        for stream in streams:
            for line in stream:
                scalar.lookup(line)
            batched.lookup_batch(stream)
            assert _state(batched) == _state(scalar)

    def test_empty_batch_is_a_noop(self):
        cache = Cache(TINY)
        assert cache.lookup_batch([]) == []
        assert cache.stats.accesses == 0

    def test_duplicate_lines_in_one_batch(self):
        scalar = Cache(TINY)
        batched = Cache(TINY)
        stream = [0, 0, 8, 16, 0, 8, 24, 0]
        missed = [pos for pos, line in enumerate(stream)
                  if not scalar.lookup(line)]
        assert batched.lookup_batch(stream) == missed
        assert _state(batched) == _state(scalar)


def _frame_key(frame):
    return (
        frame.geometry_cycles, frame.raster_cycles, frame.order,
        frame.supertile_size, frame.texture_hit_ratio,
        frame.raster_dram_accesses, frame.per_tile_dram,
        frame.per_tile_instructions, frame.dram_interval_requests,
        frame.tiles_completed,
        (frame.texture_l1_stats.accesses, frame.texture_l1_stats.hits,
         frame.texture_l1_stats.misses, frame.texture_l1_stats.evictions),
        (frame.energy_counts.l1_accesses, frame.energy_counts.l2_accesses,
         frame.energy_counts.dram_reads, frame.energy_counts.dram_writes,
         frame.energy_counts.dram_activations),
    )


def _parity_config():
    return small_config(screen_width=128, screen_height=64, tile_size=32,
                        num_raster_units=2,
                        raster_unit=RasterUnitConfig(num_cores=4))


def _run(scheduler_factory, batched, traces, ideal_memory=False):
    config = _parity_config()
    sim = GPUSimulator(config, scheduler=scheduler_factory(config),
                       ideal_memory=ideal_memory, batched=batched,
                       name="parity")
    return sim.run(traces)


SCHEDULERS = {
    "zorder": lambda config: ZOrderScheduler(),
    "temperature": lambda config: TemperatureScheduler(4),
    "libra": lambda config: LibraScheduler(config.scheduler),
}


class TestFullSimulationParity:
    """Whole-run golden comparison on seeded multi-frame workloads."""

    @pytest.fixture(scope="class")
    def traces(self):
        return tiny_builder().build_many(4)

    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_batched_matches_scalar(self, traces, kind):
        fast = _run(SCHEDULERS[kind], True, traces)
        golden = _run(SCHEDULERS[kind], False, traces)
        for fa, fb in zip(fast.frames, golden.frames):
            assert _frame_key(fa) == _frame_key(fb)
            assert fa.mean_texture_latency \
                == pytest.approx(fb.mean_texture_latency)
        assert fast.total_cycles == golden.total_cycles

    def test_ideal_memory_parity(self, traces):
        fast = _run(SCHEDULERS["zorder"], True, traces,
                    ideal_memory=True)
        golden = _run(SCHEDULERS["zorder"], False, traces,
                      ideal_memory=True)
        assert [f.raster_cycles for f in fast.frames] \
            == [f.raster_cycles for f in golden.frames]
        assert fast.mean_texture_hit_ratio \
            == golden.mean_texture_hit_ratio


def _random_scene_traces(seed: int, frames: int = 2):
    """Traces of a randomized scene (content varies with the seed)."""
    params = tiny_params(seed=seed, roaming_sprites=2 + seed % 4,
                         hud_elements=seed % 3,
                         scroll_speed=4.0 + 3.0 * (seed % 5))
    builder = TraceBuilder(SceneBuilder(params, 128, 64), 128, 64, 32)
    return builder.build_many(frames)


#: Every config-kind family, including the alternative schedulers.
ALL_KINDS = ("baseline", "ptr", "libra", "temperature", "supertile")


class TestRandomizedSceneKindParity:
    """Randomized scenes x config kinds x telemetry: bit-identical.

    The tentpole contract: for every scheduler family the simulator
    ships — not just the three of the curated perf set — and with the
    telemetry hub on or off, the batched structure-of-arrays path must
    reproduce the scalar oracle's metrics bit for bit.
    """

    @pytest.fixture(scope="class")
    def scene_traces(self):
        return {seed: _random_scene_traces(seed) for seed in (3, 11)}

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_kind_parity_on_random_scene(self, scene_traces, seed, kind):
        traces = scene_traces[seed]
        fast = run_kernel(kind, traces, 128, 64, batched=True)
        golden = run_kernel(kind, traces, 128, 64, batched=False)
        assert fast.total_cycles == golden.total_cycles
        assert fast.raster_dram_accesses == golden.raster_dram_accesses
        assert fast.mean_texture_hit_ratio \
            == golden.mean_texture_hit_ratio
        for fa, fb in zip(fast.frames, golden.frames):
            assert _frame_key(fa) == _frame_key(fb)

    @pytest.mark.parametrize("kind", ["libra", "temperature"])
    def test_parity_with_telemetry_enabled(self, scene_traces, kind):
        traces = scene_traces[3]
        results = []
        for batched in (True, False):
            sink = RecordingSink()
            HUB.enable(sink)
            try:
                results.append(run_kernel(kind, traces, 128, 64,
                                          batched=batched))
            finally:
                HUB.disable()
        fast, golden = results
        assert fast.total_cycles == golden.total_cycles
        assert fast.raster_dram_accesses == golden.raster_dram_accesses
        for fa, fb in zip(fast.frames, golden.frames):
            assert _frame_key(fa) == _frame_key(fb)

    def test_telemetry_does_not_perturb_metrics(self, scene_traces):
        traces = scene_traces[11]
        quiet = run_kernel("libra", traces, 128, 64)
        HUB.enable(RecordingSink())
        try:
            loud = run_kernel("libra", traces, 128, 64)
        finally:
            HUB.disable()
        assert (quiet.total_cycles, quiet.raster_dram_accesses) \
            == (loud.total_cycles, loud.raster_dram_accesses)


def _overflowing_tiles(traces, l1: Cache) -> int:
    """Tiles in which some set of ``l1`` sees more distinct lines than
    it has ways, so that the tile evicts lines it fetched itself."""
    count = 0
    for trace in traces:
        for w in trace.workloads.values():
            per_set = {}
            for line in set(w.texture_lines.tolist()):
                index = line & l1._set_mask
                per_set[index] = per_set.get(index, 0) + 1
            count += any(n > l1.ways for n in per_set.values())
    return count


class TestOverflowingTileParity:
    """Suite traces whose tiles overflow L1 sets: bit-identical runs.

    CCS and GrT at 256x128 fetch more distinct lines per tile than the
    tiny scenes above, so some of their tiles overflow a set of every
    kind's texture L1 and evict lines they fetched earlier in the same
    tile.  Only such tiles tell a least- from a most-recently-used
    victim, or an L1 hit from a miss taken twice.
    """

    WIDTH, HEIGHT, FRAMES = 256, 128, 2

    @pytest.fixture(scope="class")
    def suite_traces(self):
        return {name: TraceBuilder(
            make_scene_builder(name, self.WIDTH, self.HEIGHT),
            self.WIDTH, self.HEIGHT, 32).build_many(self.FRAMES)
            for name in ("CCS", "GrT")}

    def _run(self, kind, traces, batched, ideal_memory):
        config, scheduler = GPUConfig.build(
            kind, screen_width=self.WIDTH, screen_height=self.HEIGHT)
        sim = GPUSimulator(config, scheduler=scheduler,
                           ideal_memory=ideal_memory, batched=batched)
        return config, sim.run(traces)

    @pytest.mark.parametrize("ideal_memory", [False, True],
                             ids=["memory", "ideal"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("name", ["CCS", "GrT"])
    def test_batched_matches_scalar(self, suite_traces, name, kind,
                                    ideal_memory):
        traces = suite_traces[name]
        config, fast = self._run(kind, traces, True, ideal_memory)
        _, golden = self._run(kind, traces, False, ideal_memory)
        assert _overflowing_tiles(traces, make_texture_l1(config)) > 0
        if not ideal_memory:
            assert sum(f.texture_l1_stats.evictions
                       for f in golden.frames) > 0
        assert fast.total_cycles == golden.total_cycles
        assert fast.raster_dram_accesses == golden.raster_dram_accesses
        assert fast.mean_texture_hit_ratio \
            == golden.mean_texture_hit_ratio
        assert len(fast.frames) == len(golden.frames) == self.FRAMES
        for fa, fb in zip(fast.frames, golden.frames):
            assert _frame_key(fa) == _frame_key(fb)
            assert fa.mean_texture_latency \
                == pytest.approx(fb.mean_texture_latency)


def _dram_writes(run) -> int:
    return sum(f.energy_counts.dram_writes for f in run.frames)


class TestFlushSettingsParity:
    """Compressed flushes and fractional service cycles: bit-identical.

    A Color Buffer flush compressed by ``fb_compression_ratio`` (the
    model of ablation A3) and DRAM service cycles that are not integers
    change what each flush sends to DRAM and how its service cycles
    add up.  CCS and GDL at 256x128 run under both settings with the
    batched path and the ``batched=False`` oracle; each run is also
    checked against the default settings, so the setting took effect.
    """

    WIDTH, HEIGHT, FRAMES = 256, 128, 2
    SETTINGS = {
        "compressed": {"fb_compression_ratio": 0.5},
        "fractional": {"dram.row_hit_cycles": 50.3,
                       "dram.row_miss_cycles": 100.7},
    }

    @pytest.fixture(scope="class")
    def suite_traces(self):
        return {name: TraceBuilder(
            make_scene_builder(name, self.WIDTH, self.HEIGHT),
            self.WIDTH, self.HEIGHT, 32).build_many(self.FRAMES)
            for name in ("CCS", "GDL")}

    @pytest.mark.parametrize("setting", sorted(SETTINGS))
    @pytest.mark.parametrize("kind", ["baseline", "ptr", "libra"])
    @pytest.mark.parametrize("name", ["CCS", "GDL"])
    def test_batched_matches_scalar(self, suite_traces, name, kind,
                                    setting):
        traces = suite_traces[name]
        settings = self.SETTINGS[setting]
        fast, golden = (run_kernel(kind, traces, self.WIDTH, self.HEIGHT,
                                   batched=batched, settings=settings)
                        for batched in (True, False))
        default = run_kernel(kind, traces, self.WIDTH, self.HEIGHT)
        if setting == "compressed":
            assert _dram_writes(golden) < _dram_writes(default)
        else:
            assert [f.mean_texture_latency for f in golden.frames] \
                != [f.mean_texture_latency for f in default.frames]
        assert fast.total_cycles == golden.total_cycles
        assert fast.raster_dram_accesses == golden.raster_dram_accesses
        assert fast.mean_texture_hit_ratio \
            == golden.mean_texture_hit_ratio
        assert len(fast.frames) == len(golden.frames) == self.FRAMES
        for fa, fb in zip(fast.frames, golden.frames):
            assert _frame_key(fa) == _frame_key(fb)
            assert fa.mean_texture_latency \
                == pytest.approx(fb.mean_texture_latency)


class TestGeometryIntervalDeterminism:
    """The Geometry phase closes a fixed interval count per frame.

    Regression test for the pre-PR2 bug where a vertex stream that did
    not divide evenly into interval-sized chunks could close a
    different number of DRAM intervals than ``geometry_cycles //
    interval_cycles``, making the interval series depend on the chunk
    remainder.
    """

    def _driver(self, batched):
        config = _parity_config()
        return FrameDriver(config, ZOrderScheduler(), batched=batched)

    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("num_lines", [0, 1, 7, 10, 64])
    def test_interval_count_is_exact(self, batched, num_lines):
        driver = self._driver(batched)
        interval = driver.config.interval_cycles
        trace = tiny_builder().build_many(1)[0]
        trace.vertex_lines = list(range(num_lines))
        trace.geometry_cycles = int(3.7 * interval)  # does not divide
        before = len(driver.shared.dram.stats.interval_requests)
        driver._run_geometry_phase(trace)
        closed = (len(driver.shared.dram.stats.interval_requests)
                  - before)
        assert closed == 3
        assert driver.vertex_cache.stats.accesses == num_lines

    @pytest.mark.parametrize("batched", [True, False])
    def test_short_phase_closes_one_interval(self, batched):
        driver = self._driver(batched)
        trace = tiny_builder().build_many(1)[0]
        trace.vertex_lines = [1, 2, 3]
        trace.geometry_cycles = driver.config.interval_cycles // 2
        driver._run_geometry_phase(trace)
        assert len(driver.shared.dram.stats.interval_requests) == 1

    def test_batched_and_scalar_emit_identical_series(self):
        results = []
        for batched in (True, False):
            driver = self._driver(batched)
            trace = tiny_builder().build_many(1)[0]
            trace.geometry_cycles = int(2.3
                                        * driver.config.interval_cycles)
            driver._run_geometry_phase(trace)
            results.append((
                list(driver.shared.dram.stats.interval_requests),
                driver.vertex_cache.resident_lines(),
                driver.shared.l2.resident_lines(),
            ))
        assert results[0] == results[1]
