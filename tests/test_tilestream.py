"""The batched Raster Unit's tile plan against plain per-line loops.

At dispatch the batched Raster Unit walks a tile's texture stream
through its L1 and plans the misses (``TimingRasterUnit._plan_tile``);
it takes the compute cadence (``TileCadence``) from
``repro.gpu.tilestream``.  Each is checked here against the per-line
loop it replaces, on streams held as ``int64`` arrays (as traces hold
them) and on plain lists assigned after construction (as hand-built
workloads may).  A cadence whose scalar chain is exact holds no
per-line data.  The Color Buffer flush has no derived plan: it goes to
DRAM through ``SharedMemory.stream_to_dram_batch``, which
``tests/test_dram_batch.py`` checks against one ``stream_to_dram`` per
line.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.config import KIND_FAMILIES, CacheConfig, GPUConfig, small_config
from repro.gpu import GPUSimulator, tilestream
from repro.gpu.raster_unit import TimingRasterUnit
from repro.gpu.workload import TileWorkload
from repro.memory.cache import Cache
from repro.memory.hierarchy import SharedMemory, make_tile_cache
from repro.workloads import TraceBuilder, make_scene_builder

_EPS = 1e-9

# 4 sets x 2 ways of 32-byte lines: short random streams overflow a set
# about as often as they fit.
TINY = CacheConfig(size_bytes=8 * 32, ways=2, line_bytes=32)
# 8 sets x 4 ways.
ROOMY = CacheConfig(size_bytes=32 * 32, ways=4, line_bytes=32)

line_streams = st.lists(st.integers(0, 63), max_size=80)
PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def workload(field: str, lines, as_list: bool) -> TileWorkload:
    """A fresh workload whose ``field`` stream is ``lines``.

    With ``as_list`` the stream is assigned as a list after
    construction, which bypasses the conversion to an array.
    """
    w = TileWorkload(tile=(0, 0), **{field: lines})
    if as_list:
        setattr(w, field, list(lines))
    else:
        assert getattr(w, field).dtype.name == "int64"
    return w


def lru_order(cache):
    """Each set's lines, least recently used first."""
    return {index: list(ways) for index, ways in cache._sets.items()
            if ways}


def unit_with_l1(config: CacheConfig, warm, ideal_memory=False):
    """A batched Raster Unit whose texture L1 is ``config``, warmed by
    looking up ``warm`` and then cleared of statistics."""
    gpu = small_config(screen_width=128, screen_height=64, tile_size=32,
                       ideal_memory=ideal_memory)
    unit = TimingRasterUnit(0, gpu, SharedMemory(gpu), make_tile_cache(gpu))
    unit.l1 = Cache(config)
    for line in warm:
        unit.l1.lookup(line)
    unit.l1.stats.reset()
    return unit


def l1_counts(cache):
    """The cache's counters as one comparable tuple."""
    s = cache.stats
    return s.accesses, s.hits, s.misses, s.evictions


class TestPlanTile:
    """Dispatching a tile walks its stream through the L1 exactly as
    ``Cache.lookup`` does, one line at a time; under ``ideal_memory``,
    as in the scalar oracle, it leaves the L1 alone."""

    @PROPERTY
    @given(stream=line_streams, warm=line_streams, as_list=st.booleans(),
           config=st.sampled_from([TINY, ROOMY]),
           ideal_memory=st.booleans())
    # Set 0 of TINY (2 ways) sees 0, 4 and 8.  8 evicts 4, the least
    # recently used line, so 4 and then 0 miss again; evicting the most
    # recently used line instead would keep 4.
    @example(stream=[0, 4, 0, 8, 4, 0], warm=[], as_list=False,
             config=TINY, ideal_memory=False)
    def test_dispatch_is_the_per_line_lookup_walk(self, stream, warm,
                                                  as_list, config,
                                                  ideal_memory):
        w = workload("texture_lines", stream, as_list)
        w.instructions = 10 * len(stream)
        unit = unit_with_l1(config, warm, ideal_memory)
        reference = Cache(config)
        for line in warm:
            reference.lookup(line)
        reference.stats.reset()
        missed = [] if ideal_memory else [
            pos for pos, line in enumerate(stream)
            if not reference.lookup(line)]

        unit._begin_tile(w)
        assert lru_order(unit.l1) == lru_order(reference)
        assert l1_counts(unit.l1) == l1_counts(reference)
        assert unit.stats.texture_accesses == len(stream)
        if not stream:
            assert unit._plan is None
            return
        _, mpos, mlines, nmiss = unit._plan
        assert mpos == missed
        assert mlines == [stream[pos] for pos in missed]
        assert nmiss == len(missed)


def scalar_advance(n, cycles_per_line, index, done, budget):
    """The cadence part of ``TimingRasterUnit.step`` with ``batched=False``.

    Line ``i`` is accessed once ``done`` reaches ``i * cycles_per_line``;
    until then the unit advances ``done`` by at most the budget left.
    """
    i = index
    while budget > _EPS and i < n:
        target = i * cycles_per_line
        if done + _EPS >= target:
            i += 1
            continue
        chunk = min(target - done, budget)
        if chunk > 0.0:
            done += chunk
            budget -= chunk
    return i - index, done, budget


cadence_states = st.integers(0, 120).flatmap(lambda n: st.tuples(
    st.just(n),
    st.floats(0.01, 40.0),
    st.integers(0, n),
    st.floats(0.0, 4000.0),
    st.floats(0.0, 3000.0)))


class TestTileCadence:
    @PROPERTY
    @given(state=cadence_states)
    def test_consume_matches_scalar_loop(self, state):
        n, cpl, index, done, budget = state
        cad = tilestream.TileCadence(n, cpl)
        assert cad.consume(index, done, budget) == \
            scalar_advance(n, cpl, index, done, budget)

    @PROPERTY
    @given(n=st.integers(1, 120), cpl=st.floats(0.01, 40.0))
    def test_done_after_is_the_scalar_done_at_each_line(self, n, cpl):
        cad = tilestream.TileCadence(n, cpl)
        for i in range(n):
            _, done, _ = scalar_advance(i + 1, cpl, 0, 0.0, float(1 << 40))
            assert cad.done_after(i) == done

    def test_exact_and_fallback_chains_match_scalar_loop(self):
        # Rates at or below the epsilon leave ``done`` short of some
        # target, so only the scalar chain is exact there; ordinary
        # rates land on every target and hold no chain.
        chains = set()

        @PROPERTY
        @given(n=st.integers(0, 120),
               cpl=st.one_of(st.sampled_from([0.0, 1e-12, 5e-10, 1e-9]),
                             st.floats(0.0, 3e-9), st.floats(0.01, 40.0)),
               entry=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 4e3),
                               st.floats(0.0, 3e3)))
        @example(n=50, cpl=0.0, entry=(0.5, 0.0, 10.0))
        @example(n=50, cpl=2.5, entry=(0.5, 3.0, 10.0))
        def check(n, cpl, entry):
            cad = tilestream.TileCadence(n, cpl)
            chains.add(cad.chain is None)
            for i in range(n):
                _, done, _ = scalar_advance(i + 1, cpl, 0, 0.0,
                                            float(1 << 40))
                assert cad.done_after(i) == done
            share, done, budget = entry
            index = int(share * n)
            assert cad.consume(index, done, budget) == \
                scalar_advance(n, cpl, index, done, budget)

        check()
        assert chains == {True, False}

    @pytest.mark.parametrize("cpl,chained", [
        (0.0, True), (1e-12, True), (5e-10, True), (1e-9, True),
        (0.37, False)])
    def test_only_rates_near_the_epsilon_keep_a_chain(self, cpl, chained):
        cad = tilestream.TileCadence(4000, cpl)
        if chained:
            assert cad.chain.dtype == np.float64 and len(cad.chain) == 4000
        else:
            assert cad.chain is None
            assert cad.done_after(3999) == 3999 * cpl

    @PROPERTY
    @given(stream=line_streams, as_list=st.booleans(),
           budgets=st.lists(st.floats(0.5, 300.0), min_size=1,
                            max_size=40))
    def test_interval_chain_matches_scalar_loop(self, stream, as_list,
                                                budgets):
        # A tile consumed interval by interval, as the planned path does.
        w = workload("texture_lines", stream, as_list)
        n = len(stream)
        cpl = 1000.0 / n if n else 0.0
        cad = tilestream.cadence(w, cpl)
        assert cad is tilestream.cadence(w, cpl)
        got = ref = (0, 0.0)
        for budget in budgets:
            k, done, _ = cad.consume(got[0], got[1], budget)
            got = (got[0] + k, done)
            k, done, _ = scalar_advance(n, cpl, ref[0], ref[1], budget)
            ref = (ref[0] + k, done)
            assert got == ref


class TestHeldPlans:
    """What a process keeps once it has simulated a trace."""

    def test_suite_trace_holds_array_plans_under_every_kind(self):
        traces = TraceBuilder(make_scene_builder("CCS", 256, 128),
                              256, 128, 32).build_many(2)
        for kind in KIND_FAMILIES:
            config, scheduler = GPUConfig.build(kind, screen_width=256,
                                                screen_height=128)
            GPUSimulator(config, scheduler=scheduler).run(traces)
        cadences = 0
        for trace in traces:
            for w in trace.workloads.values():
                cache = w.__dict__.get("_soa", {})
                for key, data in cache.items():
                    if key[0] == "cad":
                        cadences += 1
                        targets = np.arange(data.n) * data.cpl
                        exact = np.all(targets[:-1] + _EPS < targets[1:])
                        assert (data.chain is None) == exact
                        assert not any(isinstance(getattr(data, slot),
                                                  list)
                                       for slot in data.__slots__)
        # Some tiles were planned, so the checks above ran.
        assert cadences > 0
