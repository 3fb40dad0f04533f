"""``DRAM.request_batch`` versus the scalar ``request`` walk.

``request_batch`` is the one batched DRAM row walk: the batched
``SharedMemory`` calls and the batched Raster Unit issue through it.
Same parity-oracle contract as the cache kernel: it must land
bit-identical statistics, open-row state, service-cycle accounting and
interval series, for any stream and any interleaving with
``end_interval`` — including non-integer service cycles, where float
summation order matters.  ``TestStreamToDramDispatch`` holds the two
``SharedMemory`` batch calls to one per-line call each.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import numpy as np

from repro.config import CacheConfig, DRAMConfig, small_config
from repro.memory.dram import DRAM
from repro.memory.hierarchy import SharedMemory

bursts = st.lists(st.lists(st.integers(0, 4000), max_size=60), max_size=6)

# Lines from a small pool hit a warm 16-line L2 and share DRAM rows;
# lines from the wide range miss it and spread over rows and banks.
shared_lines = st.lists(st.one_of(st.integers(0, 63), st.integers(0, 4000)),
                        max_size=40)
SMALL_L2 = CacheConfig(size_bytes=16 * 64, ways=4, line_bytes=64)


def _pair(**kw):
    return (DRAM(DRAMConfig(**kw), interval_cycles=1000),
            DRAM(DRAMConfig(**kw), interval_cycles=1000))


def _state(dram):
    s = dram.stats
    return ((s.reads, s.writes, s.row_hits, s.row_misses, s.activations),
            list(dram._open_rows),
            dram._service_cycles_sum, dram._service_count,
            dram._interval_requests, dram._backlog, dram._loaded_latency,
            list(s.interval_requests), list(s.interval_utilization),
            list(s.interval_latency))


class TestRequestBatchProperty:

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=bursts, write=st.booleans())
    def test_matches_scalar_requests(self, stream, write):
        scalar, batched = _pair()
        for burst in stream:
            total_scalar = sum(scalar.request(line, write=write)
                               for line in burst)
            total_batched = batched.request_batch(burst, write=write)
            assert total_batched == total_scalar
            scalar.end_interval()
            batched.end_interval()
            assert _state(batched) == _state(scalar)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=bursts)
    def test_non_integer_service_cycles(self, stream):
        # Fractional service latencies make the running float sum
        # order-sensitive; the batch path must accumulate in stream
        # order, not bulk-multiply.
        scalar, batched = _pair()
        for dram in (scalar, batched):
            dram._hit_service = 50.3
            dram._miss_service = 100.7
        for burst in stream:
            total_scalar = sum(scalar.request(line) for line in burst)
            total_batched = batched.request_batch(burst)
            assert total_batched == total_scalar
            scalar.end_interval()
            batched.end_interval()
            assert _state(batched) == _state(scalar)

    def test_ndarray_input(self):
        scalar, batched = _pair()
        lines = np.arange(0, 4096, 3, dtype=np.int64) % 997
        total_scalar = sum(scalar.request(int(x)) for x in lines)
        assert batched.request_batch(lines) == total_scalar
        assert _state(batched) == _state(scalar)

    def test_empty_batch(self):
        dram = DRAM(DRAMConfig())
        assert dram.request_batch([]) == 0.0
        assert dram.stats.accesses == 0


class TestIdleIntervalFastPath:
    """An all-idle interval reduces exactly to the general derivation."""

    def test_idle_series_matches_unloaded_latency(self):
        dram = DRAM(DRAMConfig())
        for _ in range(3):
            dram.end_interval()
        assert dram.stats.interval_requests == [0, 0, 0]
        assert dram.stats.interval_utilization == [0.0, 0.0, 0.0]
        assert dram.stats.interval_latency \
            == [float(dram.config.row_hit_cycles)] * 3
        assert dram.loaded_latency == float(dram.config.row_hit_cycles)

    def test_idle_after_traffic_keeps_general_path_semantics(self):
        # After a loaded interval the backlog must drain through the
        # general path; only truly idle intervals take the fast path.
        dram = DRAM(DRAMConfig(requests_per_cycle=0.01),
                    interval_cycles=100)
        dram.request_batch(list(range(64)))
        dram.end_interval()
        assert dram.backlog > 0
        latency_loaded = dram.loaded_latency
        dram.end_interval()  # backlog > 0: not the idle fast path
        assert dram.stats.interval_requests == [64, 0]
        assert dram.loaded_latency <= latency_loaded


def _l2_state(cache):
    s = cache.stats
    return ((s.accesses, s.hits, s.misses, s.evictions),
            cache.resident_lines())


class TestStreamToDramDispatch:
    """The batched ``SharedMemory`` calls equal one per-line call each."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(warm=shared_lines, rows=shared_lines,
           stream=st.lists(shared_lines, max_size=4),
           banks=st.sampled_from([1, 4, 8]), fractional=st.booleans(),
           write=st.booleans())
    def test_batch_calls_match_per_line_calls(self, warm, rows, stream,
                                              banks, fractional, write):
        # Both memories start from the same warm L2 and open rows; then
        # each burst goes through access_batch and stream_to_dram_batch
        # on one, and through access and stream_to_dram per line on the
        # other.
        if fractional:
            dram = DRAMConfig(num_banks=banks, row_hit_cycles=50.3,
                              row_miss_cycles=100.7)
        else:
            dram = DRAMConfig(num_banks=banks)
        config = small_config(screen_width=128, screen_height=64,
                              tile_size=32, l2_cache=SMALL_L2, dram=dram)
        batched, scalar = SharedMemory(config), SharedMemory(config)
        for shared in (batched, scalar):
            for line in warm:
                shared.access(line, "texture")
            for line in rows:
                shared.dram.request(line)
            shared.end_interval()
        for burst in stream:
            misses = batched.access_batch(burst, "texture")
            assert misses == sum(scalar.access(line, "texture") == "dram"
                                 for line in burst)
            batched.stream_to_dram_batch(burst, "framebuffer", write=write)
            for line in burst:
                scalar.stream_to_dram(line, "framebuffer", write=write)
            for shared in (batched, scalar):
                shared.end_interval()
            assert _l2_state(batched.l2) == _l2_state(scalar.l2)
            assert _state(batched.dram) == _state(scalar.dram)
            assert batched.traffic.counts == scalar.traffic.counts

    def _check_against_requests(self, lines):
        """The stream lands the statistics, open rows, service sum and
        traffic of one ``DRAM.request`` per line."""
        config = small_config(screen_width=128, screen_height=64,
                              tile_size=32)
        a, b = SharedMemory(config), SharedMemory(config)
        a.stream_to_dram_batch(lines, "framebuffer")
        for line in lines:
            b.dram.request(line, write=True)
        b.traffic.add("framebuffer", len(lines))
        assert _state(a.dram) == _state(b.dram)
        assert a.traffic.counts == b.traffic.counts

    def test_long_stream_matches_scalar_walk(self):
        # Far longer than a 32x32 tile's 64-line flush.
        self._check_against_requests(
            [int(x) for x in
             np.random.default_rng(3).integers(0, 5000, size=900)])

    def test_short_stream_keeps_inline_walk(self):
        self._check_against_requests(list(range(40)))
