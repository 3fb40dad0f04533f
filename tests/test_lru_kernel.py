"""ArrayCache (vectorized LRU kernel) versus the dict-based Cache.

The contract under test is the parity-oracle contract of
``docs/api.md``: :class:`repro.memory.lru_kernel.ArrayCache` must be
*observably bit-identical* to :class:`repro.memory.cache.Cache` — same
missed stream positions, same counters, same ``resident_lines()`` LRU
order — whether a batch runs through the vectorized kernel or falls
back to the exact per-line loop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import CacheConfig
from repro.errors import ConfigValidationError
from repro.memory.cache import Cache
from repro.memory.lru_kernel import ArrayCache

# 4 sets x 2 ways of 32-byte lines: tiny enough that short random
# streams constantly evict and violate the kernel's safety conditions
# (exercising the fallback).
TINY = CacheConfig(size_bytes=8 * 32, ways=2, line_bytes=32)
# 16 sets x 4 ways: roomy enough that window streams stay kernel-safe.
ROOMY = CacheConfig(size_bytes=64 * 32, ways=4, line_bytes=32)

line_streams = st.lists(st.integers(0, 31), max_size=120)


def _state(cache):
    s = cache.stats
    return ((s.accesses, s.hits, s.misses, s.evictions),
            cache.resident_lines())


def _run_batches(cache, batches):
    """The missed positions of every batch, one list per batch."""
    return [cache.lookup_batch(batch) for batch in batches]


class TestArrayCacheProperty:
    """Randomized parity, vectorized kernel forced on (min_batch=0)."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=line_streams, batch_len=st.integers(1, 40))
    def test_matches_dict_cache(self, stream, batch_len):
        ref = Cache(TINY, name="ref")
        arr = ArrayCache(TINY, name="arr", min_batch=0)
        batches = [stream[start:start + batch_len]
                   for start in range(0, len(stream), batch_len)]
        assert _run_batches(arr, batches) == _run_batches(ref, batches)
        assert _state(arr) == _state(ref)

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(stream=st.lists(st.integers(0, 255), max_size=120))
    def test_single_batch_roomy(self, stream):
        ref = Cache(ROOMY, name="ref")
        arr = ArrayCache(ROOMY, name="arr", min_batch=0)
        assert _run_batches(arr, [stream]) == _run_batches(ref, [stream])
        assert _state(arr) == _state(ref)


class TestVectorizedPathExplicitly:
    """Streams built to satisfy the safety conditions take the kernel."""

    def _windows(self, chunks=12, window=32, stride=24, reps=3):
        rng = np.random.default_rng(11)
        batches = []
        for i in range(chunks):
            w = np.arange(i * stride, i * stride + window, dtype=np.int64)
            lines = np.tile(w, reps)
            batches.append(lines[rng.permutation(len(lines))])
        return batches

    def test_kernel_used_and_identical(self, monkeypatch):
        ref = Cache(ROOMY, name="ref")
        arr = ArrayCache(ROOMY, name="arr", min_batch=1)
        outcomes = []
        original = ArrayCache._kernel

        def spy(self, seq):
            result = original(self, seq)
            outcomes.append(result is not None)
            return result

        monkeypatch.setattr(ArrayCache, "_kernel", spy)
        batches = self._windows()
        expected = _run_batches(ref, [b.tolist() for b in batches])
        missed = _run_batches(arr, batches)
        assert outcomes and all(outcomes), \
            "window stream was expected to stay on the vectorized path"
        assert missed == expected
        assert _state(arr) == _state(ref)

    def test_unsafe_batch_falls_back_exactly(self):
        # 5 distinct lines of one set > 4 ways: set-safety fails, the
        # per-line loop must produce the dict cache's exact state.
        lines = [0, 16, 32, 48, 64, 0, 16]
        ref = Cache(ROOMY, name="ref")
        arr = ArrayCache(ROOMY, name="arr", min_batch=1)
        assert arr._kernel(lines) is None
        assert _run_batches(arr, [lines]) == _run_batches(ref, [lines])
        assert _state(arr) == _state(ref)

    def test_victim_unsafe_batch_falls_back(self):
        # Fill set 0, age line 0, then batch [hit the LRU line, 4
        # misses of the same set]: the oldest resident is also a hit
        # candidate, so victim-safety must reject the batch.
        arr = ArrayCache(ROOMY, name="arr", min_batch=1)
        for line in (0, 16, 32, 48):
            arr.lookup(line)
        batch = [0, 64, 80, 96, 112]
        assert arr._kernel(batch) is None
        ref = Cache(ROOMY, name="ref")
        for line in (0, 16, 32, 48):
            ref.lookup(line)
        _run_batches(ref, [batch])
        _run_batches(arr, [batch])
        assert _state(arr) == _state(ref)


class TestArrayCacheSurface:
    """The non-batch public surface matches the dict cache."""

    def test_scalar_lookup_and_contains(self):
        ref = Cache(TINY, name="ref")
        arr = ArrayCache(TINY, name="arr")
        for line in (1, 9, 17, 1, 25, 9):
            assert arr.lookup(line) == ref.lookup(line)
        assert arr.contains(1) == ref.contains(1)
        assert arr.contains(17) == ref.contains(17)
        assert _state(arr) == _state(ref)

    def test_reset_clears_everything(self):
        arr = ArrayCache(TINY)
        arr.lookup_batch([1, 2, 3])
        arr.reset()
        assert _state(arr) == ((0, 0, 0, 0), [])
        assert arr._clock == 0

    def test_ndarray_input_records_plain_ints(self):
        for min_batch in (1, 1 << 30):  # vectorized kernel, per-line loop
            arr = ArrayCache(ROOMY, min_batch=min_batch)
            missed = arr.lookup_batch(np.arange(8, dtype=np.int64))
            assert missed == list(range(8))
            assert all(type(pos) is int for pos in missed)

    def test_negative_lines_rejected_by_kernel(self):
        arr = ArrayCache(ROOMY, min_batch=1)
        with pytest.raises(ConfigValidationError):
            arr.lookup_batch([3, -1, 5])

    def test_empty_batch_is_a_noop(self):
        arr = ArrayCache(TINY, min_batch=0)
        assert arr.lookup_batch([]) == []
        assert arr.stats.accesses == 0
