"""Tests for the set-associative LRU cache simulator."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheConfig
from repro.memory.cache import Cache, CacheStats, replication


def cache(size=1024, ways=2, name="c"):
    return Cache(CacheConfig(size, ways), name=name)


class TestBasics:
    def test_first_access_misses(self):
        c = cache()
        assert not c.lookup(0)
        assert c.stats.misses == 1

    def test_second_access_hits(self):
        c = cache()
        c.lookup(0)
        assert c.lookup(0)
        assert c.stats.hits == 1

    def test_counts_consistent(self):
        c = cache()
        for line in [0, 1, 0, 2, 1, 0]:
            c.lookup(line)
        stats = c.stats
        assert stats.accesses == stats.hits + stats.misses

    def test_contains(self):
        c = cache()
        c.lookup(5)
        assert c.contains(5)
        assert not c.contains(6)

    def test_hit_ratio(self):
        c = cache()
        c.lookup(0)
        c.lookup(0)
        assert c.stats.hit_ratio == pytest.approx(0.5)

    def test_empty_hit_ratio_zero(self):
        assert CacheStats().hit_ratio == 0.0


class TestLRUReplacement:
    def test_lru_victim_chosen(self):
        # 2 ways, 8 sets; lines 0, 8, 16 all map to set 0.
        c = cache(size=64 * 16, ways=2)
        c.lookup(0)
        c.lookup(8)
        c.lookup(16)      # evicts 0 (LRU)
        assert not c.contains(0)
        assert c.contains(8)
        assert c.contains(16)

    def test_touch_refreshes_lru(self):
        c = cache(size=64 * 16, ways=2)
        c.lookup(0)
        c.lookup(8)
        c.lookup(0)       # 8 is now LRU
        c.lookup(16)      # evicts 8
        assert c.contains(0)
        assert not c.contains(8)

    def test_different_sets_do_not_conflict(self):
        c = cache(size=64 * 16, ways=2)
        for line in range(8):
            c.lookup(line)
        assert all(c.contains(line) for line in range(8))

    def test_eviction_counted(self):
        c = cache(size=64 * 16, ways=2)
        for line in [0, 8, 16]:
            c.lookup(line)
        assert c.stats.evictions == 1


class TestRepeatHits:
    def test_repeat_hits_affect_only_with_repeats_ratio(self):
        c = cache()
        c.lookup(0)
        c.record_repeat_hits(9)
        assert c.stats.hit_ratio == 0.0
        assert c.stats.hit_ratio_with_repeats == pytest.approx(0.9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cache().record_repeat_hits(-1)


class TestReset:
    def test_reset_clears_everything(self):
        c = cache()
        c.lookup(0)
        c.reset()
        assert c.stats.accesses == 0
        assert not c.contains(0)
        assert c.resident_lines() == []


class ListLRU:
    """Brute-force LRU model: one list per set, least recently used first."""

    def __init__(self, num_sets, ways):
        self.num_sets = num_sets
        self.ways = ways
        self.sets = {}
        self.counts = [0, 0, 0, 0]  # accesses, hits, misses, evictions

    def access(self, line):
        """Look one line up; True on hit."""
        ways = self.sets.setdefault(line % self.num_sets, [])
        self.counts[0] += 1
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.counts[1] += 1
            return True
        if len(ways) >= self.ways:
            ways.pop(0)
            self.counts[3] += 1
        ways.append(line)
        self.counts[2] += 1
        return False

    def resident_lines(self):
        return [line for index in sorted(self.sets)
                for line in self.sets[index]]


def counts(c):
    s = c.stats
    return [s.accesses, s.hits, s.misses, s.evictions]


class TestAgainstReferenceModel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=200))
    def test_matches_reference_lru(self, lines):
        """Cross-check hits/misses against a brute-force LRU model."""
        config = CacheConfig(64 * 16, 2)  # 8 sets, 2 ways
        c = Cache(config)
        reference = ListLRU(config.num_sets, config.ways)
        for line in lines:
            assert c.lookup(line) == reference.access(line)
        assert counts(c) == reference.counts
        assert c.resident_lines() == reference.resident_lines()

    @settings(max_examples=200, deadline=None)
    @given(batches=st.lists(st.lists(st.integers(0, 63), max_size=40),
                            max_size=8),
           geometry=st.sampled_from([(64 * 16, 2), (64 * 8, 1),
                                     (64 * 32, 4), (64 * 4, 4)]))
    # Set 0 of 8 sets x 2 ways sees 0, 8 and 16.  16 evicts 8, the least
    # recently used line, so 8 misses again at position 4.
    @example(batches=[[0, 8, 0, 16, 8, 0]], geometry=(64 * 16, 2))
    def test_lookup_batch_matches_reference_lru(self, batches, geometry):
        """Random batches return the positions the brute-force model
        misses, and leave its counters and resident lines."""
        config = CacheConfig(*geometry)
        c = Cache(config)
        reference = ListLRU(config.num_sets, config.ways)
        for batch in batches:
            expected = [pos for pos, line in enumerate(batch)
                        if not reference.access(line)]
            assert c.lookup_batch(batch) == expected
            assert counts(c) == reference.counts
            assert c.resident_lines() == reference.resident_lines()


class TestReplication:
    def test_counts_duplicate_lines(self):
        a, b = cache(name="a"), cache(name="b")
        a.lookup(1)
        a.lookup(2)
        b.lookup(1)
        replicated, total = replication([a, b])
        assert replicated == 1
        assert total == 3

    def test_no_duplicates(self):
        a, b = cache(name="a"), cache(name="b")
        a.lookup(1)
        b.lookup(2)
        assert replication([a, b])[0] == 0

    def test_stats_merge(self):
        a = CacheStats(accesses=2, hits=1, misses=1)
        b = CacheStats(accesses=3, hits=0, misses=3, evictions=1)
        merged = a.merged_with(b)
        assert merged.accesses == 5
        assert merged.misses == 4
        assert merged.evictions == 1
