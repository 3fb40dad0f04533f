"""Array-based set-associative LRU cache kernel.

:class:`ArrayCache` keeps the cache state as dense numpy arrays — a
``(num_sets, ways)`` tag matrix and a stamp matrix encoding LRU order —
and services an entire line stream per call: ``np.unique``-compressed
stream, one vectorized tag match for every distinct line, bulk
statistics.  Like the dict-based :class:`~repro.memory.cache.Cache` it
is read-only, and it is *observably bit-identical* to it: same missed
stream positions, same counters, same ``resident_lines()`` LRU order.

The vectorized path is only legal when the batch satisfies two
trace-checkable conditions (violations fall back to an exact per-line
loop over the same arrays):

* **set-safety** — no cache set sees more than ``ways`` distinct lines
  in the batch, which guarantees a line once touched is never evicted
  within the batch (so duplicate occurrences are hits) and that every
  eviction still finds an untouched entry;
* **victim-safety** — for each set, the ``e`` oldest resident entries
  (``e`` = evictions the batch will cause there) contain no line the
  batch is about to touch.  Then the victims are exactly those entries
  in age order, independent of how touches and misses interleave, and
  hit/miss classification against the *entry* state is exact.

Where the dict cache wins on interval-sized batches (tens of lines —
numpy dispatch overhead dominates there, which is why the simulator's
inner loop keeps dicts), :class:`ArrayCache` wins on long streams:
the per-line Python cost is replaced by a handful of array ops.  See
``docs/performance.md`` for the measured crossover.

Line addresses must be non-negative (``-1`` is the empty-slot tag).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..compat import require_numpy
from ..config import CacheConfig
from ..errors import ConfigValidationError
from .cache import Cache, CacheStats

np = require_numpy()

_EMPTY = -1
_BIG = np.iinfo(np.int64).max


class ArrayCache(Cache):
    """Set-associative LRU cache backed by numpy state arrays.

    Drop-in behavioural replacement for :class:`Cache` (same public
    surface, same observable semantics); ``min_batch`` sets the stream
    length below which the vectorized kernel is not worth its dispatch
    overhead and the exact per-line loop runs instead.
    """

    def __init__(self, config: CacheConfig, name: str = "array-cache",
                 min_batch: int = 4096):
        config.validate()
        self.config = config
        self.name = name
        self.num_sets = config.num_sets
        self.ways = config.ways
        self._set_mask = self.num_sets - 1
        self.min_batch = min_batch
        shape = (self.num_sets, self.ways)
        self._tags = np.full(shape, _EMPTY, dtype=np.int64)
        self._stamps = np.zeros(shape, dtype=np.int64)
        #: Monotonic access counter; per-set LRU order = ascending stamp.
        self._clock = 0
        self.stats = CacheStats()

    # -- observable state ---------------------------------------------------
    def contains(self, line: int) -> bool:
        """True when the line is resident."""
        return bool((self._tags[line & self._set_mask] == line).any())

    def resident_lines(self) -> List[int]:
        """All resident line addresses, LRU-to-MRU within each set."""
        tags = self._tags
        stamps = self._stamps
        occupied = tags != _EMPTY
        out: List[int] = []
        for index in np.flatnonzero(occupied.any(axis=1)).tolist():
            row = occupied[index]
            order = np.argsort(np.where(row, stamps[index], _BIG),
                               kind="stable")
            out.extend(tags[index][order[:int(row.sum())]].tolist())
        return out

    def reset(self) -> None:
        """Invalidate contents and zero the statistics."""
        self._tags.fill(_EMPTY)
        self._stamps.fill(0)
        self._clock = 0
        self.stats.reset()

    # -- access paths -------------------------------------------------------
    def lookup(self, line: int) -> bool:
        """Access one line; returns True on hit (a miss allocates it)."""
        return not self._scalar((line,))

    def lookup_batch(self, lines: Sequence[int]) -> List[int]:
        """Access a line stream in order; returns the positions that missed.

        Streams of at least ``min_batch`` lines go through the
        vectorized kernel when its safety conditions hold (see module
        docstring); everything else runs the exact per-line loop.
        """
        if len(lines) >= self.min_batch:
            missed = self._kernel(lines)
            if missed is not None:
                return missed
        return self._scalar(lines)

    def _scalar(self, seq: Sequence[int]) -> List[int]:
        """Exact per-line reference walk over the array state."""
        tags = self._tags
        stamps = self._stamps
        mask = self._set_mask
        clock = self._clock
        missed: List[int] = []
        evictions = 0
        for pos, line in enumerate(seq):
            index = line & mask
            trow = tags[index]
            eq = trow == line
            if eq.any():
                way = int(eq.argmax())
            else:
                empty = trow == _EMPTY
                if empty.any():
                    way = int(empty.argmax())
                else:
                    way = int(stamps[index].argmin())
                    evictions += 1
                tags[index, way] = line
                missed.append(pos)
            stamps[index, way] = clock
            clock += 1
        self._clock = clock
        n = len(seq)
        stats = self.stats
        stats.accesses += n
        stats.hits += n - len(missed)
        stats.misses += len(missed)
        stats.evictions += evictions
        return missed

    def _kernel(self, seq: Sequence[int]) -> Optional[List[int]]:
        """Vectorized whole-stream walk; None when a safety check fails."""
        arr = np.asarray(seq, dtype=np.int64)
        n = arr.shape[0]
        if n == 0:
            return []
        if int(arr.min()) < 0:
            raise ConfigValidationError(
                f"{self.name}: line addresses must be non-negative")
        # np.unique-compressed stream in first-occurrence order, with
        # each line's first and last occurrence (final LRU rank within
        # its set).
        values, first = np.unique(arr, return_index=True)
        _, rlast = np.unique(arr[::-1], return_index=True)
        order = np.argsort(first, kind="stable")
        uniq = values[order]
        first = first[order]
        last = (n - 1 - rlast)[order]
        setid = uniq & self._set_mask
        usets, uset_inv, uset_count = np.unique(
            setid, return_inverse=True, return_counts=True)
        ways = self.ways
        if int(uset_count.max()) > ways:
            return None  # set-safety violated
        tags = self._tags
        stamps = self._stamps
        set_tags = tags[usets]                      # (S, ways) snapshot
        set_stamps = stamps[usets]
        # Vectorized tag match of every distinct line against its set.
        hit_mat = tags[setid] == uniq[:, None]      # (U, ways)
        hit = hit_mat.any(axis=1)
        hit_way = hit_mat.argmax(axis=1)
        miss = ~hit
        nmiss = int(miss.sum())
        nsets = usets.shape[0]
        miss_per_set = np.bincount(uset_inv[miss], minlength=nsets)
        free = ways - (set_tags != _EMPTY).sum(axis=1)
        evict = miss_per_set - free
        np.maximum(evict, 0, out=evict)
        # Which (set, way) slots the batch touches (hit candidates).
        cand = np.zeros((nsets, ways), dtype=bool)
        cand[uset_inv[hit], hit_way[hit]] = True
        if evict.any():
            # Victim-safety: the evict_s oldest residents of each set
            # must contain no candidate, otherwise victim identity
            # depends on how touches and misses interleave.
            age_order = np.argsort(
                np.where(set_tags == _EMPTY, _BIG, set_stamps),
                axis=1, kind="stable")
            cand_by_age = np.take_along_axis(cand, age_order, axis=1)
            rank = np.arange(ways)[None, :]
            if (cand_by_age & (rank < evict[:, None])).any():
                return None  # victim-safety violated
        way_all = hit_way
        n_evictions = 0
        if nmiss:
            # Per-set slot order for misses: empty ways first, then the
            # victims in age order; candidate ways are never reachable
            # (misses per set never exceed empties + victims).
            slot_key = np.where(set_tags == _EMPTY, np.int64(-1),
                                np.where(cand, _BIG, set_stamps))
            slot_order = np.argsort(slot_key, axis=1, kind="stable")
            miss_sets = uset_inv[miss]
            # Rank of each miss within its set (first-occurrence order).
            by_set = np.argsort(miss_sets, kind="stable")
            sorted_sets = miss_sets[by_set]
            starts = np.flatnonzero(
                np.r_[True, sorted_sets[1:] != sorted_sets[:-1]])
            group_len = np.diff(np.append(starts, nmiss))
            rank_sorted = np.arange(nmiss) - np.repeat(starts, group_len)
            rank = np.empty(nmiss, dtype=np.int64)
            rank[by_set] = rank_sorted
            miss_way = slot_order[miss_sets, rank]
            real_sets = setid[miss]
            n_evictions = int((tags[real_sets, miss_way] != _EMPTY).sum())
            tags[real_sets, miss_way] = uniq[miss]
            way_all = np.where(miss, 0, hit_way)
            way_all[miss] = miss_way
        # Final stamps: every touched line ends ordered by its last
        # occurrence, behind all untouched survivors (older clock).
        stamps[setid, way_all] = self._clock + last
        self._clock += n
        stats = self.stats
        stats.accesses += n
        stats.hits += n - nmiss                     # duplicates all hit
        stats.misses += nmiss
        stats.evictions += n_evictions
        # A missed line misses at its first occurrence; ``first`` is
        # already ascending (first-occurrence order).
        return first[miss].tolist()
