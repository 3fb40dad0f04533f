"""Structure-of-arrays views of tile workload streams.

The batched Raster Unit path plans a whole tile's texture-L1 behaviour at
dispatch time and then consumes the plan interval by interval (see
``TimingRasterUnit``).  Everything needed for that plan — the
``np.unique``-compressed line stream, the per-set layout against a given
cache geometry, the compute cadence that decides *when* each line is due,
and the DRAM row/bank runs of the Color Buffer flush — derives purely
from immutable trace content plus configuration constants.  It therefore
lives here, computed once per workload with numpy and cached on the
workload object, never on simulation state.

Exactness notes (load-bearing, verified by the parity suite):

* ``TileCadence`` replays the scalar advance loop's float operations —
  ``gap = target - done; done += gap`` — once per ``(line, entry
  budget)`` and memoizes the outcome, so steady-state intervals reduce
  to a dict hit.  ``done_after[i]`` is exactly the scalar ``done`` after
  accessing line ``i`` because the chain is *computed with* the scalar
  recurrence, not re-derived analytically.
* ``l1_layout`` only returns a plan when every cache set sees at most
  ``ways`` distinct stream lines (the tile working set fits its sets).
  Under that condition the eviction victims of the whole tile are
  exactly the oldest untouched resident lines of each set, in scalar
  order, regardless of how duplicate occurrences interleave — which is
  what makes whole-tile pre-application of the L1 walk bit-exact.
  Tiles that violate it fall back to the fused per-line loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

_EPS = 1e-9

#: Layout plan: (uniq lines, line -> first position, retouch lines).
L1Layout = Tuple[Tuple[int, ...], Dict[int, int], Tuple[int, ...]]


def _soa(workload) -> dict:
    """Per-workload cache of derived stream data (attached lazily)."""
    cache = workload.__dict__.get("_soa")
    if cache is None:
        cache = workload.__dict__["_soa"] = {}
    return cache


def stream_uniq(workload) -> Tuple[Tuple[int, ...], ...]:
    """The tile's distinct texture lines, in first-occurrence order.

    Returns ``(lines, first_pos, last_pos)`` as parallel tuples of
    Python ints: each distinct line, the stream position of its first
    occurrence, and the position of its last occurrence.
    """
    cache = _soa(workload)
    data = cache.get("uniq")
    if data is None:
        arr = np.asarray(workload.texture_lines, dtype=np.int64)
        n = arr.shape[0]
        if n == 0:
            data = ((), (), ())
        else:
            values, first = np.unique(arr, return_index=True)
            _, rlast = np.unique(arr[::-1], return_index=True)
            last = n - 1 - rlast
            order = np.argsort(first, kind="stable")
            data = (tuple(values[order].tolist()),
                    tuple(first[order].tolist()),
                    tuple(last[order].tolist()))
        cache["uniq"] = data
    return data


def l1_layout(workload, set_mask: int, ways: int) -> Optional[L1Layout]:
    """Per-set layout of the tile stream against an L1 geometry.

    Returns ``(uniq_lines, pos_of, retouch)`` when the stream is
    *set-safe* — no cache set sees more than ``ways`` distinct lines —
    or ``None`` when it is not (the caller must use the per-line path).
    ``pos_of`` maps each line to its first stream position; the plan
    walk only consults it for misses, so it is a dict rather than a
    tuple paired positionally with ``uniq_lines``.

    ``retouch`` lists the lines of sets holding two or more stream lines
    whose LRU order after a first-occurrence walk differs from the true
    final order; re-touching them in last-occurrence order afterwards
    reproduces the exact scalar end state.
    """
    cache = _soa(workload)
    key = ("l1", set_mask, ways)
    data = cache.get(key, False)
    if data is not False:
        return data
    lines, first, last = stream_uniq(workload)
    if not lines:
        data = ((), {}, ())
        cache[key] = data
        return data
    arr = np.asarray(lines, dtype=np.int64)
    setid = (arr & set_mask).astype(np.int64)
    counts = np.bincount(setid - setid.min())
    if int(counts.max()) > ways:
        cache[key] = None
        return None
    retouch: List[int] = []
    if int(counts.max()) > 1:
        groups: Dict[int, List[int]] = {}
        sid = setid.tolist()
        for i, s in enumerate(sid):
            groups.setdefault(s, []).append(i)
        for idxs in groups.values():
            if len(idxs) < 2:
                continue
            by_last = sorted(idxs, key=last.__getitem__)
            if by_last != idxs:
                retouch.extend(lines[i] for i in by_last)
    data = (lines, dict(zip(lines, first)), tuple(retouch))
    cache[key] = data
    return data


class TileCadence:
    """Memoized replay of the scalar texture-stream advance cadence.

    The scalar loop advances ``done`` toward ``target = i *
    cycles_per_line`` one float chunk at a time, accessing line ``i``
    once the target is reached and stopping when the interval's cycle
    budget runs out.  For a given entry state ``(next line index, done,
    budget)`` the number of lines consumed and the exit floats are a
    pure function, so each distinct entry is simulated once with the
    exact scalar float sequence and cached.
    """

    __slots__ = ("n", "targets", "done_after", "_memo")

    def __init__(self, n_lines: int, cycles_per_line: float):
        self.n = n_lines
        # Elementwise i * cpl in float64 — identical to the scalar mult.
        self.targets = (np.arange(n_lines, dtype=np.float64)
                        * cycles_per_line).tolist()
        done = 0.0
        eps = _EPS
        done_after: List[float] = []
        for target in self.targets:
            # Unbounded-budget replay of the scalar chunk loop: each
            # iteration performs the same subtract/add pair, repeating
            # while rounding leaves ``done`` short of the target.
            while done + eps < target:
                done += (target - done)
            done_after.append(done)
        self.done_after = done_after
        self._memo: Dict[Tuple[int, float, float],
                         Tuple[int, float, float]] = {}

    def consume(self, index: int, done: float,
                budget: float) -> Tuple[int, float, float]:
        """Lines consumed from ``index`` with ``budget`` cycles.

        Returns ``(count, done_exit, budget_exit)`` — exactly what the
        scalar loop would produce.  Memoized on the full entry state:
        the replay is a pure function of ``(index, done, budget)``, and
        the same states recur exactly across benchmark repeats and
        scheduler comparisons over one trace.
        """
        key = (index, done, budget)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = self._replay(index, done, budget)
        return hit

    def _replay(self, index: int, done: float,
                budget: float) -> Tuple[int, float, float]:
        """The scalar advance loop, verbatim, from an arbitrary state."""
        targets = self.targets
        n = self.n
        eps = _EPS
        i = index
        while budget > eps and i < n:
            target = targets[i]
            if done + eps < target:
                while True:
                    gap = target - done
                    chunk = gap if gap < budget else budget
                    done += chunk
                    budget -= chunk
                    if budget <= eps or done + eps >= target:
                        break
                if budget <= eps:
                    break
            i += 1
        return i - index, done, budget


def cadence(workload, cycles_per_line: float) -> TileCadence:
    """The (cached) cadence of this workload at ``cycles_per_line``."""
    cache = _soa(workload)
    key = ("cad", cycles_per_line)
    data = cache.get(key)
    if data is None:
        data = cache[key] = TileCadence(len(workload.texture_lines),
                                        cycles_per_line)
    return data


def fb_runs(workload, lines_per_row: int, bank_mask: int,
            bank_bits: int) -> Tuple[Tuple[int, int, int], ...]:
    """Row-buffer runs of the tile's Color Buffer flush stream.

    The flush stream visits DRAM rows in long consecutive runs (the
    frame buffer is laid out linearly), so the row/bank walk collapses
    to a few ``(bank, row_of_bank, count)`` entries: within a run every
    request after the first hits the open row by construction.
    """
    cache = _soa(workload)
    key = ("fb", lines_per_row, bank_mask, bank_bits)
    data = cache.get(key)
    if data is None:
        arr = np.asarray(workload.fb_lines, dtype=np.int64)
        if not len(arr):
            data = ()
        else:
            rows = arr // lines_per_row
            boundary = np.empty(arr.shape[0], dtype=bool)
            boundary[0] = True
            np.not_equal(rows[1:], rows[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            counts = np.diff(np.append(starts, arr.shape[0]))
            run_rows = rows[starts]
            data = tuple(zip((run_rows & bank_mask).tolist(),
                             (run_rows >> bank_bits).tolist(),
                             counts.tolist()))
        cache[key] = data
    return data
