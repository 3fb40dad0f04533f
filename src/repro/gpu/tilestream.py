"""Data the batched Raster Unit derives from a tile's trace.

The batched Raster Unit applies a tile's whole texture-L1 walk at
dispatch and then consumes the resulting plan interval by interval (see
``TimingRasterUnit``).  What that plan needs beyond the L1 walk itself —
the compute cadence that decides *when* each line is due — derives
purely from immutable trace content plus configuration constants.  It
therefore lives here, computed once per workload and cached on the
workload object (:func:`derived`), never on simulation state.  Per-line
data is held in ``float64`` arrays: a process that keeps its traces
keeps these too.

Exactness note (load-bearing, verified by the parity suite):
``TileCadence`` replays the scalar advance loop's float operations —
``gap = target - done; done += gap`` — once per ``(line, entry budget)``
and memoizes the outcome, so steady-state intervals reduce to a dict
hit.  ``done_after(i)`` is exactly the scalar ``done`` after accessing
line ``i``: the product ``i * cycles_per_line`` when every target clears
its predecessor by more than the epsilon (then each step lands on its
target exactly), else the scalar recurrence itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

_EPS = 1e-9


def derived(workload) -> dict:
    """The workload's cache of data derived from its trace.

    Attached lazily to the workload object and keyed by derivation and
    the configuration constants it depends on, so a process derives
    each entry once per trace however many simulations replay it.
    """
    cache = workload.__dict__.get("_soa")
    if cache is None:
        cache = workload.__dict__["_soa"] = {}
    return cache


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

    __slots__ = ("n", "cpl", "chain", "_memo")

    def __init__(self, n_lines: int, cycles_per_line: float):
        self.n = n_lines
        self.cpl = cycles_per_line
        #: The scalar ``done`` after each line as a ``float64`` array,
        #: or None when it is ``i * cycles_per_line`` at every line.
        self.chain: Optional[np.ndarray] = None
        # Elementwise i * cpl in float64 — identical to the scalar mult.
        targets = np.arange(n_lines, dtype=np.float64) * cycles_per_line
        # When every target clears its predecessor by more than the
        # epsilon, each step of the scalar chain below starts at the
        # previous target t and adds ``target - t``, which is exact (t is
        # 0 or within a factor of two of the target: Sterbenz), so
        # ``done`` lands on every target and no chain is kept.
        if not np.all(targets[:-1] + _EPS < targets[1:]):
            done = 0.0
            eps = _EPS
            chain = []
            for target in targets.tolist():
                # Unbounded-budget replay of the scalar chunk loop: each
                # iteration performs the same subtract/add pair,
                # repeating while rounding leaves ``done`` short of the
                # target.
                while done + eps < target:
                    done += (target - done)
                chain.append(done)
            self.chain = np.array(chain, dtype=np.float64)
        self._memo: Dict[Tuple[int, float, float],
                         Tuple[int, float, float]] = {}

    def done_after(self, index: int) -> float:
        """The scalar ``done`` right after accessing line ``index``."""
        if self.chain is None:
            return index * self.cpl
        return float(self.chain[index])

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
        cpl = self.cpl
        n = self.n
        eps = _EPS
        i = index
        while budget > eps and i < n:
            target = i * cpl
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
    cache = derived(workload)
    key = ("cad", cycles_per_line)
    data = cache.get(key)
    if data is None:
        data = cache[key] = TileCadence(len(workload.texture_lines),
                                        cycles_per_line)
    return data

