"""Statistics helpers shared by experiments and reports."""

from __future__ import annotations

import logging
from typing import Dict, Iterable, List, Sequence, Tuple

TileCoord = Tuple[int, int]

logger = logging.getLogger(__name__)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the standard aggregate for speedups).

    Only positive values contribute (a geometric mean is undefined at
    zero or below).  Non-positive entries usually mean a failed or
    skipped run leaked into the aggregate, so dropping them is logged
    rather than silent.
    """
    filtered = [v for v in values if v > 0]
    dropped = len(values) - len(filtered)
    if dropped:
        logger.warning(
            "geometric_mean dropped %d non-positive value(s) out of %d; "
            "the aggregate covers the remaining %d",
            dropped, len(values), len(filtered))
    if not filtered:
        return 0.0
    product = 1.0
    for value in filtered:
        product *= value
    return product ** (1.0 / len(filtered))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain average; 0.0 for an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def rebin_series(series: Sequence[int], factor: int) -> List[int]:
    """Sum consecutive groups of ``factor`` samples.

    The timing model records DRAM requests per simulation interval
    (1000 cycles); the paper's Figure 7 plots 5000-cycle bins, so the
    series is rebinned by a factor of 5.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    return [sum(series[i:i + factor]) for i in range(0, len(series), factor)]


def coefficient_of_variation(values: Sequence[float]) -> float:
    """Std-dev over mean — the burstiness metric for DRAM demand series.

    0.0 for the degenerate cases: an empty series, an all-equal series
    (exactly 0.0, with no rounding residue from the mean), or a zero
    mean (the ratio is undefined; callers want "no signal", not a
    ZeroDivisionError).
    """
    if not values:
        return 0.0
    mean = arithmetic_mean(list(values))
    if mean == 0.0 or min(values) == max(values):
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return variance ** 0.5 / mean


def per_tile_difference_cdf(frame_a: Dict[TileCoord, int],
                            frame_b: Dict[TileCoord, int],
                            thresholds: Iterable[float]
                            ) -> List[Tuple[float, float]]:
    """Cumulative fraction of tiles whose metric changed less than each
    threshold between two frames (the paper's Figure 8).

    The relative difference of a tile is |a - b| / max(a, b); tiles absent
    from both frames are ignored, tiles absent from one count as 100%
    changed (unless both are zero).
    """
    tiles = set(frame_a) | set(frame_b)
    diffs: List[float] = []
    for tile in tiles:
        a = frame_a.get(tile, 0)
        b = frame_b.get(tile, 0)
        top = max(a, b)
        if top == 0:
            continue
        diffs.append(abs(a - b) / top)
    if not diffs:
        return [(t, 1.0) for t in thresholds]
    out = []
    for threshold in thresholds:
        covered = sum(1 for d in diffs if d <= threshold)
        out.append((threshold, covered / len(diffs)))
    return out
