"""Shared expectation constants for the reproduced paper figures.

Single source of truth for (a) the values the paper reports and (b) the
*shape thresholds* this reproduction asserts — orderings, signs and
ratio bands.  :mod:`repro.figures.registry` turns them into
:class:`~repro.figures.registry.Expectation` records, which both
``repro figures`` (from checkpointed sweep artifacts) and
``benchmarks/test_registry.py`` (from the harness cache) evaluate, so
the two cannot drift.

Naming convention: ``<FIG>_PAPER_*`` is a value the paper reports
(quoted in the delta tables, never asserted — absolute numbers are not
comparable across simulators); every other constant parameterizes an
asserted shape claim.
"""

from __future__ import annotations

# -- Figure 1: execution-time breakdown --------------------------------------
#: The paper's headline: ~88% of GPU time goes to the raster process.
FIG1_PAPER_RASTER_FRACTION = 0.88
#: Shape: raster dominates on average...
FIG1_MIN_MEAN_RASTER_FRACTION = 0.70
#: ...and for every single benchmark.
FIG1_MIN_RASTER_FRACTION = 0.50

# -- Figure 2: per-tile DRAM heatmap -----------------------------------------
#: Shape: the hottest 10% of tiles carry well over 10% of the traffic.
FIG2_HOT_FRACTION = 0.1
FIG2_MIN_HOT_SHARE = 0.2
#: Shape: most hot tiles touch another hot tile (spatial clustering).
FIG2_MIN_CLUSTERING = 0.5
#: Percentile above which a tile counts as hot for the clustering check.
FIG2_HOT_PERCENTILE = 80

# -- Figure 7: DRAM requests per interval (burstiness) -----------------------
#: Simulation interval is 1000 cycles; the paper plots 5000-cycle bins.
FIG7_REBIN = 5
#: Shape: visible burstiness on the baseline (peaks well above mean).
FIG7_MIN_PEAK_OVER_MEAN = 1.5
FIG7_MIN_BASELINE_COV = 0.2

# -- Figure 11: LIBRA speedup, memory-intensive half -------------------------
FIG11_PAPER_PTR_SPEEDUP = 1.132
FIG11_PAPER_LIBRA_SPEEDUP = 1.209
#: Shape: PTR alone clearly beats the baseline.
FIG11_MIN_PTR_SPEEDUP = 1.03
#: Shape: per-benchmark, LIBRA < PTR*this counts as a regression...
FIG11_REGRESSION_TOLERANCE = 0.98
#: ...and at most this many benchmarks may regress.
FIG11_MAX_REGRESSIONS = 3

# -- Figure 12: texture access latency ---------------------------------------
FIG12_PAPER_LIBRA_LATENCY_DECREASE = 0.135
#: Shape: PTR alone *raises* latency on at least this many benchmarks.
FIG12_MIN_PTR_LATENCY_REGRESSIONS = 4

# -- Figure 13: texture cache hit ratio --------------------------------------
FIG13_PAPER_LIBRA_HIT_GAIN = 0.106
#: Shape: LIBRA's mean hit-ratio change stays within this additive
#: tolerance of PTR's (the supertile mechanism must not lose locality).
FIG13_PTR_TOLERANCE = 0.01

# -- Figure 14: DRAM accesses, LIBRA normalized to PTR -----------------------
FIG14_PAPER_NORMALIZED_DRAM = 1.0
#: Shape: the mean normalized access count stays near 1.0...
FIG14_MEAN_BAND = (0.85, 1.10)
#: ...and no single benchmark strays far from it.
FIG14_PER_BENCH_BAND = (0.70, 1.25)

# -- Figure 15: total GPU energy ---------------------------------------------
FIG15_PAPER_PTR_SAVING = 0.055
FIG15_PAPER_LIBRA_SAVING = 0.092
#: Shape: LIBRA saves at least as much energy as PTR, within this
#: additive tolerance.
FIG15_PTR_TOLERANCE = 0.005

# -- Figure 17: compute-intensive half ---------------------------------------
FIG17_PAPER_PTR_SPEEDUP = 1.099
FIG17_PAPER_LIBRA_SPEEDUP = 1.116
FIG17_PAPER_SCHEDULER_GAIN = 1.017
FIG17_MIN_PTR_SPEEDUP = 1.03
#: Shape: the scheduler's extra contribution stays small...
FIG17_MAX_SCHEDULER_GAIN = 1.05
#: ...and LIBRA never harms: geomean within 1% of PTR, every
#: benchmark within 3%.
FIG17_MEAN_TOLERANCE = 0.99
FIG17_PER_BENCH_TOLERANCE = 0.97

# -- Table I: simulation parameters ------------------------------------------
TABLE1_FREQUENCY_HZ = 800_000_000
TABLE1_TILE_SIZE = 32
TABLE1_VERTEX_CACHE_BYTES = 4 * 1024
TABLE1_TILE_CACHE_BYTES = 32 * 1024
TABLE1_TEXTURE_CACHE_BYTES = 32 * 1024
TABLE1_L2_CACHE_BYTES = 2 * 1024 * 1024
TABLE1_DRAM_ROW_HIT_CYCLES = 50
TABLE1_DRAM_ROW_MISS_CYCLES = 100
TABLE1_TOTAL_CORES = 8

# -- Table II: benchmark suite -----------------------------------------------
TABLE2_SUITE_SIZE = 32
TABLE2_MEMORY_INTENSIVE_COUNT = 16
TABLE2_MIN_MEAN_FOOTPRINT_MB = 4.0
