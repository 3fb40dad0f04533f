"""The figure registry: one committed spec + expectations per figure.

Every reproduced paper figure/table is a :class:`FigureSpec`:

* an :class:`~repro.experiments.spec.ExperimentSpec` naming the grid of
  (benchmark, kind) points the figure needs — executed through the
  resumable sweep engine, so figures *share* checkpointed artifacts
  (the headline Figures 11–15 all read the same memory-intensive
  sweep);
* a ``compute`` function reducing the checkpointed
  :class:`~repro.harness.RunSummary` objects to the figure's named
  measured values plus an optional plot payload for the dashboard;
* a tuple of :class:`Expectation` records, each encoding one *shape
  claim* — an ordering, sign or ratio band from
  :mod:`repro.figures.expectations` — plus the paper's reported value
  for the delta table.

Config-only tables (Tables I–II) carry no sweep spec; their compute
functions read :mod:`repro.config` / :mod:`repro.workloads` directly.

Two profiles: the **full** profile matches the ``benchmarks/`` suite
(960x512, 8 frames, full benchmark classes); the **quick** profile
(``repro figures --quick``) shrinks geometry, frames and suites to CI
scale.  Quick-profile shape checks may be looser (small grids are
noisier); each :class:`Expectation` can carry a ``quick_check``
override.  Spec names carry a ``-quick`` suffix so the two profiles
never share (or fight over) an artifact store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..errors import ConfigValidationError
from ..experiments import ExperimentSpec
from ..stats import arithmetic_mean, coefficient_of_variation, \
    geometric_mean, rebin_series, tile_matrix
from . import expectations as X

#: (benchmark, kind) -> RunSummary, the pivot the runner hands compute().
SummaryMap = Dict[Tuple[str, str], Any]

# -- profiles ----------------------------------------------------------------

#: Full profile matches the ``benchmarks/`` harness geometry.
FULL_WIDTH, FULL_HEIGHT, FULL_FRAMES = 960, 512, 8
#: Quick profile: CI scale (seconds per point, not tens of seconds).
QUICK_WIDTH, QUICK_HEIGHT, QUICK_FRAMES = 256, 128, 2

#: Quick-profile benchmark subsets (must keep CCS for Fig. 7 and SuS
#: for Fig. 2; memory/compute subsets stay within their full classes).
QUICK_MEMORY = ("CCS", "GrT", "SuS", "HoW")
QUICK_COMPUTE = ("GDL", "Jet", "PzQ", "CrS")
QUICK_BASELINE = ("CCS", "SuS", "GrT", "GDL", "Jet", "PzQ")


# -- expectation records -----------------------------------------------------

#: Check grammar (declarative, JSON-serializable):
#:
#: * ``("gt", b)`` / ``("ge", b)`` / ``("lt", b)`` / ``("le", b)`` —
#:   compare the measured value against a constant bound;
#: * ``("range", lo, hi)`` — ``lo < measured < hi``;
#: * ``("eq", v)`` — exact equality (config tables);
#: * ``("gt_key", other[, scale[, offset]])`` (and ``ge_key`` /
#:   ``lt_key`` / ``le_key``) — compare against another measured key:
#:   ``measured[key] OP measured[other] * scale + offset``.
Check = Tuple


@dataclass(frozen=True)
class Expectation:
    """One shape claim of a figure, plus the paper's reported value."""

    key: str
    check: Check
    #: Looser (or different) check for the quick profile; None reuses
    #: ``check`` unchanged.
    quick_check: Optional[Check] = None
    #: The value the paper reports for this metric (delta-table column;
    #: never asserted — absolute values differ across simulators).
    paper: Optional[float] = None
    #: Human wording of the shape claim, shown next to the verdict.
    claim: str = ""

    def active_check(self, quick: bool) -> Check:
        """The check this profile evaluates."""
        if quick and self.quick_check is not None:
            return self.quick_check
        return self.check


_OPS = {"gt": (lambda a, b: a > b, ">"),
        "ge": (lambda a, b: a >= b, ">="),
        "lt": (lambda a, b: a < b, "<"),
        "le": (lambda a, b: a <= b, "<="),
        "eq": (lambda a, b: a == b, "==")}


def describe_check(check: Check) -> str:
    """Human-readable form of one check tuple."""
    op = check[0]
    if op == "range":
        return f"{check[1]:g} < value < {check[2]:g}"
    if op.endswith("_key"):
        base, symbol = _OPS[op[:-4]]
        scale = check[2] if len(check) > 2 else 1.0
        offset = check[3] if len(check) > 3 else 0.0
        rhs = check[1]
        if scale != 1.0:
            rhs = f"{rhs}*{scale:g}"
        if offset:
            rhs = f"{rhs}{offset:+g}"
        return f"value {symbol} {rhs}"
    _, symbol = _OPS[op]
    return f"value {symbol} {check[1]:g}"


def evaluate_check(check: Check, key: str,
                   measured: Dict[str, float]) -> bool:
    """Evaluate one check tuple against the figure's measured values.

    Raises :class:`ConfigValidationError` on a malformed check or a
    reference to a missing measured key — a registry bug, not a shape
    regression, and it must not masquerade as one.
    """
    if key not in measured:
        raise ConfigValidationError(
            f"expectation references unmeasured key {key!r}")
    value = measured[key]
    op = check[0]
    if op == "range":
        return check[1] < value < check[2]
    if op.endswith("_key"):
        other = check[1]
        if other not in measured:
            raise ConfigValidationError(
                f"check for {key!r} references unmeasured key {other!r}")
        scale = check[2] if len(check) > 2 else 1.0
        offset = check[3] if len(check) > 3 else 0.0
        fn, _ = _OPS[op[:-4]]
        return fn(value, measured[other] * scale + offset)
    if op not in _OPS:
        raise ConfigValidationError(f"unknown check op {op!r} for {key!r}")
    fn, _ = _OPS[op]
    return fn(value, check[1])


# -- figure specification ----------------------------------------------------

@dataclass
class FigureData:
    """What one figure's compute() yields from the sweep artifacts."""

    #: Named measured values the expectations are evaluated against.
    metrics: Dict[str, float]
    #: Dashboard plot payload (``{"type": "bars"|"sparkline"|"heatmap",
    #: ...}``) or None for table-only figures.
    plot: Optional[Dict[str, Any]] = None


@dataclass
class FigureSpec:
    """One reproduced figure/table: spec + compute + shape claims."""

    fid: str
    title: str
    paper_claim: str
    commentary: str
    #: The sweep grid this figure reads; None for config-only tables.
    #: Figures may share a spec *object* — the runner dedupes by spec
    #: name, one store per spec, and runs every spec's points as one
    #: grid in which each distinct point executes once.
    spec: Optional[ExperimentSpec]
    compute: Callable[[SummaryMap], FigureData]
    expectations: Tuple[Expectation, ...] = ()

    def kinds_used(self) -> Sequence[str]:
        """Config kinds this figure's spec sweeps ([] for tables)."""
        return self.spec.kinds if self.spec is not None else []


# -- per-figure compute functions --------------------------------------------

def _speedups(summaries: SummaryMap, suite: Sequence[str],
              kind: str) -> Dict[str, float]:
    return {name: (summaries[(name, "baseline")].total_cycles
                   / summaries[(name, kind)].total_cycles)
            for name in suite}


def _fig1_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        fractions = []
        for name in suite:
            s = summaries[(name, "baseline")]
            fractions.append(s.raster_cycles / s.total_cycles)
        return FigureData(
            metrics={"mean_raster_fraction": arithmetic_mean(fractions),
                     "min_raster_fraction": min(fractions)},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"raster fraction": fractions},
                  "ymax": 1.0, "unit": ""})
    return compute


def _fig2_compute(benchmark: str):
    def compute(summaries: SummaryMap) -> FigureData:
        import numpy as np

        from ..stats import hot_cold_summary
        per_tile = summaries[(benchmark, "baseline")].per_tile_dram_last
        tiles_x = max(t[0] for t in per_tile) + 1
        tiles_y = max(t[1] for t in per_tile) + 1
        matrix = tile_matrix(per_tile, tiles_x, tiles_y)
        stats = hot_cold_summary(per_tile, hot_fraction=X.FIG2_HOT_FRACTION)
        hot_threshold = np.percentile(matrix[matrix > 0],
                                      X.FIG2_HOT_PERCENTILE)
        hot_mask = matrix >= hot_threshold
        neighbor_hot = hot_total = 0
        for y in range(tiles_y):
            for x in range(tiles_x):
                if not hot_mask[y, x]:
                    continue
                hot_total += 1
                for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    nx, ny = x + dx, y + dy
                    if 0 <= nx < tiles_x and 0 <= ny < tiles_y \
                            and hot_mask[ny, nx]:
                        neighbor_hot += 1
                        break
        return FigureData(
            metrics={"top10pct_tile_share_of_dram": stats["hot_share"],
                     "hot_tile_clustering":
                         neighbor_hot / max(hot_total, 1)},
            plot={"type": "heatmap",
                  "matrix": [[int(v) for v in row] for row in matrix],
                  "label": f"{benchmark} per-tile DRAM accesses"})
    return compute


def _fig7_compute(benchmark: str):
    def compute(summaries: SummaryMap) -> FigureData:
        base = rebin_series(
            summaries[(benchmark, "baseline")].last_frame_intervals,
            X.FIG7_REBIN)
        libra = rebin_series(
            summaries[(benchmark, "libra")].last_frame_intervals,
            X.FIG7_REBIN)
        mean = sum(base) / len(base) if base else 0.0
        return FigureData(
            metrics={"baseline_interval_cov":
                         coefficient_of_variation(base),
                     "libra_interval_cov":
                         coefficient_of_variation(libra),
                     "baseline_peak_over_mean":
                         (max(base) / mean) if mean else 0.0},
            plot={"type": "sparkline",
                  "series": {"baseline": [int(v) for v in base],
                             "libra": [int(v) for v in libra]},
                  "label": f"{benchmark} DRAM requests per "
                           f"{X.FIG7_REBIN * 1000}-cycle interval"})
    return compute


def _fig11_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ptr = _speedups(summaries, suite, "ptr")
        libra = _speedups(summaries, suite, "libra")
        ptr_mean = geometric_mean(list(ptr.values()))
        libra_mean = geometric_mean(list(libra.values()))
        regressions = sum(
            1 for n in suite
            if libra[n] < ptr[n] * X.FIG11_REGRESSION_TOLERANCE)
        return FigureData(
            metrics={"ptr_speedup": ptr_mean,
                     "libra_speedup": libra_mean,
                     "scheduler_gain": libra_mean / ptr_mean,
                     "libra_regressions": float(regressions)},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"PTR": [ptr[n] for n in suite],
                             "LIBRA": [libra[n] for n in suite]},
                  "baseline": 1.0, "unit": "x"})
    return compute


def _fig12_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ptr_deltas, libra_deltas = [], []
        for name in suite:
            base = summaries[(name, "baseline")].texture_latency
            ptr_deltas.append(
                1 - summaries[(name, "ptr")].texture_latency / base)
            libra_deltas.append(
                1 - summaries[(name, "libra")].texture_latency / base)
        return FigureData(
            metrics={"mean_libra_latency_decrease":
                         arithmetic_mean(libra_deltas),
                     "mean_ptr_latency_decrease":
                         arithmetic_mean(ptr_deltas),
                     "ptr_latency_regressions":
                         float(sum(1 for d in ptr_deltas if d < 0))},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"PTR": [d * 100 for d in ptr_deltas],
                             "LIBRA": [d * 100 for d in libra_deltas]},
                  "baseline": 0.0, "unit": "%"})
    return compute


def _fig13_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ptr_deltas, libra_deltas = [], []
        for name in suite:
            base = summaries[(name, "baseline")].texture_hit_ratio
            ptr = summaries[(name, "ptr")].texture_hit_ratio
            libra = summaries[(name, "libra")].texture_hit_ratio
            ptr_deltas.append((ptr - base) / base if base else 0.0)
            libra_deltas.append((libra - base) / base if base else 0.0)
        return FigureData(
            metrics={"mean_libra_hit_ratio_change":
                         arithmetic_mean(libra_deltas),
                     "mean_ptr_hit_ratio_change":
                         arithmetic_mean(ptr_deltas)},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"PTR": [d * 100 for d in ptr_deltas],
                             "LIBRA": [d * 100 for d in libra_deltas]},
                  "baseline": 0.0, "unit": "%"})
    return compute


def _fig14_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ratios = []
        for name in suite:
            ptr = summaries[(name, "ptr")].raster_dram_accesses
            libra = summaries[(name, "libra")].raster_dram_accesses
            ratios.append(libra / ptr if ptr else 1.0)
        return FigureData(
            metrics={"mean_normalized_dram": arithmetic_mean(ratios),
                     "min_normalized_dram": min(ratios),
                     "max_normalized_dram": max(ratios)},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"LIBRA / PTR": ratios},
                  "baseline": 1.0, "unit": "x"})
    return compute


def _fig15_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ptr_savings, libra_savings = [], []
        for name in suite:
            base = summaries[(name, "baseline")].energy_j
            ptr_savings.append(
                1 - summaries[(name, "ptr")].energy_j / base)
            libra_savings.append(
                1 - summaries[(name, "libra")].energy_j / base)
        return FigureData(
            metrics={"ptr_energy_saving": arithmetic_mean(ptr_savings),
                     "libra_energy_saving":
                         arithmetic_mean(libra_savings)},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"PTR": [s * 100 for s in ptr_savings],
                             "LIBRA": [s * 100 for s in libra_savings]},
                  "baseline": 0.0, "unit": "%"})
    return compute


def _fig17_compute(suite: Sequence[str]):
    def compute(summaries: SummaryMap) -> FigureData:
        ptr = _speedups(summaries, suite, "ptr")
        libra = _speedups(summaries, suite, "libra")
        ptr_mean = geometric_mean(list(ptr.values()))
        libra_mean = geometric_mean(list(libra.values()))
        worst = min(libra[n] / ptr[n] for n in suite)
        return FigureData(
            metrics={"ptr_speedup": ptr_mean,
                     "libra_speedup": libra_mean,
                     "scheduler_gain": libra_mean / ptr_mean,
                     "worst_bench_libra_vs_ptr": worst},
            plot={"type": "bars", "labels": list(suite),
                  "series": {"PTR": [ptr[n] for n in suite],
                             "LIBRA": [libra[n] for n in suite]},
                  "baseline": 1.0, "unit": "x"})
    return compute


def _table1_compute(summaries: SummaryMap) -> FigureData:
    from ..config import baseline_config, libra_config
    base, libra = baseline_config(), libra_config()
    return FigureData(metrics={
        "frequency_hz": float(base.frequency_hz),
        "tile_size": float(base.tile_size),
        "vertex_cache_bytes": float(base.vertex_cache.size_bytes),
        "tile_cache_bytes": float(base.tile_cache.size_bytes),
        "texture_cache_bytes": float(base.texture_cache.size_bytes),
        "l2_cache_bytes": float(base.l2_cache.size_bytes),
        "dram_row_hit_cycles": float(base.dram.row_hit_cycles),
        "dram_row_miss_cycles": float(base.dram.row_miss_cycles),
        "baseline_total_cores": float(base.total_cores),
        "libra_total_cores": float(libra.total_cores),
    })


def _table2_compute(summaries: SummaryMap) -> FigureData:
    from ..workloads import table2_rows
    rows = table2_rows()
    memory_count = sum(1 for r in rows if r["memory_intensive"])
    mean_mb = sum(r["texture_mb"] for r in rows) / len(rows)
    return FigureData(metrics={
        "suite_size": float(len(rows)),
        "memory_intensive_count": float(memory_count),
        "style_count": float(len({r["style"] for r in rows})),
        "mean_texture_footprint_mb": mean_mb,
    })


# -- the registry ------------------------------------------------------------

def figure_registry(quick: bool = False) -> Dict[str, FigureSpec]:
    """All reproduced figures, keyed by figure id, for one profile.

    Three shared sweep grids back the eleven figures: the full-suite
    baseline run (Figs. 1–2), the memory-intensive headline comparison
    (Figs. 7, 11–15) and the compute-intensive comparison (Fig. 17);
    Tables I–II are config-only.  The baseline grid's points recur in
    the other two (their ``baseline`` kind): the quick profile's 30
    points are 24 distinct ones, the full profile's 128 are 96.  The
    runner runs the three as one grid in which each distinct point
    executes once, and every figure reads its spec's checkpointed
    artifacts.
    """
    if quick:
        width, height, frames = QUICK_WIDTH, QUICK_HEIGHT, QUICK_FRAMES
        baseline_suite = list(QUICK_BASELINE)
        memory_suite = list(QUICK_MEMORY)
        compute_suite = list(QUICK_COMPUTE)
        suffix = "-quick"
    else:
        from ..workloads import (benchmark_names, compute_intensive_names,
                                 memory_intensive_names)
        width, height, frames = FULL_WIDTH, FULL_HEIGHT, FULL_FRAMES
        baseline_suite = benchmark_names()
        memory_suite = memory_intensive_names()
        compute_suite = compute_intensive_names()
        suffix = ""

    baseline_spec = ExperimentSpec(
        name=f"figures-baseline{suffix}", benchmarks=baseline_suite,
        kinds=["baseline"], frames=frames, width=width, height=height,
        baseline_kind="baseline")
    memory_spec = ExperimentSpec(
        name=f"figures-headline-memory{suffix}", benchmarks=memory_suite,
        kinds=["baseline", "ptr", "libra"], frames=frames, width=width,
        height=height, baseline_kind="baseline")
    compute_spec = ExperimentSpec(
        name=f"figures-headline-compute{suffix}",
        benchmarks=compute_suite, kinds=["baseline", "ptr", "libra"],
        frames=frames, width=width, height=height,
        baseline_kind="baseline")

    figures: List[FigureSpec] = [
        FigureSpec(
            fid="fig1",
            title="Figure 1 — execution-time breakdown",
            paper_claim="≈88% of GPU time is spent in the raster "
                        "process.",
            commentary="Our synthetic scenes are vertex-light compared "
                       "to commercial games; the geometry share comes "
                       "mostly from per-draw-call overhead. The "
                       "qualitative claim (raster dominates for every "
                       "benchmark) holds.",
            spec=baseline_spec,
            compute=_fig1_compute(baseline_suite),
            expectations=(
                Expectation("mean_raster_fraction",
                            ("gt", X.FIG1_MIN_MEAN_RASTER_FRACTION),
                            paper=X.FIG1_PAPER_RASTER_FRACTION,
                            claim="raster dominates on average"),
                Expectation("min_raster_fraction",
                            ("gt", X.FIG1_MIN_RASTER_FRACTION),
                            claim="raster dominates for every "
                                  "benchmark"),
            )),
        FigureSpec(
            fid="fig2",
            title="Figure 2 — per-tile DRAM heatmap",
            paper_claim="Hot tiles cluster around the character, HUD "
                        "and detailed props; background tiles are "
                        "cold.",
            commentary="The regenerated heatmap shows the same "
                       "structure: a hot cluster share far above "
                       "uniform, and hot tiles overwhelmingly adjacent "
                       "to other hot tiles.",
            spec=baseline_spec,
            compute=_fig2_compute("SuS"),
            expectations=(
                Expectation("top10pct_tile_share_of_dram",
                            ("gt", X.FIG2_MIN_HOT_SHARE),
                            claim="hottest 10% of tiles carry well "
                                  "over 10% of the traffic"),
                Expectation("hot_tile_clustering",
                            ("gt", X.FIG2_MIN_CLUSTERING),
                            claim="most hot tiles touch another hot "
                                  "tile"),
            )),
        FigureSpec(
            fid="fig7",
            title="Figure 7 — DRAM requests per 5000-cycle interval "
                  "(CCS)",
            paper_claim="Within-frame DRAM demand is strongly bursty.",
            commentary="Clear burstiness on the baseline (peak ≫ "
                       "mean); LIBRA's temperature scheduling lowers "
                       "the coefficient of variation.",
            spec=memory_spec,
            compute=_fig7_compute("CCS"),
            expectations=(
                Expectation("baseline_peak_over_mean",
                            ("gt", X.FIG7_MIN_PEAK_OVER_MEAN),
                            claim="peaks well above the interval mean"),
                Expectation("baseline_interval_cov",
                            ("gt", X.FIG7_MIN_BASELINE_COV),
                            claim="high within-frame variation on the "
                                  "baseline"),
            )),
        FigureSpec(
            fid="fig11",
            title="Figure 11 — LIBRA speedup (memory-intensive)",
            paper_claim="PTR alone +13.2%; scheduler +7.7% more; "
                        "total +20.9%.",
            commentary="Shape reproduced: PTR alone gives a solid "
                       "speedup and the adaptive scheduler adds on top "
                       "for almost every benchmark. Our scheduler "
                       "margin is smaller than the paper's — our "
                       "interval-grain DRAM model understates how "
                       "catastrophic fine-grain congestion is on real "
                       "hardware.",
            spec=memory_spec,
            compute=_fig11_compute(memory_suite),
            expectations=(
                Expectation("ptr_speedup",
                            ("gt", X.FIG11_MIN_PTR_SPEEDUP),
                            paper=X.FIG11_PAPER_PTR_SPEEDUP,
                            claim="PTR alone beats the baseline"),
                Expectation("libra_speedup",
                            ("gt_key", "ptr_speedup"),
                            paper=X.FIG11_PAPER_LIBRA_SPEEDUP,
                            claim="the scheduler adds on top of PTR"),
                Expectation("libra_regressions",
                            ("le", float(X.FIG11_MAX_REGRESSIONS)),
                            claim="LIBRA helps (or is neutral) for "
                                  "almost every benchmark"),
            )),
        FigureSpec(
            fid="fig12",
            title="Figure 12 — texture access latency",
            paper_claim="PTR alone raises latency on several apps; "
                        "LIBRA cuts it by 13.5% on average (up to "
                        "40%).",
            commentary="The first half of the claim reproduces "
                       "cleanly: PTR alone increases texture latency. "
                       "LIBRA recovers part of that increase but not "
                       "the paper's full 13.5% average — our "
                       "interval-grain congestion model understates "
                       "the latency LIBRA saves at fine grain.",
            spec=memory_spec,
            compute=_fig12_compute(memory_suite),
            expectations=(
                Expectation(
                    "ptr_latency_regressions",
                    ("ge", float(X.FIG12_MIN_PTR_LATENCY_REGRESSIONS)),
                    quick_check=("ge", 1.0),
                    claim="PTR alone raises latency on several "
                          "benchmarks"),
                Expectation("mean_libra_latency_decrease",
                            ("gt_key", "mean_ptr_latency_decrease"),
                            paper=X.FIG12_PAPER_LIBRA_LATENCY_DECREASE,
                            claim="LIBRA recovers latency versus PTR "
                                  "alone"),
            )),
        FigureSpec(
            fid="fig13",
            title="Figure 13 — texture cache hit ratio",
            paper_claim="LIBRA raises the overall texture hit ratio "
                        "(avg +10.6%).",
            commentary="LIBRA preserves the hit ratio relative to PTR. "
                       "The paper's +10.6% gain over the *baseline* "
                       "does not reproduce: in our model the "
                       "baseline's aggregated L1 is already "
                       "replication-free, so there is less for "
                       "supertiles to win back.",
            spec=memory_spec,
            compute=_fig13_compute(memory_suite),
            expectations=(
                Expectation("mean_libra_hit_ratio_change",
                            ("ge_key", "mean_ptr_hit_ratio_change",
                             1.0, -X.FIG13_PTR_TOLERANCE),
                            paper=X.FIG13_PAPER_LIBRA_HIT_GAIN,
                            claim="the supertile mechanism does not "
                                  "lose texture locality vs PTR"),
            )),
        FigureSpec(
            fid="fig14",
            title="Figure 14 — DRAM accesses, LIBRA vs PTR",
            paper_claim="No significant change in access count "
                        "(balance, not volume).",
            commentary="Reproduced: the normalized access count stays "
                       "near 1.0 for every benchmark.",
            spec=memory_spec,
            compute=_fig14_compute(memory_suite),
            expectations=(
                Expectation("mean_normalized_dram",
                            ("range",) + X.FIG14_MEAN_BAND,
                            paper=X.FIG14_PAPER_NORMALIZED_DRAM,
                            claim="mean access count stays near 1.0"),
                Expectation("min_normalized_dram",
                            ("gt", X.FIG14_PER_BENCH_BAND[0]),
                            claim="no benchmark's traffic collapses"),
                Expectation("max_normalized_dram",
                            ("lt", X.FIG14_PER_BENCH_BAND[1]),
                            claim="no benchmark's traffic inflates"),
            )),
        FigureSpec(
            fid="fig15",
            title="Figure 15 — total GPU energy",
            paper_claim="PTR saves 5.5%; LIBRA 9.2% total.",
            commentary="Reproduced in shape: both save energy (mostly "
                       "static energy from shorter execution), LIBRA "
                       "at least as much as PTR.",
            spec=memory_spec,
            compute=_fig15_compute(memory_suite),
            expectations=(
                Expectation("ptr_energy_saving", ("gt", 0.0),
                            paper=X.FIG15_PAPER_PTR_SAVING,
                            claim="PTR alone saves energy"),
                Expectation("libra_energy_saving",
                            ("ge_key", "ptr_energy_saving",
                             1.0, -X.FIG15_PTR_TOLERANCE),
                            paper=X.FIG15_PAPER_LIBRA_SAVING,
                            claim="LIBRA saves at least as much as "
                                  "PTR"),
            )),
        FigureSpec(
            fid="fig17",
            title="Figure 17 — compute-intensive apps",
            paper_claim="PTR +9.9%, scheduler only +1.7% more; never "
                        "harmful.",
            commentary="Reproduced: the adaptive controller keeps "
                       "Z-order on high-hit-ratio apps, so LIBRA == "
                       "PTR within noise.",
            spec=compute_spec,
            compute=_fig17_compute(compute_suite),
            expectations=(
                Expectation("ptr_speedup",
                            ("gt", X.FIG17_MIN_PTR_SPEEDUP),
                            paper=X.FIG17_PAPER_PTR_SPEEDUP,
                            claim="PTR helps compute-bound apps"),
                Expectation("libra_speedup",
                            ("ge_key", "ptr_speedup",
                             X.FIG17_MEAN_TOLERANCE),
                            paper=X.FIG17_PAPER_LIBRA_SPEEDUP,
                            claim="the scheduler never harms overall"),
                Expectation("scheduler_gain",
                            ("lt", X.FIG17_MAX_SCHEDULER_GAIN),
                            paper=X.FIG17_PAPER_SCHEDULER_GAIN,
                            claim="the scheduler's extra contribution "
                                  "stays small"),
                Expectation("worst_bench_libra_vs_ptr",
                            ("ge", X.FIG17_PER_BENCH_TOLERANCE),
                            claim="no single benchmark is harmed"),
            )),
        FigureSpec(
            fid="table1",
            title="Table I — simulation parameters",
            paper_claim="See paper Table I.",
            commentary="All cache/DRAM/organization parameters match "
                       "Table I exactly (checked by assertions).",
            spec=None,
            compute=_table1_compute,
            expectations=(
                Expectation("frequency_hz",
                            ("eq", float(X.TABLE1_FREQUENCY_HZ)),
                            paper=float(X.TABLE1_FREQUENCY_HZ),
                            claim="800 MHz GPU clock"),
                Expectation("tile_size",
                            ("eq", float(X.TABLE1_TILE_SIZE)),
                            paper=float(X.TABLE1_TILE_SIZE),
                            claim="32x32 px tiles"),
                Expectation("vertex_cache_bytes",
                            ("eq", float(X.TABLE1_VERTEX_CACHE_BYTES)),
                            paper=float(X.TABLE1_VERTEX_CACHE_BYTES),
                            claim="4KB vertex cache"),
                Expectation("tile_cache_bytes",
                            ("eq", float(X.TABLE1_TILE_CACHE_BYTES)),
                            paper=float(X.TABLE1_TILE_CACHE_BYTES),
                            claim="32KB tile cache"),
                Expectation("texture_cache_bytes",
                            ("eq", float(X.TABLE1_TEXTURE_CACHE_BYTES)),
                            paper=float(X.TABLE1_TEXTURE_CACHE_BYTES),
                            claim="32KB texture L1 per core"),
                Expectation("l2_cache_bytes",
                            ("eq", float(X.TABLE1_L2_CACHE_BYTES)),
                            paper=float(X.TABLE1_L2_CACHE_BYTES),
                            claim="2MB shared L2"),
                Expectation("dram_row_hit_cycles",
                            ("eq", float(X.TABLE1_DRAM_ROW_HIT_CYCLES)),
                            paper=float(X.TABLE1_DRAM_ROW_HIT_CYCLES),
                            claim="50-cycle DRAM row hit"),
                Expectation("dram_row_miss_cycles",
                            ("eq", float(X.TABLE1_DRAM_ROW_MISS_CYCLES)),
                            paper=float(X.TABLE1_DRAM_ROW_MISS_CYCLES),
                            claim="100-cycle DRAM row miss"),
                Expectation("baseline_total_cores",
                            ("eq", float(X.TABLE1_TOTAL_CORES)),
                            paper=float(X.TABLE1_TOTAL_CORES),
                            claim="equal total core count across "
                                  "variants"),
                Expectation("libra_total_cores",
                            ("eq_key", "baseline_total_cores"),
                            claim="LIBRA uses no extra cores"),
            )),
        FigureSpec(
            fid="table2",
            title="Table II — benchmark suite",
            paper_claim="32 games, 2D/2.5D/3D, >4MB average per-frame "
                        "footprint.",
            commentary="Reconstruction: 16 codes from the paper text "
                       "plus 16 synthetic additions; the 16/16 "
                       "memory/compute split is enforced by design.",
            spec=None,
            compute=_table2_compute,
            expectations=(
                Expectation("suite_size",
                            ("eq", float(X.TABLE2_SUITE_SIZE)),
                            paper=float(X.TABLE2_SUITE_SIZE),
                            claim="32 benchmarks"),
                Expectation("memory_intensive_count",
                            ("eq",
                             float(X.TABLE2_MEMORY_INTENSIVE_COUNT)),
                            paper=float(
                                X.TABLE2_MEMORY_INTENSIVE_COUNT),
                            claim="16/16 memory/compute split"),
                Expectation("style_count", ("eq", 3.0),
                            claim="2D, 2.5D and 3D styles all "
                                  "represented"),
                Expectation("mean_texture_footprint_mb",
                            ("gt", X.TABLE2_MIN_MEAN_FOOTPRINT_MB),
                            paper=X.TABLE2_MIN_MEAN_FOOTPRINT_MB,
                            claim=">4MB average texture footprint"),
            )),
    ]
    return {f.fid: f for f in figures}


def figure_ids(quick: bool = False) -> List[str]:
    """All registered figure ids, in registry order."""
    return list(figure_registry(quick))
