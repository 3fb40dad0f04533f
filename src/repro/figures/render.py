"""Markdown rendering for the reproduction evidence.

One home for everything that turns measured results into committed
markdown, shared by the ``repro figures --format md`` pipeline and the
legacy ``scripts/make_experiments_md.py`` wrapper:

* :func:`render_experiments_md` — ``EXPERIMENTS.md`` from a
  :class:`~repro.figures.runner.FiguresReport` (the registry-backed
  figures, their delta tables and shape verdicts, the speedup matrices
  and merged telemetry of the backing sweeps, plus the bench-only
  sections the registry does not cover yet);
* :func:`parse_results` / :func:`render` — the legacy bench-log flow
  (``RESULT <key>: measured=<v> [paper=<v>]`` lines from
  ``pytest benchmarks/ -s``);
* :func:`render_sweep` — one section for a completed ``repro sweep``
  artifact store, read from its checkpoints (no re-simulation).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

RESULT_RE = re.compile(
    r"RESULT (?P<key>[\w.%+-]+): measured=(?P<measured>[-\w.%]+)"
    r"(?: paper=(?P<paper>[-\w.%]+))?")

#: (section title, paper claim, result-key prefix, commentary) for the
#: bench-log flow.  The sections whose prefix appears in
#: :data:`REGISTRY_PREFIXES` are also covered by the ``repro figures``
#: registry; the rest are asserted by ``pytest benchmarks/`` only.
SECTIONS = [
    ("Figure 1 — execution-time breakdown",
     "≈88% of GPU time is spent in the raster process.",
     "fig1.",
     "Our synthetic scenes are vertex-light compared to commercial games; "
     "the geometry share comes mostly from per-draw-call overhead. The "
     "qualitative claim (raster dominates for every benchmark) holds."),
    ("Figure 2 — per-tile DRAM heatmap",
     "Hot tiles cluster around the character, HUD and detailed props; "
     "background tiles are cold.",
     "fig2.",
     "The regenerated heatmap shows the same structure: a hot cluster "
     "share far above uniform, and hot tiles overwhelmingly adjacent to "
     "other hot tiles."),
    ("Figure 4 — doubling cores in one Raster Unit",
     "16 of 32 benchmarks gain <1.50x from 4→8 cores; some <1.10x.",
     "fig4.",
     "Reproduced directionally: every speedup is far from the ideal 2x, "
     "and the memory-bound half scales worst. Our per-tile parallelism "
     "model is milder than the paper's real games, so fewer benchmarks "
     "fall below 1.5x."),
    ("Figure 6 — memory intensiveness vs PTR speedup",
     "Time-on-memory and PTR speedup are strongly anticorrelated; 16/32 "
     "benchmarks spend ≥25% of time on memory.",
     "fig6.",
     "The anticorrelation reproduces with the same ideal-L1 methodology. "
     "Our suite's memory fractions span 0–0.4."),
    ("Figure 7 — DRAM requests per 5000-cycle interval (CCS)",
     "Within-frame DRAM demand is strongly bursty.",
     "fig7.",
     "Clear burstiness on the baseline (peak ≫ mean); LIBRA's temperature "
     "scheduling lowers the coefficient of variation."),
    ("Figure 8 — frame-to-frame coherence",
     ">80% of tiles change their DRAM accesses by <20% between frames.",
     "fig8.",
     "The procedural workloads were built to have this property and the "
     "measured CDF confirms it — the temperature predictor's premise."),
    ("Table I — simulation parameters", "See paper Table I.", "table1.",
     "All cache/DRAM/organization parameters match Table I exactly "
     "(checked by assertions)."),
    ("Table II — benchmark suite",
     "32 games, 2D/2.5D/3D, >4MB average per-frame footprint.",
     "table2.",
     "Reconstruction: 16 codes from the paper text plus 16 synthetic "
     "additions; the 16/16 memory/compute split is enforced by design "
     "and verified by the Figure 6 measurement."),
    ("Figure 11 — LIBRA speedup (memory-intensive)",
     "PTR alone +13.2%; scheduler +7.7% more; total +20.9%.",
     "fig11.",
     "Shape reproduced: PTR alone gives a solid speedup and the adaptive "
     "scheduler adds on top for almost every benchmark. Our scheduler "
     "margin is smaller than the paper's — our interval-grain DRAM model "
     "understates how catastrophic fine-grain congestion is on real "
     "hardware."),
    ("Figure 12 — texture access latency",
     "PTR alone raises latency on several apps; LIBRA cuts it by 13.5% "
     "on average (up to 40%).",
     "fig12.",
     "The first half of the claim reproduces cleanly: PTR alone "
     "increases texture latency. LIBRA recovers part of that increase "
     "(and up to 12% on individual benchmarks like GrT/SuS) but not the "
     "paper's full 13.5% average — our interval-grain congestion model "
     "understates the latency LIBRA saves at fine grain."),
    ("Figure 13 — texture cache hit ratio",
     "LIBRA raises the overall texture hit ratio (avg +10.6%).",
     "fig13.",
     "LIBRA preserves the hit ratio relative to PTR (losing less than "
     "PTR does against the 8-core baseline, whose single larger L1 "
     "naturally hits more). The paper's +10.6% gain over the *baseline* "
     "does not reproduce: in our model the baseline's aggregated L1 is "
     "already replication-free, so there is less for supertiles to win "
     "back."),
    ("Figure 14 — DRAM accesses, LIBRA vs PTR",
     "No significant change in access count (balance, not volume).",
     "fig14.",
     "Reproduced: the normalized access count stays near 1.0 for every "
     "benchmark."),
    ("Figure 15 — total GPU energy",
     "PTR saves 5.5%; LIBRA 9.2% total.",
     "fig15.",
     "Reproduced in shape: both save energy (mostly static energy from "
     "shorter execution), LIBRA at least as much as PTR."),
    ("Figure 16 — static supertiles vs dynamic",
     "Static 2/4/8/16 supertiles: +0.6/2.1/2.8/3.2% over PTR; LIBRA ~+7%.",
     "fig16.",
     "LIBRA beats every static size on average; in our model large "
     "static supertiles are roughly neutral because cross-unit L2 "
     "sharing offsets their intra-unit locality gain."),
    ("Figure 17 — compute-intensive apps",
     "PTR +9.9%, scheduler only +1.7% more; never harmful.",
     "fig17.",
     "Reproduced: the adaptive controller keeps Z-order on "
     "high-hit-ratio apps, so LIBRA == PTR within noise."),
    ("Figure 18 — scaling Raster Units",
     "2/3/4 units: +20.9/31.3/28.8% over equal-core baselines.",
     "fig18.",
     "More units help and returns diminish, matching the paper's trend."),
    ("Figure 19 — threshold sensitivity",
     "Best thresholds: 0.25% (resize), 3% (ordering); curves are flat.",
     "fig19",
     "Reproduced: all threshold settings land within a narrow band, so "
     "the mechanism is robust to its tuning — same conclusion as the "
     "paper."),
    ("Section III-E — hardware overhead",
     "510×64-bit stats buffer (≈4KB, <0.2% of L2); ranking 13761 cycles, "
     "hidden under geometry.",
     "hw.",
     "All three numbers match the paper exactly (they are arithmetic "
     "properties of the design, independent of workloads)."),
    ("Figure 9 — tile vs supertile heat (HCR)",
     "Hotspots cover clusters of neighboring tiles; supertile "
     "aggregation preserves the heat structure.",
     "fig9.",
     "Reproduced: supertile heat keeps a strong hot/median contrast and "
     "correlates tightly with tile-level heat."),
    ("Ablations (beyond the paper)",
     "—",
     "ablation.",
     "Extra studies this reproduction adds: the scheduling design space "
     "(Hilbert / reverse-frame / random / oracle-predictor) and LIBRA vs "
     "PFR-style inter-frame parallelism. Notable honest findings: the "
     "adaptive LIBRA matches or beats the perfect-predictor oracle "
     "(frame coherence costs nothing), and on this model both "
     "reverse-frame traversal (cross-frame L2 reuse) and PFR "
     "(inter-frame parallelism) are strong competitors — at the price, "
     "for PFR, of a full frame of added latency that a speedup metric "
     "does not show."),
    ("Model robustness (beyond the paper)",
     "—",
     "robust.",
     "The LIBRA >= PTR > baseline ordering survives halving/doubling the "
     "coupling interval and enabling AFBC-style FB compression."),
]

#: Result-key prefixes whose figures the ``repro figures`` registry
#: reproduces from checkpointed sweeps (mapped to their figure ids).
REGISTRY_PREFIXES = {
    "fig1.": "fig1", "fig2.": "fig2", "fig7.": "fig7",
    "fig11.": "fig11", "fig12.": "fig12", "fig13.": "fig13",
    "fig14.": "fig14", "fig15.": "fig15", "fig17.": "fig17",
    "table1.": "table1", "table2.": "table2",
}

HEADER = """# EXPERIMENTS — paper vs. measured

Generated from a benchmark-suite log
(`pytest benchmarks/ --benchmark-only -q -s | tee bench.log`, then
`python scripts/make_experiments_md.py bench.log`). The maintained
one-command flow is `repro figures --format md`, which regenerates this
file from checkpointed sweep artifacts instead of a log — see
docs/figures.md.

Absolute cycle counts are not comparable to the paper (different
simulator, synthetic workloads, reduced 960x512 resolution — see
DESIGN.md); what is compared is the *shape* of each result: orderings,
signs, splits, and rough magnitudes. Every row below is also asserted by
the corresponding bench, so `pytest benchmarks/` failing means a shape
regressed.
"""


def md_table(headers: Sequence[str],
             rows: Iterable[Sequence[str]]) -> List[str]:
    """A GitHub-markdown table as a list of lines."""
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(str(c) for c in row) + " |"
              for row in rows]
    return lines


def format_value(value) -> str:
    """Compact numeric formatting for delta tables (4 sig figs)."""
    if value is None:
        return "—"
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.4g}"
    return str(value)


# -- legacy bench-log flow ---------------------------------------------------

def parse_results(path: str) -> Dict[str, Tuple[str, Optional[str]]]:
    """``RESULT`` lines of a bench log as {key: (measured, paper)}."""
    results: Dict[str, Tuple[str, Optional[str]]] = {}
    with open(path) as handle:
        for line in handle:
            match = RESULT_RE.search(line)
            if match:
                results[match.group("key")] = (match.group("measured"),
                                               match.group("paper"))
    return results


def render(results: Dict[str, Tuple[str, Optional[str]]]) -> str:
    """EXPERIMENTS.md text from parsed bench-log results."""
    out = [HEADER]
    used = set()
    for title, claim, prefix, commentary in SECTIONS:
        rows = {k: v for k, v in results.items() if k.startswith(prefix)}
        used.update(rows)
        out.append(f"\n## {title}\n")
        out.append(f"**Paper:** {claim}\n")
        if rows:
            out += md_table(
                ("metric", "measured", "paper"),
                [(key[len(prefix):].lstrip("."), measured, paper or "—")
                 for key, (measured, paper) in sorted(rows.items())])
            out.append("")
        else:
            out.append("*(no RESULT lines found in the log for this "
                       "experiment)*\n")
        out.append(f"{commentary}\n")
    leftovers = {k: v for k, v in results.items() if k not in used}
    if leftovers:
        out.append("\n## Other recorded results\n")
        out += md_table(
            ("metric", "measured", "paper"),
            [(key, measured, paper or "—")
             for key, (measured, paper) in sorted(leftovers.items())])
        out.append("")
    return "\n".join(out)


def render_sweep(store_root: str) -> str:
    """One markdown section for a completed ``repro sweep`` store.

    Reads the manifest and the per-point checkpoints (through the
    checksum layer — corrupt artifacts are reported as missing cells,
    never rendered) and pivots them with the same aggregation ``repro
    sweep`` prints, so the committed table equals the CLI output.
    """
    from ..experiments import (ArtifactStore, ExperimentSpec,
                               PointOutcome, SweepResult, speedup_matrix)
    store = ArtifactStore(store_root)
    manifest = store.read_manifest()
    if manifest is None:
        raise SystemExit(f"{store_root}: not a sweep artifact store "
                         "(no readable manifest.json)")
    spec = ExperimentSpec.from_dict(manifest["spec"])
    points = spec.expand()
    done = store.load_completed(points)
    result = SweepResult(spec=spec, store_root=Path(store_root))
    for point in points:
        summary = done.get(point.point_id)
        if summary is None:
            result.outcomes.append(PointOutcome(
                point=point, status="skipped", error="no artifact",
                error_type="missing", provenance="skipped"))
        else:
            result.outcomes.append(PointOutcome(
                point=point, status="ok", summary=summary, resumed=True,
                provenance="resumed"))
    matrix = speedup_matrix(result)
    out = [f"\n## Sweep: {spec.name}\n",
           f"Grid: benchmarks={', '.join(spec.benchmarks)}; "
           f"kinds={', '.join(spec.kinds)}; "
           + "; ".join(f"{a}={v}" for a, v in spec.axes.items())
           + f"; frames={spec.frames} at {spec.width}x{spec.height} "
           f"({len(done)}/{len(points)} points on disk in "
           f"`{store_root}`).\n",
           matrix.to_markdown(), ""]
    out += telemetry_section(matrix.telemetry)
    return "\n".join(out)


def telemetry_section(telemetry: Optional[Dict[str, float]],
                      heading: str = "### Merged telemetry (summed "
                                     "across all completed points)",
                      ) -> List[str]:
    """Markdown lines for a merged-telemetry table ([] when absent)."""
    if not telemetry:
        return []
    lines = [f"\n{heading}\n"]
    lines += md_table(
        ("metric", "value"),
        [(f"`{name}`", f"{value:,g}")
         for name, value in sorted(telemetry.items())
         if ".le_" not in name])
    lines.append("")
    return lines


# -- registry-backed flow (repro figures --format md) ------------------------

STATUS_BADGE = {"pass": "✅ PASS", "fail": "❌ FAIL",
                "partial": "⚠️ PARTIAL", "error": "⚠️ ERROR"}


def verdict_lines(outcome) -> List[str]:
    """The shape-claim checklist of one FigureOutcome."""
    lines = []
    for exp in outcome.expectations:
        mark = "✅" if exp.passed else "❌"
        claim = exp.claim or exp.key
        detail = f"`{exp.key}` = {format_value(exp.measured)}, " \
                 f"expected {exp.check}"
        seeded = " *(seeded regression)*" if exp.seeded else ""
        lines.append(f"- {mark} {claim} ({detail}){seeded}")
    return lines


def render_experiments_md(report) -> str:
    """EXPERIMENTS.md from a :class:`~repro.figures.runner.FiguresReport`.

    Registry-backed figures render with measured-vs-paper delta tables
    and per-claim verdicts straight from the checkpointed sweeps; the
    bench-only sections (Figs. 4/6/8/9/16/18/19, hardware overhead,
    ablations, robustness) keep their claims and commentary with a
    pointer to the asserting bench, so no evidence is silently dropped.
    """
    profile = "quick profile" if report.quick else "full profile"
    sha = (report.git_sha or "unknown")[:12]
    out = [f"""# EXPERIMENTS — paper vs. measured

Generated by `repro figures --format md` ({profile}, commit `{sha}`,
{report.generated}) from checkpointed sweep artifacts in
`{report.store_root}` — one command regenerates this file and the HTML
dashboard from the same figure registry, so they cannot drift (see
docs/figures.md).

Absolute cycle counts are not comparable to the paper (different
simulator, synthetic workloads, reduced resolution — see DESIGN.md);
what is compared is the *shape* of each result: orderings, signs,
splits, and rough magnitudes. Every shape claim below is evaluated by
`repro figures` (exit 1 on any regression) and the same constants are
asserted by `pytest benchmarks/`.
"""]
    covered = {}
    for outcome in report.figures:
        covered[outcome.fid] = outcome
        out.append(f"\n## {outcome.title}\n")
        out.append(f"**Paper:** {outcome.paper_claim}\n")
        out.append(f"**Shape verdict:** "
                   f"{STATUS_BADGE.get(outcome.status, outcome.status)}"
                   f"\n")
        if outcome.error:
            out.append(f"*{outcome.error}*\n")
        if outcome.metrics:
            paper = {e.key: e.paper for e in outcome.expectations
                     if e.paper is not None}
            out += md_table(
                ("metric", "measured", "paper", "delta"),
                [(key, format_value(value),
                  format_value(paper.get(key)),
                  format_value(value - paper[key]
                               if key in paper else None))
                 for key, value in outcome.metrics.items()])
            out.append("")
        if outcome.expectations:
            out += verdict_lines(outcome)
            out.append("")
        out.append(f"{outcome.commentary}\n")

    bench_only = [(title, claim, prefix, commentary)
                  for title, claim, prefix, commentary in SECTIONS
                  if REGISTRY_PREFIXES.get(prefix) not in covered]
    if bench_only:
        out.append("\n## Asserted by the benchmark suite "
                   "(not yet in the registry)\n")
        out.append("The following results are still asserted by "
                   "`pytest benchmarks/` and rendered from its log via "
                   "`scripts/make_experiments_md.py`; migrating them "
                   "into the figure registry is tracked in ROADMAP "
                   "open items.\n")
        for title, claim, prefix, commentary in bench_only:
            out.append(f"### {title}\n")
            if claim != "—":
                out.append(f"**Paper:** {claim}\n")
            out.append(f"{commentary}\n")

    matrices = report.matrices()
    for name, matrix in sorted(matrices.items()):
        out.append(f"\n## Sweep matrix: {name}\n")
        out.append(matrix.to_markdown())
        out.append("")
        out += telemetry_section(matrix.telemetry)
    return "\n".join(out)
