"""Markdown rendering for the reproduction evidence.

:func:`render_experiments_md` is the one ``EXPERIMENTS.md`` renderer
(``repro figures --format md``).  It renders a
:class:`~repro.figures.runner.FiguresReport` — the registry-backed
figures with their delta tables and shape verdicts, plus the speedup
matrices and merged telemetry of the backing sweeps — followed by the
:data:`SECTIONS` that have no ``FigureSpec`` yet.  A ``repro sweep``
store renders through
:func:`~repro.experiments.engine.sweep_result_from_store` and
:meth:`~repro.experiments.aggregate.SpeedupMatrix.to_markdown`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

#: (section title, paper claim, commentary) of each result that has no
#: ``FigureSpec`` in the registry yet: only its bench in
#: ``benchmarks/`` asserts it.
SECTIONS = [
    ("Figure 4 — doubling cores in one Raster Unit",
     "16 of 32 benchmarks gain <1.50x from 4→8 cores; some <1.10x.",
     "Reproduced directionally: every speedup is far from the ideal 2x, "
     "and the memory-bound half scales worst. Our per-tile parallelism "
     "model is milder than the paper's real games, so fewer benchmarks "
     "fall below 1.5x."),
    ("Figure 6 — memory intensiveness vs PTR speedup",
     "Time-on-memory and PTR speedup are strongly anticorrelated; 16/32 "
     "benchmarks spend ≥25% of time on memory.",
     "The anticorrelation reproduces with the same ideal-L1 methodology. "
     "Our suite's memory fractions span 0–0.4."),
    ("Figure 8 — frame-to-frame coherence",
     ">80% of tiles change their DRAM accesses by <20% between frames.",
     "The procedural workloads were built to have this property and the "
     "measured CDF confirms it — the temperature predictor's premise."),
    ("Figure 16 — static supertiles vs dynamic",
     "Static 2/4/8/16 supertiles: +0.6/2.1/2.8/3.2% over PTR; LIBRA ~+7%.",
     "LIBRA beats every static size on average; in our model large "
     "static supertiles are roughly neutral because cross-unit L2 "
     "sharing offsets their intra-unit locality gain."),
    ("Figure 18 — scaling Raster Units",
     "2/3/4 units: +20.9/31.3/28.8% over equal-core baselines.",
     "More units help and returns diminish, matching the paper's trend."),
    ("Figure 19 — threshold sensitivity",
     "Best thresholds: 0.25% (resize), 3% (ordering); curves are flat.",
     "Reproduced: all threshold settings land within a narrow band, so "
     "the mechanism is robust to its tuning — same conclusion as the "
     "paper."),
    ("Section III-E — hardware overhead",
     "510×64-bit stats buffer (≈4KB, <0.2% of L2); ranking 13761 cycles, "
     "hidden under geometry.",
     "All three numbers match the paper exactly (they are arithmetic "
     "properties of the design, independent of workloads)."),
    ("Figure 9 — tile vs supertile heat (HCR)",
     "Hotspots cover clusters of neighboring tiles; supertile "
     "aggregation preserves the heat structure.",
     "Reproduced: supertile heat keeps a strong hot/median contrast and "
     "correlates tightly with tile-level heat."),
    ("Ablations (beyond the paper)",
     "—",
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
     "The LIBRA >= PTR > baseline ordering survives halving/doubling the "
     "coupling interval and enabling AFBC-style FB compression."),
]


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
    and per-claim verdicts straight from the checkpointed sweeps; every
    :data:`SECTIONS` entry (a result with no ``FigureSpec``) keeps its
    claim and commentary with a pointer to the asserting bench, so no
    evidence is silently dropped.
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
`repro figures` (exit 1 on any regression) and, at the full profile, by
`pytest benchmarks/test_registry.py` from the same registry entries.
"""]
    for outcome in report.figures:
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

    out.append("\n## Asserted by the benchmark suite "
               "(not yet in the registry)\n")
    out.append("The following results have no `FigureSpec` yet: each "
               "is asserted only by its bench in `benchmarks/` "
               "(`pytest benchmarks/ -s` prints the measured values). "
               "Migrating them into the figure registry is tracked in "
               "ROADMAP open items.\n")
    for title, claim, commentary in SECTIONS:
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
