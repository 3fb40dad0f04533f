"""Paper-reproduction figure pipeline (``repro figures``).

One command maps every reproduced LIBRA figure/table to a committed
:class:`~repro.experiments.spec.ExperimentSpec`, executes the shared
grids through the checkpointed sweep engine (resume, supervision and
chaos-mode hardening come for free), evaluates each figure's *shape
claims* against the constants in :mod:`repro.figures.expectations`,
and renders the evidence three ways from the same
:class:`~repro.figures.runner.FiguresReport`:

* ``figures_manifest.json`` — machine-readable per-figure
  pass/fail/delta with full provenance (git SHA, spec fingerprints,
  resumed/degraded point counts) — the CI gate;
* a **single self-contained HTML dashboard** (inline CSS + SVG, no
  dependencies) — delta tables, verdicts, plots, speedup matrices,
  merged telemetry, perf analyses;
* **EXPERIMENTS.md** — the committed markdown fallback, so the file
  and the dashboard can never drift.

See ``docs/figures.md`` for the registry format and how to add a
figure.
"""

from .registry import (Expectation, FigureData, FigureSpec,
                       describe_check, evaluate_check, figure_ids,
                       figure_registry)
from .runner import (ExpectationResult, FigureOutcome, FiguresReport,
                     record_perf_analysis, run_figures, select_figures)
from .render import md_table, render_experiments_md
from .html import render_dashboard

__all__ = [
    "Expectation",
    "FigureData",
    "FigureSpec",
    "describe_check",
    "evaluate_check",
    "figure_ids",
    "figure_registry",
    "ExpectationResult",
    "FigureOutcome",
    "FiguresReport",
    "record_perf_analysis",
    "run_figures",
    "select_figures",
    "md_table",
    "render_experiments_md",
    "render_dashboard",
]
