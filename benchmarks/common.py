"""Shared plumbing for the figure/table reproduction benchmarks.

``test_registry.py`` benches every figure and table registered in
:mod:`repro.figures.registry`; each other ``test_*.py`` file regenerates
one result that has no ``FigureSpec`` yet.  They all get their run
summaries from :func:`run`, which simulates a point through
:func:`repro.experiments.execute_point` (on the harness trace cache)
and keeps it in an artifact store under the cache directory, so the
suite is incremental: the first run simulates, later runs re-print.

Conventions:

* each bench prints an ``EXPERIMENT`` banner with the paper's claim and
  grep-friendly ``RESULT key: measured=... paper=...`` lines (shown
  with ``pytest -s``);
* ``benchmark.pedantic(..., rounds=1, iterations=1)`` wraps the run so
  pytest-benchmark records wall time without repeating multi-minute
  simulations.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Sequence

# Default the cache to the repository root so bench runs and ad-hoc
# harness runs share traces and results.
os.environ.setdefault(
    "REPRO_CACHE_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, ".repro_cache"))

from repro import harness  # noqa: E402  (after cache env setup)
from repro.experiments import ArtifactStore, SweepPoint, engine  # noqa: E402
from repro.stats import (experiment_header, format_table, geometric_mean,
                         summary_line)  # noqa: E402
from repro.workloads import (benchmark_names,
                             memory_intensive_names)  # noqa: E402

#: All 32 benchmarks / the paper's memory-intensive class.
FULL_SUITE: List[str] = benchmark_names()
MEMORY_SUITE: List[str] = memory_intensive_names()

#: Subset used by the expensive sweeps (Figures 18/19): a spread of
#: memory intensity.
SWEEP_SUITE: List[str] = ["CCS", "GrT", "SuS", "HoW", "BlB", "GDL", "Jet",
                          "PzQ"]


def run(benchmark: str, kind: str, **axes) -> harness.RunSummary:
    """One point at the harness geometry, simulated once and then stored.

    ``axes`` are sweep axes (``raster_units=3``,
    ``resize_threshold=0.05``, ...).  The summary is served from the
    bench store when present, else simulated and saved there.
    """
    point = SweepPoint(benchmark=benchmark, kind=kind,
                       axes=tuple(sorted(axes.items())),
                       frames=harness.FRAMES, width=harness.WIDTH,
                       height=harness.HEIGHT)
    store = ArtifactStore(harness.cache_dir()
                          / f"bench-g{harness.RESULT_GENERATION}")
    summary = store.load(point.point_id)
    if summary is None:
        summary = engine.execute_point(point)
        store.save(point.point_id, summary)
    return summary


def speedups(suite: Sequence[str], kind: str, baseline_kind: str = "baseline",
             **kwargs) -> Dict[str, float]:
    out = {}
    for name in suite:
        base = run(name, baseline_kind)
        other = run(name, kind, **kwargs)
        out[name] = other.speedup_over(base)
    return out


def print_speedup_table(title: str, suite: Sequence[str],
                        columns: Dict[str, Dict[str, float]]) -> None:
    headers = ["bench"] + list(columns)
    rows = []
    for name in suite:
        rows.append([name] + [f"{columns[c][name]:.3f}" for c in columns])
    rows.append(["geomean"] + [
        f"{geometric_mean(list(columns[c].values())):.3f}"
        for c in columns])
    print(format_table(headers, rows, title=title))


def banner(figure: str, claim: str) -> None:
    print(experiment_header(figure, claim))


def result(key: str, measured, paper=None) -> None:
    print(summary_line(key, measured, paper))


def pedantic(benchmark_fixture, fn: Callable, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark_fixture.pedantic(fn, args=args, kwargs=kwargs,
                                      rounds=1, iterations=1)
