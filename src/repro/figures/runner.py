"""Execute the figure registry through the checkpointed sweep engine.

The runner is deliberately thin glue: it dedupes the registry's shared
:class:`~repro.experiments.spec.ExperimentSpec` grids and runs them
through :func:`~repro.experiments.engine.run_sweeps` as one grid in
which each distinct point executes once, however many specs list it
(so SIGKILL resume, supervision and ``--chaos`` come for free, each
spec keeps its own store, and a re-run against the same stores serves
every completed point from its checkpoint),
pivots the checkpointed summaries for the figures' compute functions,
evaluates every shape claim, and packs the verdicts into a
:class:`FiguresReport` with full provenance — the object both the HTML
dashboard and the ``EXPERIMENTS.md`` renderer consume, and the source
of the machine-readable ``figures_manifest.json``.
"""

from __future__ import annotations

import logging
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigValidationError
from ..experiments import (SpeedupMatrix, SweepPoint, SweepResult,
                           speedup_matrix)
# Importable from here for bench/bootstrap.py, which wraps it.
from ..experiments import run_sweep  # noqa: F401
from ..experiments.engine import run_sweeps
from .registry import (Expectation, FigureSpec, describe_check,
                       evaluate_check, figure_registry)

log = logging.getLogger(__name__)

#: figures_manifest.json schema version; bump on breaking layout change.
MANIFEST_SCHEMA = 1

#: Default artifact-store root for figure sweeps (sibling of the
#: ``repro sweep`` default so the two never collide).
DEFAULT_STORE_ROOT = ".repro_figures"


@dataclass
class ExpectationResult:
    """One evaluated shape claim."""

    key: str
    measured: float
    passed: bool
    check: str
    claim: str = ""
    paper: Optional[float] = None
    #: measured - paper when the paper reports a value, else None.
    delta: Optional[float] = None
    #: True when ``--seed-regression`` inverted this verdict.
    seeded: bool = False

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"key": self.key, "measured": self.measured,
                             "passed": self.passed, "check": self.check,
                             "claim": self.claim}
        if self.paper is not None:
            d["paper"] = self.paper
            d["delta"] = self.delta
        if self.seeded:
            d["seeded"] = True
        return d


@dataclass
class FigureOutcome:
    """Everything one figure produced: verdicts, metrics, provenance."""

    fid: str
    title: str
    paper_claim: str
    commentary: str
    #: ``pass`` (every shape claim holds), ``fail`` (>=1 claim broken),
    #: ``partial`` (the backing sweep has holes, claims not evaluable)
    #: or ``error`` (compute raised on a complete sweep).
    status: str
    expectations: List[ExpectationResult] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    plot: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    #: Backing sweep provenance (all empty/zero for config-only tables).
    spec_name: Optional[str] = None
    spec_fingerprint: Optional[str] = None
    store: Optional[str] = None
    points_total: int = 0
    points_resumed: int = 0
    points_executed: int = 0
    points_failed: int = 0
    points_degraded: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {
            "id": self.fid, "title": self.title, "status": self.status,
            "paper_claim": self.paper_claim,
            "metrics": dict(self.metrics),
            "expectations": [e.to_dict() for e in self.expectations],
        }
        if self.error:
            d["error"] = self.error
        if self.spec_name:
            d["sweep"] = {
                "spec": self.spec_name,
                "fingerprint": self.spec_fingerprint,
                "store": self.store,
                "points": {"total": self.points_total,
                           "resumed": self.points_resumed,
                           "executed": self.points_executed,
                           "failed": self.points_failed,
                           "degraded": self.points_degraded},
            }
        return d


@dataclass
class FiguresReport:
    """The full pipeline result: per-figure outcomes + run provenance."""

    figures: List[FigureOutcome]
    quick: bool = False
    git_sha: Optional[str] = None
    #: The working tree had uncommitted changes to tracked files, so
    #: the code that ran is not ``git_sha``'s.
    git_dirty: bool = False
    generated: str = ""
    store_root: str = ""
    #: Sweep results keyed by spec name — kept for the renderers
    #: (matrices, telemetry, Fig. 7 series); not serialized.
    sweeps: Dict[str, SweepResult] = field(default_factory=dict)

    @property
    def passed(self) -> List[FigureOutcome]:
        return [f for f in self.figures if f.status == "pass"]

    @property
    def failed(self) -> List[FigureOutcome]:
        return [f for f in self.figures if f.status != "pass"]

    @property
    def exit_code(self) -> int:
        """The CLI/CI contract: 0 all shapes hold, 1 any regression."""
        return 0 if not self.failed else 1

    def matrices(self) -> Dict[str, SpeedupMatrix]:
        """Speedup matrices for every multi-kind backing sweep."""
        out: Dict[str, SpeedupMatrix] = {}
        for name, result in self.sweeps.items():
            if len(result.spec.kinds) > 1:
                out[name] = speedup_matrix(result)
        return out

    def to_manifest(self) -> Dict[str, Any]:
        """The machine-readable ``figures_manifest.json`` payload."""
        counts = {"pass": 0, "fail": 0, "partial": 0, "error": 0}
        for f in self.figures:
            counts[f.status] = counts.get(f.status, 0) + 1
        return {
            "schema": MANIFEST_SCHEMA,
            "generated": self.generated,
            "git_sha": self.git_sha,
            "git_dirty": self.git_dirty,
            "quick": self.quick,
            "store_root": self.store_root,
            "exit_code": self.exit_code,
            "counts": counts,
            "figures": [f.to_dict() for f in self.figures],
        }


def _git(*args: str) -> Optional[str]:
    """Stdout of a git command, or None when it fails or git is absent."""
    try:
        out = subprocess.run(["git", *args], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_revision() -> Tuple[Optional[str], bool]:
    """The current commit (None outside a repo or without git) and
    whether tracked files differ from it."""
    sha = (_git("rev-parse", "HEAD") or "").strip()
    if not sha:
        return None, False
    status = _git("status", "--porcelain", "--untracked-files=no")
    return sha, bool(status and status.strip())


def _display_path(path: Path) -> str:
    """``path`` relative to the working directory when it lies under
    it, else as given."""
    try:
        return str(Path(os.path.abspath(path)).relative_to(Path.cwd()))
    except ValueError:
        return str(path)


def select_figures(registry: Dict[str, FigureSpec],
                   only: Optional[Sequence[str]]) -> List[FigureSpec]:
    """Resolve ``--only`` ids against the registry (usage errors raise)."""
    if not only:
        return list(registry.values())
    unknown = [fid for fid in only if fid not in registry]
    if unknown:
        raise ConfigValidationError(
            f"unknown figure id(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(registry)}")
    # Registry order, not --only order: renderers want stable layout.
    wanted = set(only)
    return [f for f in registry.values() if f.fid in wanted]


def _evaluate(figure: FigureSpec, metrics: Dict[str, float],
              quick: bool, seeded: bool) -> List[ExpectationResult]:
    results = []
    for exp in figure.expectations:
        check = exp.active_check(quick)
        passed = evaluate_check(check, exp.key, metrics)
        if seeded:
            passed = False
        measured = metrics[exp.key]
        results.append(ExpectationResult(
            key=exp.key, measured=measured, passed=passed,
            check=describe_check(check), claim=exp.claim,
            paper=exp.paper,
            delta=(measured - exp.paper
                   if exp.paper is not None else None),
            seeded=seeded))
    return results


def run_figures(only: Optional[Sequence[str]] = None,
                quick: bool = False,
                store_root: Optional[str] = None,
                workers: Optional[int] = None,
                timeout_s: Optional[float] = None,
                retries: Optional[int] = None,
                seed_regression: Optional[Sequence[str]] = None,
                ) -> FiguresReport:
    """Run (or resume) the registry and evaluate every shape claim.

    ``seed_regression`` names figure ids whose verdicts are inverted to
    *fail* after evaluation — a testing hook that exercises the whole
    regression path (dashboard rendering, manifest, exit code) without
    corrupting any artifact.
    """
    registry = figure_registry(quick=quick)
    figures = select_figures(registry, only)
    seeded = set(seed_regression or ())
    root = Path(store_root or DEFAULT_STORE_ROOT)

    # One store per unique spec, shared by every figure that reads it;
    # one grid over them all, each distinct point executed once.
    specs = {}
    for figure in figures:
        if figure.spec is not None and figure.spec.name not in specs:
            specs[figure.spec.name] = figure.spec
    results = run_sweeps([(spec, root / name)
                          for name, spec in specs.items()],
                         workers=workers, timeout_s=timeout_s,
                         retries=retries)
    sweeps: Dict[str, SweepResult] = dict(zip(specs, results))

    outcomes = []
    for figure in figures:
        outcomes.append(
            _evaluate_figure(figure, sweeps, quick,
                             figure.fid in seeded))
    git_sha, git_dirty = _git_revision()
    return FiguresReport(
        figures=outcomes, quick=quick, git_sha=git_sha,
        git_dirty=git_dirty,
        generated=datetime.now(timezone.utc)
        .strftime("%Y-%m-%d %H:%M UTC"),
        store_root=_display_path(root), sweeps=sweeps)


def record_perf_analysis(quick: bool = False,
                         benchmark: str = "CCS",
                         kind: str = "baseline") -> str:
    """One telemetry-recorded run fed through ``perf.build_report``.

    The sweep checkpoints keep merged telemetry *counters* but not the
    event stream the perf analyses need (DRAM interval samples, tile
    retires, FSM decisions), so the dashboard records one short run of
    the Fig. 7 benchmark at the active profile's geometry, on the
    traces the figure sweeps already cached.
    """
    from ..perf import build_report, record_point
    from .registry import (FULL_FRAMES, FULL_HEIGHT, FULL_WIDTH,
                           QUICK_FRAMES, QUICK_HEIGHT, QUICK_WIDTH)
    if quick:
        width, height, frames = QUICK_WIDTH, QUICK_HEIGHT, QUICK_FRAMES
    else:
        width, height, frames = FULL_WIDTH, FULL_HEIGHT, FULL_FRAMES
    _, events, metrics = record_point(SweepPoint(
        benchmark=benchmark, kind=kind, axes=(), frames=frames,
        width=width, height=height))
    return build_report(
        events, metrics=metrics,
        title=f"{benchmark} on {kind} ({frames} frames, "
              f"{width}x{height})")


def _evaluate_figure(figure: FigureSpec,
                     sweeps: Dict[str, SweepResult],
                     quick: bool, seeded: bool) -> FigureOutcome:
    result: Optional[SweepResult] = None
    pivot: Dict[Tuple[str, str], Any] = {}
    outcome = FigureOutcome(
        fid=figure.fid, title=figure.title, status="error",
        paper_claim=figure.paper_claim, commentary=figure.commentary)
    if figure.spec is not None:
        result = sweeps[figure.spec.name]
        provenance = result.provenance()
        outcome.spec_name = figure.spec.name
        outcome.spec_fingerprint = figure.spec.fingerprint()
        outcome.store = _display_path(result.store_root)
        outcome.points_total = len(result.outcomes)
        outcome.points_resumed = len(result.resumed)
        outcome.points_executed = (len(result.completed)
                                   - len(result.resumed))
        outcome.points_failed = (len(result.failed)
                                 + len(result.tripped)
                                 + len(result.skipped))
        outcome.points_degraded = sum(
            1 for p in provenance.values() if p == "degraded")
        pivot = {(o.point.benchmark, o.point.kind): o.summary
                 for o in result.completed}
    try:
        data = figure.compute(pivot)
        outcome.metrics = data.metrics
        outcome.plot = data.plot
        outcome.expectations = _evaluate(figure, data.metrics, quick,
                                         seeded)
        outcome.status = ("pass" if all(e.passed
                                        for e in outcome.expectations)
                          else "fail")
    except ConfigValidationError:
        raise  # registry bug (malformed check) — not a figure verdict
    except Exception as exc:  # missing points, compute errors
        if result is not None and result.partial:
            outcome.status = "partial"
            outcome.error = (f"backing sweep incomplete "
                             f"({len(result.completed)}/"
                             f"{len(result.outcomes)} points): {exc}")
        else:
            outcome.status = "error"
            outcome.error = f"{type(exc).__name__}: {exc}"
        log.warning("figures: %s not evaluable: %s", figure.fid,
                    outcome.error)
    return outcome
