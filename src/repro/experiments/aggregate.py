"""Aggregation over sweep results: speedup matrices, geomeans, marginals.

A finished :class:`~repro.experiments.engine.SweepResult` is a flat list
of per-point summaries; the figures want them reshaped.  The helpers
here pivot the grid into a :class:`SpeedupMatrix` — one row per
(benchmark, axis combination), one speedup column per kind, normalized
against the spec's ``baseline_kind`` — and reduce it further into
geomeans and per-axis marginals (the Figure 18 "speedup vs number of
Raster Units" curve is exactly the ``raster_units`` marginal of a
two-axis sweep).

Provenance rides along: every cell knows whether its number came from a
clean run (``completed``/``resumed``), a recovery (``degraded`` —
marked ``†`` in tables), or is a hole (``✗`` failed, ``⊘`` quarantined
by the circuit breaker, ``—`` skipped/absent), and a matrix with any
hole renders a ``PARTIAL`` footer.  A degraded-mode sweep can therefore
never be mistaken for a complete one downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigValidationError
from ..stats import format_table, geometric_mean
from .engine import SweepResult


@dataclass
class MatrixRow:
    """One (benchmark, axis combination) with its per-kind numbers."""

    benchmark: str
    axes: Dict[str, Any]
    #: kind -> total simulated cycles (only kinds that completed).
    cycles: Dict[str, int] = field(default_factory=dict)
    #: kind -> speedup over the baseline kind at this same grid cell
    #: (empty when the baseline itself is missing).
    speedups: Dict[str, float] = field(default_factory=dict)
    #: kind -> how that cell's number was obtained (``completed``,
    #: ``resumed``, ``degraded``) or why it is missing (``failed``,
    #: ``tripped``, ``skipped``).  Kinds absent from the sweep are
    #: absent here too.
    provenance: Dict[str, str] = field(default_factory=dict)

    def cell_mark(self, kind: str) -> str:
        """Table marker for one cell ('' for a clean value)."""
        return {"degraded": "†", "failed": "✗",
                "tripped": "⊘"}.get(self.provenance.get(kind, ""), "")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of this row (the service wire format)."""
        return {"benchmark": self.benchmark, "axes": dict(self.axes),
                "cycles": dict(self.cycles),
                "speedups": dict(self.speedups),
                "provenance": dict(self.provenance)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MatrixRow":
        """Rebuild a row from :meth:`to_dict` output."""
        return cls(benchmark=data["benchmark"],
                   axes=dict(data.get("axes", {})),
                   cycles={k: int(v)
                           for k, v in data.get("cycles", {}).items()},
                   speedups={k: float(v)
                             for k, v in data.get("speedups", {}).items()},
                   provenance=dict(data.get("provenance", {})))


@dataclass
class SpeedupMatrix:
    """The pivoted sweep: rows x kinds, normalized to ``baseline_kind``."""

    baseline_kind: str
    kinds: List[str]
    axis_names: List[str]
    rows: List[MatrixRow] = field(default_factory=list)
    #: Flat snapshot of the telemetry metrics merged across every
    #: completed grid point (None when no point carried a state —
    #: sweep ran with ``point_telemetry=False`` or from pre-g4
    #: artifacts).  Counters/histograms are grid-wide sums.
    telemetry: Optional[Dict[str, float]] = None

    @property
    def partial(self) -> bool:
        """True when any cell of the grid lacks a completed value."""
        return any(p in ("failed", "tripped", "skipped")
                   for row in self.rows
                   for p in row.provenance.values())

    def _footer(self) -> str:
        """Legend appended to rendered tables of a partial matrix."""
        counts: Dict[str, int] = {}
        for row in self.rows:
            for p in row.provenance.values():
                counts[p] = counts.get(p, 0) + 1
        parts = [f"{counts[p]} {p}" for p in
                 ("degraded", "failed", "tripped", "skipped")
                 if counts.get(p)]
        prefix = "PARTIAL matrix: " if self.partial else "annotations: "
        return (prefix + ", ".join(parts)
                + "  († degraded, ✗ failed, ⊘ breaker-tripped)")

    def geomeans(self) -> Dict[str, float]:
        """Geometric-mean speedup per kind over all complete rows."""
        means: Dict[str, float] = {}
        for kind in self.kinds:
            values = [row.speedups[kind] for row in self.rows
                      if kind in row.speedups]
            if values:
                means[kind] = geometric_mean(values)
        return means

    def marginal(self, axis: str) -> Dict[Any, Dict[str, float]]:
        """Per-kind geomean speedup at each value of one axis.

        Marginalizes every other dimension (benchmarks and remaining
        axes), answering "how does the speedup move along this axis" —
        e.g. the raster-unit scaling curve of Figure 18.
        """
        if axis not in self.axis_names:
            raise ConfigValidationError(
                f"unknown axis {axis!r}; swept axes: {self.axis_names}")
        out: Dict[Any, Dict[str, float]] = {}
        values = sorted({row.axes[axis] for row in self.rows},
                        key=lambda v: (str(type(v)), v))
        for value in values:
            rows = [r for r in self.rows if r.axes[axis] == value]
            out[value] = {}
            for kind in self.kinds:
                samples = [r.speedups[kind] for r in rows
                           if kind in r.speedups]
                if samples:
                    out[value][kind] = geometric_mean(samples)
        return out

    def format(self) -> str:
        """Fixed-width table: one row per grid cell plus a geomean row.

        Degraded cells carry a ``†``; holes show why (``✗`` failed,
        ``⊘`` breaker-tripped, ``—`` skipped/absent); any annotation
        adds a legend footer, and a matrix with holes says ``PARTIAL``
        in it.
        """
        headers = (["benchmark"] + list(self.axis_names)
                   + [f"{k} cycles" for k in self.kinds]
                   + [f"{k} speedup" for k in self.kinds])
        table: List[List[Any]] = []
        annotated = False
        for row in self.rows:
            line: List[Any] = [row.benchmark]
            line += [row.axes.get(a, "") for a in self.axis_names]
            for k in self.kinds:
                mark = row.cell_mark(k)
                annotated = annotated or bool(mark)
                line.append(f"{row.cycles[k]:,}{mark}"
                            if k in row.cycles else (mark or "—"))
            line += [f"{row.speedups[k]:.3f}{row.cell_mark(k)}"
                     if k in row.speedups
                     else (row.cell_mark(k) or "—")
                     for k in self.kinds]
            table.append(line)
        means = self.geomeans()
        table.append(["geomean"] + [""] * len(self.axis_names)
                     + [""] * len(self.kinds)
                     + [f"{means[k]:.3f}" if k in means else "—"
                        for k in self.kinds])
        rendered = format_table(headers, table,
                                title=f"speedup over {self.baseline_kind}")
        if annotated or self.partial:
            rendered += "\n" + self._footer()
        return rendered

    def format_marginals(self) -> str:
        """One compact table per swept axis (empty string when axis-free)."""
        blocks = []
        for axis in self.axis_names:
            headers = [axis] + [f"{k} speedup" for k in self.kinds]
            rows = []
            for value, by_kind in self.marginal(axis).items():
                rows.append([value] + [f"{by_kind[k]:.3f}"
                                       if k in by_kind else "—"
                                       for k in self.kinds])
            blocks.append(format_table(
                headers, rows, title=f"marginal over {axis} "
                f"(geomean across everything else)"))
        return "\n\n".join(blocks)

    def format_telemetry(self) -> str:
        """Grid-wide telemetry counter table ('' when none collected).

        Histogram bucket expansions (``.le_`` entries) are elided —
        they are for exporters, not for reading.
        """
        if not self.telemetry:
            return ""
        rows = [[name, f"{value:,.3f}".rstrip("0").rstrip(".")]
                for name, value in sorted(self.telemetry.items())
                if ".le_" not in name]
        return format_table(("metric", "value"), rows,
                            title="telemetry (merged across all "
                            "completed points)")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the whole matrix.

        This is what ``GET /v1/jobs/<id>/result`` serves and what
        :meth:`repro.service.SweepClient.result` reconstructs from;
        the schema is pinned by ``docs/service.md``.  Round-trips
        through :meth:`from_dict` preserve :meth:`to_markdown` output
        bit for bit.
        """
        return {"baseline_kind": self.baseline_kind,
                "kinds": list(self.kinds),
                "axis_names": list(self.axis_names),
                "rows": [row.to_dict() for row in self.rows],
                "telemetry": dict(self.telemetry)
                if self.telemetry is not None else None}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SpeedupMatrix":
        """Rebuild a matrix from :meth:`to_dict` output."""
        telemetry = data.get("telemetry")
        return cls(baseline_kind=data["baseline_kind"],
                   kinds=list(data.get("kinds", [])),
                   axis_names=list(data.get("axis_names", [])),
                   rows=[MatrixRow.from_dict(r)
                         for r in data.get("rows", [])],
                   telemetry=dict(telemetry)
                   if telemetry is not None else None)

    def to_markdown(self) -> str:
        """GitHub-flavored markdown table (the EXPERIMENTS.md pathway).

        Carries the same provenance marks and PARTIAL footer as
        :meth:`format`, so published tables disclose degraded cells.
        """
        headers = (["benchmark"] + list(self.axis_names)
                   + [f"{k} speedup" for k in self.kinds])
        lines = ["| " + " | ".join(headers) + " |",
                 "|" + "---|" * len(headers)]
        annotated = False
        for row in self.rows:
            cells = [row.benchmark]
            cells += [str(row.axes.get(a, "")) for a in self.axis_names]
            for k in self.kinds:
                mark = row.cell_mark(k)
                annotated = annotated or bool(mark)
                cells.append(f"{row.speedups[k]:.3f}{mark}"
                             if k in row.speedups else (mark or "—"))
            lines.append("| " + " | ".join(cells) + " |")
        means = self.geomeans()
        cells = ["**geomean**"] + [""] * len(self.axis_names)
        cells += [f"**{means[k]:.3f}**" if k in means else "—"
                  for k in self.kinds]
        lines.append("| " + " | ".join(cells) + " |")
        if annotated or self.partial:
            lines.append("")
            lines.append(self._footer())
        return "\n".join(lines)


def speedup_matrix(result: SweepResult,
                   baseline_kind: Optional[str] = None) -> SpeedupMatrix:
    """Pivot a sweep result into a :class:`SpeedupMatrix`.

    Rows keep the spec's expansion order.  A cell whose baseline point
    failed gets cycles but no speedups; a failed non-baseline point is
    simply absent from its row.
    """
    spec = result.spec
    baseline = baseline_kind or spec.baseline_kind
    if baseline not in spec.kinds:
        raise ConfigValidationError(
            f"baseline kind {baseline!r} not among swept kinds "
            f"{spec.kinds}")
    cells: Dict[Tuple[str, Tuple], MatrixRow] = {}
    order: List[Tuple[str, Tuple]] = []
    for outcome in result.outcomes:
        point = outcome.point
        key = (point.benchmark, point.axes)
        if key not in cells:
            cells[key] = MatrixRow(benchmark=point.benchmark,
                                   axes=point.axis_values)
            order.append(key)
        if outcome.ok:
            cells[key].cycles[point.kind] = outcome.summary.total_cycles
        cells[key].provenance[point.kind] = outcome.provenance
    for key in order:
        row = cells[key]
        base = row.cycles.get(baseline)
        if not base:
            continue
        for kind, cycles in row.cycles.items():
            if cycles:
                row.speedups[kind] = base / cycles
    merged = result.merged_metrics()
    return SpeedupMatrix(baseline_kind=baseline, kinds=list(spec.kinds),
                         axis_names=list(spec.axes),
                         rows=[cells[k] for k in order],
                         telemetry=merged.snapshot() if merged else None)
