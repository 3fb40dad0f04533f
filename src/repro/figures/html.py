"""Self-contained HTML dashboard for the figure pipeline.

:func:`render_dashboard` turns a
:class:`~repro.figures.runner.FiguresReport` into **one** HTML file:
inline CSS (light + dark via ``prefers-color-scheme``), inline-SVG
plots (bars, sparklines, heatmaps — native ``<title>`` tooltips per
mark), per-figure paper-vs-ours delta tables with pass/fail shape
verdicts, the backing sweeps' :class:`SpeedupMatrix` grids with their
provenance marks and ``PARTIAL`` footers, merged sweep telemetry, and
the ``repro.perf.build_report`` analysis.  No scripts, no external
assets, no new dependencies — the file can be archived as a CI
artifact and opened anywhere.

Every number shown in a plot also appears in an adjacent table, series
identity is never carried by color alone (legend + direct labels), and
status is always icon + label.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence

from .render import commit_label, format_value

#: Sequential blue ramp (steps 100→700) for heatmap magnitude.
HEAT_RAMP = ("#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
             "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
             "#184f95", "#104281", "#0d366b")

STATUS = {
    "pass": ("✓", "PASS", "good"),
    "fail": ("✗", "FAIL", "critical"),
    "partial": ("⚠", "PARTIAL", "warning"),
    "error": ("⚠", "ERROR", "warning"),
}

CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --muted: #898781; --gridline: #e1e0d9; --axisline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --muted: #898781; --gridline: #2c2c2a; --axisline: #383835;
    --border: rgba(255,255,255,0.10);
    --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1080px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 17px; margin: 0 0 2px; }
h3 { font-size: 14px; margin: 18px 0 6px; }
.sub { color: var(--text-secondary); margin: 0 0 18px; }
.sub code { font-size: 12px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 20px; }
.tile {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 16px; min-width: 120px;
}
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--text-secondary); font-size: 12px; }
.card {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
.card .claim { color: var(--text-secondary); margin: 2px 0 10px; }
.card .commentary { color: var(--text-secondary); margin: 10px 0 0; }
.badge {
  display: inline-block; border: 1.5px solid; border-radius: 999px;
  padding: 1px 10px; font-size: 12px; font-weight: 600;
  vertical-align: 2px; margin-left: 8px;
}
.badge-good { border-color: var(--good); }
.badge-good .ico { color: var(--good); }
.badge-critical { border-color: var(--critical); }
.badge-critical .ico { color: var(--critical); }
.badge-warning { border-color: var(--warning); }
.badge-warning .ico { color: var(--warning); }
table { border-collapse: collapse; margin: 8px 0; font-size: 13px; }
th, td { padding: 4px 10px; text-align: left;
  border-bottom: 1px solid var(--gridline); }
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right;
  font-variant-numeric: tabular-nums; }
tr.total td { font-weight: 600; border-top: 1.5px solid
  var(--axisline); }
.verdicts { list-style: none; padding: 0; margin: 8px 0; }
.verdicts li { margin: 2px 0; }
.verdicts .ico-pass { color: var(--good); font-weight: 700; }
.verdicts .ico-fail { color: var(--critical); font-weight: 700; }
.verdicts .detail { color: var(--text-secondary); font-size: 12px; }
.prov { color: var(--muted); font-size: 12px; margin: 8px 0 0; }
.legend { display: flex; gap: 16px; font-size: 12px;
  color: var(--text-secondary); margin: 10px 0 2px; }
.legend .sw { display: inline-block; width: 10px; height: 10px;
  border-radius: 2px; margin-right: 5px; }
.plot { margin: 4px 0 2px; overflow-x: auto; }
svg text { font: 10px system-ui, -apple-system, "Segoe UI",
  sans-serif; fill: var(--muted); }
svg .tick { font-variant-numeric: tabular-nums; }
.footer-note { color: var(--muted); font-size: 12px; }
details { margin: 10px 0; }
details summary { cursor: pointer; color: var(--text-secondary); }
details pre {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; overflow-x: auto;
  font-size: 12px; line-height: 1.45;
}
"""


def esc(text: Any) -> str:
    return _html.escape(str(text), quote=True)


def _series_var(index: int) -> str:
    """Categorical slot (fixed order, capped at 3 — never cycled)."""
    return f"var(--series-{min(index + 1, 3)})"


# -- SVG plots ---------------------------------------------------------------

def _ticks(lo: float, hi: float, count: int = 4) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def _bar_path(x: float, y0: float, y1: float, w: float,
              r: float = 4.0) -> str:
    """A bar anchored square at the baseline (y0), rounded 4px at the
    data end (y1); handles bars growing either direction."""
    r = min(r, abs(y0 - y1), w / 2)
    sign = -1.0 if y1 <= y0 else 1.0
    return (f"M{x:.1f},{y0:.1f} V{y1 + sign * r:.1f} "
            f"Q{x:.1f},{y1:.1f} {x + r:.1f},{y1:.1f} "
            f"H{x + w - r:.1f} "
            f"Q{x + w:.1f},{y1:.1f} {x + w:.1f},{y1 + sign * r:.1f} "
            f"V{y0:.1f} Z")


def svg_bars(plot: Dict[str, Any], height: int = 190) -> str:
    """Grouped bar chart: thin bars, rounded data ends, hairline grid,
    a dashed reference line at the no-change baseline."""
    labels: Sequence[str] = plot["labels"]
    series: Dict[str, Sequence[float]] = plot["series"]
    unit = plot.get("unit", "")
    baseline = plot.get("baseline")
    names = list(series)
    nseries, ngroups = len(names), len(labels)
    barw = 14 if nseries > 1 else 18
    groupw = nseries * barw + (nseries - 1) * 2
    ggap, left, top, bottom = 14, 46, 10, 26
    width = left + ngroups * (groupw + ggap) + ggap + 8
    values = [v for vs in series.values() for v in vs]
    lo = min(0.0, min(values))
    hi = max(values + ([baseline] if baseline else []))
    hi = max(hi, plot.get("ymax", hi)) * 1.05 or 1.0
    span = hi - lo

    def y(v: float) -> float:
        return top + (hi - v) / span * (height - top - bottom)

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="{width}" height="{height}" '
             f'aria-label="{esc(plot.get("label", "bar chart"))}">']
    for tick in _ticks(lo, hi):
        ty = y(tick)
        parts.append(f'<line x1="{left}" y1="{ty:.1f}" x2="{width - 8}" '
                     f'y2="{ty:.1f}" stroke="var(--gridline)" '
                     f'stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{left - 6}" '
                     f'y="{ty + 3:.1f}" text-anchor="end">'
                     f'{format_value(round(tick, 3))}</text>')
    if baseline is not None and baseline != 0:
        by = y(baseline)
        parts.append(f'<line x1="{left}" y1="{by:.1f}" '
                     f'x2="{width - 8}" y2="{by:.1f}" '
                     f'stroke="var(--axisline)" stroke-width="1" '
                     f'stroke-dasharray="4 3"/>')
    y0 = y(max(0.0, lo))
    for g, label in enumerate(labels):
        gx = left + ggap + g * (groupw + ggap)
        for s, name in enumerate(names):
            v = series[name][g]
            x = gx + s * (barw + 2)
            tip = f"{label} · {name}: {format_value(v)}{unit}"
            parts.append(
                f'<path d="{_bar_path(x, y0, y(v), barw)}" '
                f'fill="{_series_var(s)}"><title>{esc(tip)}</title>'
                f'</path>')
        parts.append(f'<text x="{gx + groupw / 2:.1f}" '
                     f'y="{height - 8}" text-anchor="middle">'
                     f'{esc(label)}</text>')
    parts.append(f'<line x1="{left}" y1="{y0:.1f}" x2="{width - 8}" '
                 f'y2="{y0:.1f}" stroke="var(--axisline)" '
                 f'stroke-width="1"/>')
    parts.append("</svg>")
    return "".join(parts)


def svg_sparkline(plot: Dict[str, Any], width: int = 640,
                  height: int = 120) -> str:
    """Overlaid 2px line series (the Fig. 7 interval traces)."""
    series: Dict[str, Sequence[float]] = plot["series"]
    left, top, bottom = 46, 8, 18
    peak = max((max(vs) for vs in series.values() if vs), default=1.0)
    peak = peak or 1.0
    longest = max((len(vs) for vs in series.values()), default=1)

    def xy(i: int, v: float) -> str:
        x = left + i / max(longest - 1, 1) * (width - left - 8)
        y = top + (1 - v / peak) * (height - top - bottom)
        return f"{x:.1f},{y:.1f}"

    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="{width}" height="{height}" '
             f'aria-label="{esc(plot.get("label", "line chart"))}">']
    for frac in (0.0, 0.5, 1.0):
        gy = top + frac * (height - top - bottom)
        parts.append(f'<line x1="{left}" y1="{gy:.1f}" '
                     f'x2="{width - 8}" y2="{gy:.1f}" '
                     f'stroke="var(--gridline)" stroke-width="1"/>')
        parts.append(f'<text class="tick" x="{left - 6}" '
                     f'y="{gy + 3:.1f}" text-anchor="end">'
                     f'{format_value(round(peak * (1 - frac)))}</text>')
    for s, (name, vs) in enumerate(series.items()):
        points = " ".join(xy(i, v) for i, v in enumerate(vs))
        tip = (f"{name}: {len(vs)} intervals, peak "
               f"{format_value(max(vs) if vs else 0)}")
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{_series_var(s)}" stroke-width="2" '
                     f'stroke-linejoin="round">'
                     f'<title>{esc(tip)}</title></polyline>')
    parts.append("</svg>")
    return "".join(parts)


def svg_heatmap(plot: Dict[str, Any]) -> str:
    """Per-tile magnitude grid on the sequential blue ramp."""
    matrix: Sequence[Sequence[float]] = plot["matrix"]
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    cell = max(7, min(22, 440 // max(cols, 1)))
    width, height = cols * cell + 2, rows * cell + 2
    peak = max((v for row in matrix for v in row), default=1) or 1
    parts = [f'<svg viewBox="0 0 {width} {height}" role="img" '
             f'width="{width}" height="{height}" '
             f'aria-label="{esc(plot.get("label", "heatmap"))}">']
    for yi, row in enumerate(matrix):
        for xi, v in enumerate(row):
            shade = HEAT_RAMP[min(len(HEAT_RAMP) - 1,
                                  int(v / peak * (len(HEAT_RAMP) - 1)
                                      + 0.5))]
            tip = f"tile ({xi},{yi}): {format_value(v)} accesses"
            parts.append(
                f'<rect x="{xi * cell + 1}" y="{yi * cell + 1}" '
                f'width="{cell - 1}" height="{cell - 1}" '
                f'fill="{shade}"><title>{esc(tip)}</title></rect>')
    parts.append("</svg>")
    return "".join(parts)


def _legend(names: Sequence[str]) -> str:
    if len(names) < 2:
        return ""
    items = "".join(
        f'<span><span class="sw" style="background:'
        f'{_series_var(i)}"></span>{esc(name)}</span>'
        for i, name in enumerate(names))
    return f'<div class="legend">{items}</div>'


def render_plot(plot: Optional[Dict[str, Any]]) -> str:
    if not plot:
        return ""
    kind = plot.get("type")
    if kind == "bars":
        svg = svg_bars(plot)
        legend = _legend(list(plot["series"]))
    elif kind == "sparkline":
        svg = svg_sparkline(plot)
        legend = _legend(list(plot["series"]))
    elif kind == "heatmap":
        svg = svg_heatmap(plot)
        legend = ""
    else:
        return ""
    label = plot.get("label")
    caption = (f'<div class="footer-note">{esc(label)}</div>'
               if label else "")
    return f'{legend}<div class="plot">{svg}</div>{caption}'


# -- HTML sections -----------------------------------------------------------

def _badge(status: str) -> str:
    ico, label, cls = STATUS.get(status, ("?", status.upper(),
                                          "warning"))
    return (f'<span class="badge badge-{cls}">'
            f'<span class="ico">{ico}</span> {label}</span>')


def _delta_table(outcome) -> str:
    if not outcome.metrics:
        return ""
    paper = {e.key: e.paper for e in outcome.expectations
             if e.paper is not None}
    rows = []
    for key, value in outcome.metrics.items():
        delta = (format_value(value - paper[key]) if key in paper
                 else "—")
        rows.append(f"<tr><td><code>{esc(key)}</code></td>"
                    f'<td class="num">{format_value(value)}</td>'
                    f'<td class="num">{format_value(paper.get(key))}'
                    f'</td><td class="num">{delta}</td></tr>')
    return ('<table><thead><tr><th>metric</th>'
            '<th class="num">measured</th><th class="num">paper</th>'
            '<th class="num">delta</th></tr></thead><tbody>'
            + "".join(rows) + "</tbody></table>")


def _verdict_list(outcome) -> str:
    if not outcome.expectations:
        return ""
    items = []
    for e in outcome.expectations:
        ico = ('<span class="ico-pass">✓</span>' if e.passed
               else '<span class="ico-fail">✗</span>')
        seeded = " (seeded regression)" if e.seeded else ""
        items.append(
            f"<li>{ico} {esc(e.claim or e.key)}{seeded} "
            f'<span class="detail">— <code>{esc(e.key)}</code> = '
            f"{format_value(e.measured)}, expected {esc(e.check)}"
            f"</span></li>")
    return f'<ul class="verdicts">{"".join(items)}</ul>'


def _provenance_line(outcome) -> str:
    if not outcome.spec_name:
        return ('<p class="prov">config-only check — no simulation '
                'needed</p>')
    p = outcome
    bits = [f"sweep <code>{esc(p.spec_name)}</code>",
            f"fingerprint <code>{esc(p.spec_fingerprint)}</code>",
            f"{p.points_total} points ({p.points_resumed} resumed, "
            f"{p.points_executed} executed"
            + (f", {p.points_degraded} degraded"
               if p.points_degraded else "")
            + (f", {p.points_failed} missing"
               if p.points_failed else "") + ")",
            f"store <code>{esc(p.store)}</code>"]
    return f'<p class="prov">{" · ".join(bits)}</p>'


def _figure_card(outcome) -> str:
    error = (f'<p class="claim"><strong>{esc(outcome.error)}</strong>'
             f"</p>" if outcome.error else "")
    return (f'<section class="card" id="{esc(outcome.fid)}">'
            f"<h2>{esc(outcome.title)}{_badge(outcome.status)}</h2>"
            f'<p class="claim"><strong>Paper:</strong> '
            f"{esc(outcome.paper_claim)}</p>"
            + error
            + render_plot(outcome.plot)
            + _delta_table(outcome)
            + _verdict_list(outcome)
            + _provenance_line(outcome)
            + f'<p class="commentary">{esc(outcome.commentary)}</p>'
            + "</section>")


def _matrix_table(name: str, matrix) -> str:
    headers = (["benchmark"] + list(matrix.axis_names)
               + [f"{k} speedup" for k in matrix.kinds])
    num_cls = ' class="num"'
    head = "".join(
        f"<th{'' if i == 0 else num_cls}>{esc(h)}</th>"
        for i, h in enumerate(headers))
    body = []
    annotated = False
    for row in matrix.rows:
        cells = [f"<td>{esc(row.benchmark)}</td>"]
        cells += [f'<td class="num">{esc(row.axes.get(a, ""))}</td>'
                  for a in matrix.axis_names]
        for k in matrix.kinds:
            mark = row.cell_mark(k)
            annotated = annotated or bool(mark)
            text = (f"{row.speedups[k]:.3f}{mark}"
                    if k in row.speedups else (mark or "—"))
            cells.append(f'<td class="num">{esc(text)}</td>')
        body.append(f"<tr>{''.join(cells)}</tr>")
    means = matrix.geomeans()
    cells = ["<td>geomean</td>"]
    cells += ["<td></td>"] * len(matrix.axis_names)
    cells += [f'<td class="num">'
              f'{format(means[k], ".3f") if k in means else "—"}</td>'
              for k in matrix.kinds]
    body.append(f'<tr class="total">{"".join(cells)}</tr>')
    footer = (f'<p class="footer-note">{esc(matrix._footer())}</p>'
              if annotated or matrix.partial else "")
    return (f"<h3>Sweep matrix: {esc(name)} (speedup over "
            f"{esc(matrix.baseline_kind)})</h3>"
            f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>{footer}")


def _telemetry_table(name: str, telemetry: Dict[str, float]) -> str:
    rows = "".join(
        f"<tr><td><code>{esc(key)}</code></td>"
        f'<td class="num">{value:,g}</td></tr>'
        for key, value in sorted(telemetry.items())
        if ".le_" not in key)
    return (f"<details><summary>Merged telemetry — {esc(name)} "
            f"(summed across all completed points)</summary>"
            f"<table><thead><tr><th>metric</th>"
            f'<th class="num">value</th></tr></thead>'
            f"<tbody>{rows}</tbody></table></details>")


def _tiles(report) -> str:
    executed = sum(len(r.completed) - len(r.resumed)
                   for r in report.sweeps.values())
    resumed = sum(len(r.resumed) for r in report.sweeps.values())
    tiles = [
        (f"{len(report.passed)}/{len(report.figures)}",
         "figures pass"),
        (f"{executed}", "points executed"),
        (f"{resumed}", "points resumed"),
        ("quick" if report.quick else "full", "profile"),
    ]
    return ('<div class="tiles">'
            + "".join(f'<div class="tile"><div class="v">{esc(v)}'
                      f'</div><div class="k">{esc(k)}</div></div>'
                      for v, k in tiles)
            + "</div>")


def render_dashboard(report, perf_markdown: Optional[str] = None) -> str:
    """The complete single-file dashboard for one pipeline run."""
    sha = commit_label(report)
    cards = "".join(_figure_card(f) for f in report.figures)
    matrices = "".join(_matrix_table(name, matrix)
                       for name, matrix in
                       sorted(report.matrices().items()))
    telemetry_parts = []
    for name, result in sorted(report.sweeps.items()):
        merged = result.merged_metrics()
        if merged is not None:
            telemetry_parts.append(
                _telemetry_table(name, merged.snapshot()))
    telemetry = "".join(telemetry_parts)
    perf = ""
    if perf_markdown:
        perf = ("<details open><summary>Telemetry analysis "
                "(repro.perf.build_report)</summary>"
                f"<pre>{esc(perf_markdown)}</pre></details>")
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>LIBRA reproduction — figures dashboard</title>
<style>{CSS}</style>
</head>
<body>
<main>
<h1>LIBRA reproduction — figures dashboard</h1>
<p class="sub">Generated by <code>repro figures</code> ·
commit <code>{esc(sha)}</code> · {esc(report.generated)} ·
store <code>{esc(report.store_root)}</code>. Shape claims are
compared, not absolute numbers (see EXPERIMENTS.md).</p>
{_tiles(report)}
{cards}
{matrices}
{telemetry}
{perf}
</main>
</body>
</html>
"""
