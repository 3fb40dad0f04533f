"""Plain-text tables and result lines printed by the benchmark harness.

Every bench in ``benchmarks/`` prints through these helpers, so the
output of ``pytest benchmarks/ -s`` reads like the paper's tables: an
``EXPERIMENT`` banner with the paper's claim, one row per benchmark,
and grep-friendly ``RESULT`` lines.  The CLI and the sweep aggregation
print their plain-text tables with :func:`format_table` too.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """A fixed-width table with an optional title line."""
    cells = [[_fmt(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def experiment_header(figure: str, paper_claim: str) -> str:
    """The standard banner every benchmark prints before its table."""
    bar = "=" * 72
    return (f"\n{bar}\n"
            f"EXPERIMENT {figure}\n"
            f"paper: {paper_claim}\n"
            f"{bar}")


def summary_line(key: str, measured, paper=None) -> str:
    """One grep-friendly 'measured vs paper' ``RESULT`` line."""
    if paper is None:
        return f"RESULT {key}: measured={_fmt(measured)}"
    return (f"RESULT {key}: measured={_fmt(measured)} "
            f"paper={_fmt(paper)}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)

