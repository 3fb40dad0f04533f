"""Figure 6: memory intensiveness and its anticorrelation with PTR speedup.

(a) Fraction of execution time spent on memory accesses — measured, as in
    the paper, by simulating with the real memory system and again with an
    ideal one (every access hits L1) and differencing.
(b) The speedup of two Raster Units over one, versus that fraction: the
    more memory-bound an application, the less PTR alone helps.

Paper: "these two metrics are strongly correlated"; benchmarks with >= 25%
of time on memory are classified memory-intensive (16 of the 32).
"""

from common import FULL_SUITE, banner, pedantic, result, run

from repro.stats import format_table
from repro.workloads import get_params


def memory_time_fraction(benchmark: str, kind: str = "ptr") -> float:
    """Fraction of execution time spent on memory (Figure 6a method).

    Simulates with the real memory system and again with an ideal one
    (the ``ideal_memory`` setting: every access hits the L1); the
    difference is memory time.
    """
    real = run(benchmark, kind)
    ideal = run(benchmark, kind, ideal_memory=True)
    if real.total_cycles == 0:
        return 0.0
    return max(1.0 - ideal.total_cycles / real.total_cycles, 0.0)


def collect():
    rows = []
    for name in FULL_SUITE:
        fraction = memory_time_fraction(name)
        base = run(name, "baseline")
        ptr = run(name, "ptr")
        rows.append((name, fraction, ptr.speedup_over(base)))
    return rows


def _pearson(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs) ** 0.5
    vy = sum((y - my) ** 2 for y in ys) ** 0.5
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy)


def test_fig06_memory_fraction_vs_speedup(benchmark):
    rows = pedantic(benchmark, collect)
    banner("Fig. 6 — memory time breakdown & correlation with PTR speedup",
           "memory-bound apps (>=25% time on memory) gain least from PTR")
    table = [[name, f"{frac * 100:.1f}%", f"{speedup:.3f}",
              "memory" if get_params(name).memory_intensive else "compute"]
             for name, frac, speedup in sorted(rows, key=lambda r: -r[1])]
    print(format_table(("bench", "time on memory", "PTR speedup",
                        "expected class"), table))

    fractions = [r[1] for r in rows]
    speedups = [r[2] for r in rows]
    correlation = _pearson(fractions, speedups)
    result("fig6.pearson_memfrac_vs_speedup", correlation)
    classified_memory = sum(1 for f in fractions if f >= 0.25)
    result("fig6.benchmarks_over_25pct_memory", classified_memory,
           paper=16)

    # Shape: anticorrelation between memory intensity and PTR speedup.
    assert correlation < -0.3
    # A substantial part of the suite has significant memory activity.
    assert classified_memory >= 6
    # The designed memory-intensive half really is more memory-bound.
    memory_avg = sum(f for (n, f, s) in rows
                     if get_params(n).memory_intensive) / 16
    compute_avg = sum(f for (n, f, s) in rows
                      if not get_params(n).memory_intensive) / 16
    assert memory_avg > 2 * compute_avg
