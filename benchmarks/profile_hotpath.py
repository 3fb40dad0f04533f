"""Profile mode for the simulator hot path.

Times the batched hot path against the scalar golden path on one
benchmark and prints a cProfile breakdown of where the batched run
spends its time — the tool used to find (and keep finding) the next
bottleneck.  See ``docs/performance.md`` for the methodology.  Both
paths build the configuration and simulator that
:func:`repro.experiments.simulate_point` builds for a point with no
axes, over traces loaded before the clock starts; the scalar one
passes ``batched=False``.  This is a profiler, not the benchmark: the
repository's wall-clock numbers come from ``python3 bench/run.py``
(see ``bench/README.md``).

``--telemetry-overhead`` switches to a different measurement: the same
run with the telemetry hub enabled vs disabled, plus an estimate of what
the disabled-mode ``if HUB.enabled:`` guards cost.  Exits non-zero when
the estimated disabled-mode overhead exceeds the budget (default 2%) —
CI runs this as the telemetry-overhead gate.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py            # CCS, 4 frames
    PYTHONPATH=src python benchmarks/profile_hotpath.py --benchmark SuS \
        --frames 8 --top 25 --skip-scalar
    PYTHONPATH=src python benchmarks/profile_hotpath.py \
        --telemetry-overhead --max-overhead-pct 2.0
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
import common  # noqa: F401,E402  (sets REPRO_CACHE_DIR)

from repro import GPUConfig, GPUSimulator, harness  # noqa: E402


def _run(kind: str, traces, batched: bool):
    config, scheduler = GPUConfig.build(kind, screen_width=harness.WIDTH,
                                        screen_height=harness.HEIGHT)
    return GPUSimulator(config, scheduler=scheduler, name=kind,
                        batched=batched).run(traces)


def _measure_telemetry_overhead(args) -> int:
    """Measure enabled-vs-disabled telemetry cost; gate the disabled side.

    Two numbers:

    * **enabled overhead** — wall-clock delta of a run with a recording
      sink attached vs the plain run.  Informational: paying for
      telemetry you asked for is fine.
    * **estimated disabled overhead** — what the dormant
      ``if HUB.enabled:`` guards cost when nobody asked for telemetry.
      The guard count is not directly observable, so it is bounded from
      the enabled run's event count times a conservative factor (every
      emit site evaluates its guard at least once per event; metric
      updates and not-taken guards are covered by the factor), priced at
      a ``timeit``-measured per-check cost.  This is the number the
      ``--max-overhead-pct`` gate (default 2%) applies to.
    """
    import timeit

    from repro.telemetry import HUB, RecordingSink, telemetry_session

    traces = harness.get_traces(args.benchmark, frames=args.frames)
    print(f"telemetry overhead: {args.benchmark}/{args.kind}, "
          f"{args.frames} frames, best of {args.repeat}")
    _run(args.kind, traces, batched=True)  # warm-up (caches, imports)

    disabled_s = min(
        _timed(lambda: _run(args.kind, traces, batched=True))
        for _ in range(args.repeat))

    sink = RecordingSink()
    enabled_times = []
    with telemetry_session(sink):
        for _ in range(args.repeat):
            sink.clear()
            HUB.metrics.reset()
            enabled_times.append(
                _timed(lambda: _run(args.kind, traces, batched=True)))
    enabled_s = min(enabled_times)
    events = len(sink.events)

    checks = 1_000_000
    per_check_s = timeit.timeit("if h.enabled: pass",
                                globals={"h": HUB},
                                number=checks) / checks
    # Bound the number of dormant guard evaluations per run: every event
    # of the enabled run evaluates its guard, and sites whose guard was
    # not taken (per-tile metric updates, frame snapshots) add a few
    # more — 3x is comfortably above the instrumentation density.
    guard_count = events * 3
    disabled_overhead_s = per_check_s * guard_count
    disabled_pct = 100.0 * disabled_overhead_s / disabled_s
    enabled_pct = 100.0 * (enabled_s - disabled_s) / disabled_s

    print(f"disabled:          {disabled_s:8.3f}s")
    print(f"enabled:           {enabled_s:8.3f}s  ({enabled_pct:+.1f}%, "
          f"{events:,} events)")
    print(f"guard check:       {per_check_s * 1e9:8.1f}ns  "
          f"(x{guard_count:,} guards = {disabled_overhead_s * 1e3:.3f}ms)")
    print(f"disabled overhead: {disabled_pct:8.3f}%  "
          f"(budget {args.max_overhead_pct:.1f}%)")
    if disabled_pct > args.max_overhead_pct:
        print(f"ERROR: disabled-mode telemetry overhead {disabled_pct:.3f}% "
              f"exceeds {args.max_overhead_pct:.1f}% budget",
              file=sys.stderr)
        return 1
    print("overhead gate OK")
    return 0


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="profile the simulator's memory hot path")
    parser.add_argument("--benchmark", default="CCS")
    parser.add_argument("--kind", default="libra")
    parser.add_argument("--frames", type=int, default=4)
    parser.add_argument("--top", type=int, default=20,
                        help="profile rows to print")
    parser.add_argument("--skip-scalar", action="store_true",
                        help="skip the scalar reference timing")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"))
    parser.add_argument("--telemetry-overhead", action="store_true",
                        help="measure telemetry enabled-vs-disabled cost "
                             "and gate the disabled-mode overhead")
    parser.add_argument("--max-overhead-pct", type=float, default=2.0,
                        help="fail --telemetry-overhead above this "
                             "disabled-mode overhead percentage")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions for --telemetry-overhead")
    args = parser.parse_args(argv)

    if args.telemetry_overhead:
        return _measure_telemetry_overhead(args)

    traces = harness.get_traces(args.benchmark, frames=args.frames)
    print(f"{args.benchmark}/{args.kind}, {args.frames} frames")

    start = time.perf_counter()
    batched = _run(args.kind, traces, batched=True)
    batched_s = time.perf_counter() - start
    print(f"batched: {batched_s:8.2f}s   "
          f"({batched.total_cycles:,} simulated cycles)")

    if not args.skip_scalar:
        start = time.perf_counter()
        scalar = _run(args.kind, traces, batched=False)
        scalar_s = time.perf_counter() - start
        print(f"scalar:  {scalar_s:8.2f}s   "
              f"({scalar.total_cycles:,} simulated cycles)")
        if scalar.total_cycles != batched.total_cycles:
            print("ERROR: batched/scalar cycle mismatch — parity broken",
                  file=sys.stderr)
            return 1
        print(f"speedup: {scalar_s / batched_s:8.2f}x  (parity OK)")

    print(f"\ncProfile of the batched run (top {args.top} by "
          f"{args.sort}):")
    profiler = cProfile.Profile()
    profiler.enable()
    _run(args.kind, traces, batched=True)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
