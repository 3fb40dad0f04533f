"""Performance analysis: the telemetry-recorded run and its report.

* :func:`record_point` — one simulation of a sweep point through
  :func:`repro.experiments.simulate_point` with the telemetry hub on:
  what the CLI's ``run --telemetry``, ``trace`` and ``report`` commands
  and the figures dashboard's perf analysis record.
* :func:`build_report` — ``repro report``: post-processes a telemetry
  event stream into a markdown analysis report (DRAM bandwidth
  burstiness, per-RU load balance, FSM decision timeline, cache
  hit-ratio trends) with threshold-based anomaly flags.

Wall-clock timing lives in the repository benchmark (``python3
bench/run.py``, see ``bench/README.md``); the simulated metrics of the
committed ``BENCH_<n>.json`` baselines are recomputed by the tier-1
test ``tests/test_bench_drift.py``.
"""

from .report import build_report, record_point

__all__ = ["build_report", "record_point"]
