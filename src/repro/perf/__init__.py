"""Performance analysis: the shared timing kernel and the telemetry report.

* :mod:`repro.perf.kernels` — :func:`run_kernel`, one fresh simulator
  run over prebuilt traces: what the CLI's ``run``/``trace``/``report``/
  ``heatmap`` commands, the figures dashboard's perf analysis and
  ``benchmarks/profile_hotpath.py`` all simulate through.
* :mod:`repro.perf.report` — ``repro report``: post-processes a
  telemetry event stream into a markdown analysis report (DRAM
  bandwidth burstiness, per-RU load balance, FSM decision timeline,
  cache hit-ratio trends) with threshold-based anomaly flags.

Wall-clock timing lives in the repository benchmark (``python3
bench/run.py``, see ``bench/README.md``); the simulated metrics of the
committed ``BENCH_<n>.json`` baselines are recomputed by the tier-1
test ``tests/test_bench_drift.py``.
"""

from .kernels import run_kernel
from .report import build_report

__all__ = ["run_kernel", "build_report"]
