"""The simulation kernel shared by the CLI, the dashboard and the profiler.

A *kernel* is the smallest thing worth timing: one simulator run over
prebuilt traces, with no cache reads, no summarization and no harness
supervision inside it.  ``benchmarks/profile_hotpath.py`` times exactly
this function, and ``tests/test_bench_drift.py`` recomputes the
committed ``BENCH_<n>.json`` kernel metrics through it.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import GPUConfig
from ..gpu import FrameTrace, GPUSimulator, RunResult


def run_kernel(kind: str, traces: List[FrameTrace],
               width: int, height: int,
               batched: bool = True,
               settings: Optional[dict] = None) -> RunResult:
    """One fresh simulator run of ``kind`` over prebuilt ``traces``.

    Builds the configuration and simulator inside the call but expects
    the traces — which are configuration-independent and disk-cached —
    to already exist, so repeated timings measure simulation, not scene
    generation.
    """
    config, scheduler = GPUConfig.build(
        kind, screen_width=width, screen_height=height,
        settings=settings or {})
    sim = GPUSimulator(config, scheduler=scheduler, name=kind,
                       batched=batched)
    return sim.run(traces)
