"""Simulated-metric drift gate over the committed ``BENCH_<n>.json`` files.

Each committed baseline stores, per case, the deterministic simulated
metrics of a simulator run next to its wall-clock samples.  Wall-clock
belongs to the repository benchmark (``python3 bench/run.py``); this
test recomputes the metrics of every simulator case and requires them
to equal the committed values exactly.  A change that moves total
cycles, raster DRAM accesses or the texture-L1 hit ratio therefore
fails tier-1 unless it records a new baseline and says why.

A case id names its inputs:

* ``kernel.<benchmark>.<kind>`` — :func:`repro.experiments.simulate_point`
  for a point with no axes at 2 frames, 256x128;
* ``suite.<benchmark>`` — :func:`repro.experiments.execute_point` for
  ``baseline`` and ``libra`` at 1 frame, 128x64, with cycles and DRAM
  accesses summed and the hit ratio averaged over the two runs.

Any other id fails: a committed case nobody recomputes is not gated.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import SweepPoint, execute_point, simulate_point

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = ("BENCH_1.json", "BENCH_2.json")

#: Committed cases that time a synthetic stream through one batched
#: memory kernel: there is no simulator run to recompute, and each
#: kernel is checked against its scalar path by its own test module.
SYNTHETIC = {
    "micro.cache_lru.batch":
        "synthetic ArrayCache stream, no simulator run; "
        "tests/test_lru_kernel.py checks the kernel against the scalar "
        "path",
    "micro.dram.interval_batch":
        "synthetic DRAM.request_batch stream, no simulator run; "
        "tests/test_dram_batch.py checks the kernel against the scalar "
        "path",
}


def _committed_cases():
    for name in BENCH_FILES:
        cases = json.loads((ROOT / name).read_text())["cases"]
        for case_id, entry in sorted(cases.items()):
            marks = ([pytest.mark.skip(reason=SYNTHETIC[case_id])]
                     if case_id in SYNTHETIC else [])
            yield pytest.param(case_id, entry["metrics"], marks=marks,
                               id=f"{name}:{case_id}")


def _metrics(cycles: int, dram_accesses: int, hit_ratio: float) -> dict:
    return {"total_cycles": cycles,
            "raster_dram_accesses": dram_accesses,
            "texture_hit_ratio": round(hit_ratio, 9)}


def _recompute(case_id: str) -> dict:
    """The simulated metrics of one committed case, computed afresh."""
    style, *names = case_id.split(".")
    if style == "kernel" and len(names) == 2:
        benchmark, kind = names
        result = simulate_point(SweepPoint(benchmark=benchmark, kind=kind,
                                           axes=(), frames=2, width=256,
                                           height=128))
        return _metrics(result.total_cycles, result.raster_dram_accesses,
                        result.mean_texture_hit_ratio)
    if style == "suite" and len(names) == 1:
        summaries = [
            execute_point(SweepPoint(benchmark=names[0], kind=kind,
                                     axes=(), frames=1, width=128,
                                     height=64))
            for kind in ("baseline", "libra")]
        return _metrics(
            sum(s.total_cycles for s in summaries),
            sum(s.raster_dram_accesses for s in summaries),
            sum(s.texture_hit_ratio for s in summaries) / len(summaries))
    pytest.fail(f"no inputs for committed BENCH case {case_id!r}")


@pytest.fixture(scope="module", autouse=True)
def cold_trace_cache(tmp_path_factory):
    """Build every trace afresh rather than trust the on-disk cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR",
                     str(tmp_path_factory.mktemp("drift_cache")))
        yield


@pytest.mark.parametrize("case_id,committed", _committed_cases())
def test_committed_metrics_reproduce(case_id, committed):
    assert _recompute(case_id) == committed
