"""Fault-injection helpers for the resilience test suite.

Small, deliberately-nasty utilities that damage cache files, interrupt
writes mid-stream, skew trace formats, and fail benchmark runs on a
schedule — so :mod:`tests.test_fault_injection` can prove every layer of
the execution stack degrades the way ``docs/robustness.md`` specifies
instead of crashing or serving corrupt data.  The run-level faults stand
in for :func:`repro.experiments.engine.execute_point`: a test patches
them onto that module, and forked sweep workers inherit the patch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Type

from repro.gpu.workload import FrameTrace, TileWorkload
from repro.workloads.params import HotspotSpec, WorkloadParams
from repro.workloads.scene import SceneBuilder
from repro.workloads.traces import TraceBuilder


# -- file-level faults -------------------------------------------------------

def truncate_file(path: Path, keep_fraction: float = 0.5) -> None:
    """Cut a file short, as a crashed writer or full disk would."""
    data = path.read_bytes()
    path.write_bytes(data[:max(int(len(data) * keep_fraction), 1)])


def bit_flip(path: Path, offset: int = -1) -> None:
    """Flip one bit of a file (default: in the payload's last byte)."""
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def skew_trace_version(path: Path, version: int = 999) -> None:
    """Rewrite a JSON-lines trace file claiming a future format version."""
    lines = []
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            record["version"] = version
            lines.append(json.dumps(record))
    path.write_text("\n".join(lines))


class ExplodesMidPickle:
    """An object whose pickling fails partway through the stream.

    Simulates a writer dying mid-write: by the time the failure hits,
    real payload bytes have already been produced.  The atomic-write
    contract requires that none of them ever become visible under the
    final cache-entry name.
    """

    def __init__(self, payload_items: int = 1000):
        self.padding = list(range(payload_items))

    def __reduce__(self):
        raise IOError("injected: writer died mid-stream")


# -- workload-level faults ---------------------------------------------------

def tiny_params(**overrides) -> WorkloadParams:
    """A minimal valid benchmark parameter set (fast to trace)."""
    defaults = dict(
        name="TST", title="Test", style="2D", seed=7,
        memory_intensive=True, roaming_sprites=3,
        hotspots=(HotspotSpec(center=(0.5, 0.5), sprites=2, layers=2),),
        hud_elements=1, num_textures=3,
        texture_size=64, detail_texture_size=64,
        scroll_speed=8.0,
    )
    defaults.update(overrides)
    return WorkloadParams(**defaults)


def tiny_builder(**overrides) -> TraceBuilder:
    """A TraceBuilder over :func:`tiny_params` at 128x64 (8 tiles)."""
    params = tiny_params(**overrides)
    return TraceBuilder(SceneBuilder(params, 128, 64), 128, 64, 32)


def valid_trace(frame_index: int = 0) -> FrameTrace:
    """A small hand-built trace that passes ``FrameTrace.validate``."""
    workloads = {
        (0, 0): TileWorkload(
            tile=(0, 0), instructions=100, fragments=10,
            texture_lines=[1, 2, 3], texture_fetches=12,
            pb_lines=[7], fb_lines=[9], num_primitives=1,
            prim_fragments=[10], prim_instructions=[100]),
    }
    return FrameTrace(frame_index=frame_index, tiles_x=2, tiles_y=2,
                      tile_size=32, workloads=workloads,
                      geometry_cycles=50, vertex_lines=[0, 1],
                      vertex_instructions=8)


# -- run-level faults --------------------------------------------------------

class ScriptedRunner:
    """An ``execute_point`` that fails on a per-benchmark script.

    ``script`` maps a benchmark code to a list of exception *types* to
    raise on successive attempts; once the list is exhausted (or for
    benchmarks not in the script) the runner returns a stub summary.
    ``calls`` logs ``(benchmark, kind)`` per call, in this process.
    """

    def __init__(self, script: dict):
        self.script = {name: list(excs) for name, excs in script.items()}
        self.calls: List[tuple] = []

    def __call__(self, point):
        benchmark, kind = point.benchmark, point.kind
        self.calls.append((benchmark, kind))
        pending: List[Type[BaseException]] = self.script.get(benchmark, [])
        if pending:
            raise pending.pop(0)(f"injected failure for {benchmark}")
        from repro.harness import RunSummary
        return RunSummary(
            benchmark=benchmark, kind=kind, frames=point.frames,
            total_cycles=1000, geometry_cycles=100, raster_cycles=900,
            fps=60.0, energy_j=0.1, energy_breakdown={},
            raster_dram_accesses=10, texture_hit_ratio=0.9,
            texture_latency=5.0, frame_cycles=[1000], frame_orders=["Z"],
            frame_supertile_sizes=[4], frame_hit_ratios=[0.9],
            frame_dram=[10], last_frame_intervals=[],
            per_tile_dram_prev={}, per_tile_dram_last={})


def sleepy_runner(seconds: float):
    """An ``execute_point`` that hangs, for exercising the timeout."""
    def run(point):
        import time
        time.sleep(seconds)
        raise AssertionError("timeout should have fired")
    return run
