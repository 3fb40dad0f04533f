"""repro — a reproduction of "LIBRA: Memory Bandwidth- and Locality-Aware
Parallel Tile Rendering" (MICRO 2024).

A from-scratch Python model of a mobile Tile-Based Rendering GPU — full
graphics pipeline, cache/DRAM hierarchy and interval-based timing — plus
LIBRA itself: parallel Raster Units with an adaptive temperature-aware
supertile scheduler.

Typical use::

    import repro

    builder = repro.make_scene_builder("CCS")
    traces = repro.TraceBuilder(builder, 960, 512, 32).build_many(8)

    baseline = repro.GPUSimulator(repro.baseline_config())
    libra_cfg = repro.libra_config()
    libra = repro.GPUSimulator(
        libra_cfg, scheduler=repro.LibraScheduler(libra_cfg.scheduler))

    speedup = libra.run(traces).speedup_over(baseline.run(traces))
"""

from .config import (CACHE_LINE_BYTES, GPU_FREQUENCY_HZ, CacheConfig,
                     DRAMConfig, GPUConfig, RasterUnitConfig,
                     SchedulerConfig, ShaderCoreConfig, baseline_config,
                     libra_config, small_config)
from .core import (LibraScheduler, StaticSupertileScheduler,
                   TemperatureScheduler, TemperatureTable, TileScheduler,
                   ZOrderScheduler)
from .energy import EnergyCounts, EnergyModel, EnergyParams, EnergyReport
from .errors import (BenchmarkTimeoutError, CacheCorruptionError,
                     CircuitOpenError, ConfigValidationError, ReproError,
                     ServiceError, SimulationError, TraceFormatError,
                     WorkerCrashError, WorkerHungError)
from .geometry import (DrawCall, GeometryPipeline, Mesh, Primitive,
                       ShaderProfile)
from .gpu import (FrameResult, FrameTrace, GPUSimulator, RunResult,
                  TileWorkload)
from .memory import Cache, DRAM, SharedMemory
from .raster import FrameBuffer, RasterPipeline, Texture, TextureSet
from .tiling import SupertileGrid, TilingEngine, morton_order
from .workloads import (SceneBuilder, TraceBuilder, TraceCache,
                        benchmark_names, compute_intensive_names,
                        get_params, make_scene_builder,
                        memory_intensive_names)
# The curated façade (must come last: it composes the layers above).
from . import api
from .api import (ComparisonReport, ExperimentSpec, JobRecord, RunSummary,
                  SpeedupMatrix, SweepClient, SweepPoint, SweepResult,
                  build_traces, compare, load_spec, run_suite, run_worker,
                  serve, simulate, speedup_matrix, sweep)

__version__ = "5.0.0"

__all__ = [
    "__version__",
    # configuration
    "GPUConfig", "CacheConfig", "DRAMConfig", "RasterUnitConfig",
    "ShaderCoreConfig", "SchedulerConfig", "baseline_config",
    "libra_config", "small_config", "CACHE_LINE_BYTES", "GPU_FREQUENCY_HZ",
    # LIBRA core
    "LibraScheduler", "TemperatureScheduler", "StaticSupertileScheduler",
    "ZOrderScheduler", "TileScheduler", "TemperatureTable",
    # simulator
    "GPUSimulator", "RunResult", "FrameResult", "FrameTrace",
    "TileWorkload",
    # substrates
    "GeometryPipeline", "Primitive", "DrawCall", "Mesh", "ShaderProfile",
    "TilingEngine", "SupertileGrid", "morton_order",
    "RasterPipeline", "FrameBuffer", "Texture", "TextureSet",
    "Cache", "DRAM", "SharedMemory",
    "EnergyModel", "EnergyParams", "EnergyCounts", "EnergyReport",
    # workloads
    "SceneBuilder", "TraceBuilder", "TraceCache", "benchmark_names",
    "memory_intensive_names", "compute_intensive_names", "get_params",
    "make_scene_builder",
    # error taxonomy
    "ReproError", "CacheCorruptionError", "TraceFormatError",
    "ConfigValidationError", "BenchmarkTimeoutError", "SimulationError",
    "WorkerCrashError", "WorkerHungError", "CircuitOpenError",
    "ServiceError",
    # the supported façade (see repro.api and docs/api.md)
    "api", "build_traces", "simulate", "compare", "sweep", "load_spec",
    "run_suite", "RunSummary", "ComparisonReport",
    "ExperimentSpec", "SweepPoint", "SweepResult", "SpeedupMatrix",
    "speedup_matrix",
    # the sweep service (see repro.service and docs/service.md)
    "serve", "run_worker", "SweepClient", "JobRecord",
]
