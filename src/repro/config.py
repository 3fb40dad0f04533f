"""Simulation configuration (the paper's Table I).

Every knob of the modeled GPU lives here as a frozen-by-convention dataclass
tree so experiments can derive variants with :func:`dataclasses.replace`.
The defaults reproduce Table I of the paper: an 800 MHz mobile TBR GPU
resembling an ARM Valhall part, rendering Full HD frames with 32x32-pixel
tiles, backed by an LPDDR4-like main memory.

Two presets are provided:

* :func:`baseline_config` — one Raster Unit with eight shader cores (the
  paper's baseline GPU).
* :func:`libra_config` — two Raster Units with four cores each (the LIBRA
  hardware organization; the scheduler itself is configured separately on
  :class:`repro.gpu.simulator.GPUSimulator`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from .errors import ConfigValidationError

#: GPU core clock in Hz (Table I: 800 MHz, 1 V, 22 nm).
GPU_FREQUENCY_HZ = 800_000_000

#: Bytes per cache line everywhere in the hierarchy (Table I).
CACHE_LINE_BYTES = 64


@dataclass
class CacheConfig:
    """Geometry of one set-associative cache (sizes in bytes)."""

    size_bytes: int
    ways: int
    line_bytes: int = CACHE_LINE_BYTES
    latency_cycles: int = 1

    @property
    def num_lines(self) -> int:
        """Cache lines in the cache."""
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        """Sets in the cache."""
        return self.num_lines // self.ways

    def validate(self) -> None:
        """Raise ValueError on an inconsistent configuration."""
        if self.size_bytes <= 0 or self.ways <= 0 or self.line_bytes <= 0:
            raise ConfigValidationError(
                f"cache size, ways and line size must be positive, got "
                f"{self.size_bytes}, {self.ways} and {self.line_bytes}")
        if self.size_bytes % self.line_bytes:
            raise ConfigValidationError("cache size must be a multiple of the line size")
        if self.num_lines % self.ways:
            raise ConfigValidationError("cache lines must divide evenly into ways")
        if self.num_sets & (self.num_sets - 1):
            raise ConfigValidationError("number of sets must be a power of two")


@dataclass
class DRAMConfig:
    """LPDDR4-like main memory model parameters (Table I).

    ``row_hit_cycles`` / ``row_miss_cycles`` bound the unloaded access
    latency to the paper's 50-100 GPU-cycle range.  ``requests_per_cycle``
    is the sustainable service bandwidth in cache lines per GPU cycle; the
    effective latency grows with a queueing factor as utilization approaches
    one (Section III of the paper: "the response time of memory increases
    asymptotically as the utilization factor approaches 100%").
    """

    size_bytes: int = 8 * 1024 ** 3
    num_banks: int = 8
    row_bytes: int = 2048
    row_hit_cycles: int = 50
    row_miss_cycles: int = 100
    requests_per_cycle: float = 0.08
    max_queue_factor: float = 16.0

    def validate(self) -> None:
        """Raise ValueError on an inconsistent configuration."""
        if self.num_banks & (self.num_banks - 1):
            raise ConfigValidationError("number of DRAM banks must be a power of two")
        if self.row_bytes % CACHE_LINE_BYTES:
            raise ConfigValidationError("DRAM row must hold an integer number of lines")
        if not 0 < self.requests_per_cycle:
            raise ConfigValidationError("DRAM bandwidth must be positive")


@dataclass
class ShaderCoreConfig:
    """Throughput model of one shader core.

    The functional work of a fragment shader is abstracted as a cost
    (instructions and texture fetches); a core retires ``ipc`` instructions
    per cycle across its warps, and can keep ``mshrs`` outstanding misses in
    flight, which bounds how much DRAM latency multithreading can hide.
    """

    ipc: float = 1.0
    warps: int = 16
    mshrs: int = 3
    #: Fragments a primitive must offer before another core is engaged;
    #: models the limited per-tile parallelism that makes simply adding
    #: cores ineffective (the paper's Figure 4 motivation).
    min_fragments_per_core: int = 40


@dataclass
class RasterUnitConfig:
    """One Raster Unit: private rasterizer front-end plus shader cores."""

    num_cores: int = 4
    raster_rate_quads_per_cycle: float = 2.0
    input_queue_entries: int = 64
    #: Fixed cost to set up a tile (bind buffers, clear Z/Color), cycles.
    tile_setup_cycles: int = 32
    #: Fixed (non-overlapped) cost of the Color Buffer flush, cycles.
    tile_flush_cycles: int = 32
    #: Serial front-end cost per primitive (fetch, raster setup, Early-Z
    #: bookkeeping) — tiles full of tiny triangles become setup-bound.
    primitive_setup_cycles: float = 8.0


@dataclass
class SchedulerConfig:
    """LIBRA scheduler thresholds (Sections III-D and V-E).

    * ``hit_ratio_threshold`` — if the texture-L1 hit ratio of the previous
      frame exceeds this, memory congestion is unlikely and Z-order is used.
    * ``order_switch_threshold`` — relative Raster-Pipeline cycle change
      between consecutive frames that counts as a "significant performance
      variation" and triggers switching the traversal order (paper: 3%).
    * ``supertile_resize_threshold`` — relative performance change that
      counts as improvement/degradation for the supertile resize policy
      (paper: 0.25%).
    * ``supertile_sizes`` — allowed square supertile edge lengths in tiles.
    """

    hit_ratio_threshold: float = 0.80
    order_switch_threshold: float = 0.03
    supertile_resize_threshold: float = 0.0025
    supertile_sizes: Tuple[int, ...] = (2, 4, 8, 16)
    initial_supertile_size: int = 4


@dataclass
class GPUConfig:
    """Top-level simulated-GPU configuration (Table I defaults)."""

    screen_width: int = 1920
    screen_height: int = 1080
    tile_size: int = 32
    frequency_hz: int = GPU_FREQUENCY_HZ
    num_raster_units: int = 1
    raster_unit: RasterUnitConfig = field(
        default_factory=lambda: RasterUnitConfig(num_cores=8)
    )
    shader_core: ShaderCoreConfig = field(default_factory=ShaderCoreConfig)
    vertex_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(4 * 1024, 2, latency_cycles=1)
    )
    tile_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, latency_cycles=2)
    )
    texture_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 4, latency_cycles=2)
    )
    l2_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, latency_cycles=18)
    )
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    interval_cycles: int = 1000
    #: AFBC-style frame-buffer compression: None disables it; a value in
    #: (0, 1] is the fraction of flush lines actually written (extension
    #: feature, off by default to match the paper's machine).
    fb_compression_ratio: Optional[float] = None

    @property
    def tiles_x(self) -> int:
        """Tile columns covering the screen."""
        return -(-self.screen_width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Tile rows covering the screen."""
        return -(-self.screen_height // self.tile_size)

    @property
    def num_tiles(self) -> int:
        """Tiles covering the screen."""
        return self.tiles_x * self.tiles_y

    @property
    def total_cores(self) -> int:
        """Shader cores across all Raster Units."""
        return self.num_raster_units * self.raster_unit.num_cores

    def validate(self) -> None:
        """Raise :class:`ConfigValidationError` on an inconsistent config.

        Beyond the per-component checks, this enforces the cross-field
        invariants the simulator assumes: a consistent cache-line size
        across the whole hierarchy, screen dimensions that yield a
        non-empty tile grid, and scheduler thresholds/supertile sizes
        that the LIBRA decision logic can actually act on.
        """
        for cache in (self.vertex_cache, self.tile_cache,
                      self.texture_cache, self.l2_cache):
            cache.validate()
        self.dram.validate()
        line_sizes = {c.line_bytes for c in (
            self.vertex_cache, self.tile_cache, self.texture_cache,
            self.l2_cache)}
        if len(line_sizes) != 1:
            raise ConfigValidationError(
                f"cache hierarchy mixes line sizes {sorted(line_sizes)}")
        if self.dram.row_bytes % line_sizes.pop():
            raise ConfigValidationError(
                "DRAM row must hold an integer number of cache lines")
        if self.screen_width < 1 or self.screen_height < 1:
            raise ConfigValidationError(
                f"screen must be at least 1x1 pixel, got "
                f"{self.screen_width}x{self.screen_height}")
        if self.frequency_hz <= 0:
            raise ConfigValidationError("GPU frequency must be positive")
        if self.tile_size <= 0 or self.tile_size & (self.tile_size - 1):
            raise ConfigValidationError("tile size must be a positive power of two")
        if self.num_raster_units < 1:
            raise ConfigValidationError("at least one Raster Unit is required")
        if self.raster_unit.num_cores < 1:
            raise ConfigValidationError(
                "each Raster Unit needs at least one shader core")
        if self.shader_core.ipc <= 0 or self.shader_core.warps < 1 \
                or self.shader_core.mshrs < 1:
            raise ConfigValidationError(
                "shader core needs positive ipc, warps and mshrs")
        if self.interval_cycles < 1:
            raise ConfigValidationError("interval must be at least one cycle")
        if self.fb_compression_ratio is not None and not (
                0.0 < self.fb_compression_ratio <= 1.0):
            raise ConfigValidationError("fb compression ratio must be in (0, 1]")
        self._validate_scheduler()

    def _validate_scheduler(self) -> None:
        sched = self.scheduler
        if not 0.0 <= sched.hit_ratio_threshold <= 1.0:
            raise ConfigValidationError(
                f"hit-ratio threshold {sched.hit_ratio_threshold} "
                "outside [0, 1]")
        for name in ("order_switch_threshold",
                     "supertile_resize_threshold"):
            value = getattr(sched, name)
            if not 0.0 <= value < 1.0:
                raise ConfigValidationError(
                    f"{name} {value} outside [0, 1)")
        if not sched.supertile_sizes:
            raise ConfigValidationError("supertile_sizes must be non-empty")
        for size in sched.supertile_sizes:
            if size < 1 or size & (size - 1):
                raise ConfigValidationError(
                    f"supertile size {size} is not a positive power of two")
        if sched.initial_supertile_size not in sched.supertile_sizes:
            raise ConfigValidationError(
                f"initial supertile size {sched.initial_supertile_size} "
                f"not in the allowed sizes {sched.supertile_sizes}")

    def replace(self, **changes) -> "GPUConfig":
        """Return a copy with ``changes`` applied (deep enough for tests)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def build(cls, kind: str, raster_units: int = 2, cores_per_unit: int = 4,
              settings: Optional[Mapping[str, Any]] = None,
              **overrides) -> Tuple["GPUConfig", Optional[object]]:
        """The single named-variant entry point: ``(config, scheduler)``.

        ``kind`` names a GPU variant (see :func:`parse_kind` for the
        grammar): ``baseline``/``baseline<N>``, ``ptr``, ``libra``,
        ``temperature[<N>]``, ``supertile[<N>]``.  ``overrides`` are
        passed straight to the :class:`GPUConfig` constructor
        (``screen_width=...``, ``dram=...``); ``settings`` is a mapping
        of dotted attribute paths to values applied *after* construction
        (``{"dram.requests_per_cycle": 0.16,
        "scheduler.initial_supertile_size": 8}``), which is how sweep
        axes reach nested knobs.  The config is validated after every
        override is in place, and the scheduler is built from the final
        config, so threshold/supertile settings take effect.

        This subsumes the per-preset constructors, which remain as
        conveniences for the common cases.
        """
        family, param = parse_kind(kind)
        if family == "baseline":
            cores = param if param is not None \
                else raster_units * cores_per_unit
            overrides.setdefault("raster_unit",
                                 RasterUnitConfig(num_cores=cores))
            config = cls(num_raster_units=1, **overrides)
        else:
            overrides.setdefault("raster_unit",
                                 RasterUnitConfig(num_cores=cores_per_unit))
            config = cls(num_raster_units=raster_units, **overrides)
        apply_settings(config, settings or {})
        config.validate()
        return config, _scheduler_for(family, param, config)


#: Variant families :func:`parse_kind` understands (``baseline``,
#: ``temperature`` and ``supertile`` also accept a numeric suffix).
KIND_FAMILIES = ("baseline", "ptr", "libra", "temperature", "supertile")


def parse_kind(kind: str) -> Tuple[str, Optional[int]]:
    """Split a config-kind name into ``(family, numeric parameter)``.

    * ``baseline`` → ``("baseline", None)`` (core count chosen by the
      caller); ``baseline8`` → ``("baseline", 8)``.
    * ``ptr`` / ``libra`` — no parameter.
    * ``temperature`` / ``temperature<N>`` — hot/cold scheduling with
      supertile edge ``N`` (default 4).
    * ``supertile`` / ``supertile<N>`` — static supertiles of edge ``N``.

    Raises :class:`ConfigValidationError` on anything else, naming the
    valid families.
    """
    for family in ("baseline", "temperature", "supertile"):
        if kind == family:
            return family, None
        if kind.startswith(family) and kind[len(family):].isdigit():
            return family, int(kind[len(family):])
    if kind in ("ptr", "libra"):
        return kind, None
    raise ConfigValidationError(
        f"unknown config kind {kind!r}; valid: {', '.join(KIND_FAMILIES)} "
        "(baseline/temperature/supertile accept a numeric suffix)")


def apply_settings(config: GPUConfig,
                   settings: Mapping[str, Any]) -> GPUConfig:
    """Apply dotted-path overrides to ``config`` in place.

    ``{"dram.requests_per_cycle": 0.16, "texture_cache.size_bytes":
    65536}`` reaches into the nested dataclasses; an unknown path raises
    :class:`ConfigValidationError` instead of silently creating a new
    attribute.  Returns ``config`` for chaining.  Callers mutating a
    shared config should ``replace()`` first; the presets and
    :meth:`GPUConfig.build` always hand out fresh trees.
    """
    for path, value in settings.items():
        target: Any = config
        parts = path.split(".")
        for depth, part in enumerate(parts):
            if not hasattr(target, part):
                parent = ".".join(parts[:depth]) or "GPUConfig"
                raise ConfigValidationError(
                    f"unknown config setting {path!r} "
                    f"({parent} has no attribute {part!r})")
            if depth == len(parts) - 1:
                setattr(target, part, value)
            else:
                target = getattr(target, part)
    return config


def _scheduler_for(family: str, param: Optional[int], config: GPUConfig):
    """The scheduler a kind family implies, built against ``config``.

    Imported lazily because :mod:`repro.core` imports this module.
    """
    from .core import (LibraScheduler, StaticSupertileScheduler,
                       TemperatureScheduler, ZOrderScheduler)
    if family == "baseline":
        return None
    if family == "ptr":
        return ZOrderScheduler()
    if family == "libra":
        return LibraScheduler(config.scheduler)
    if family == "temperature":
        return TemperatureScheduler(param if param is not None else 4)
    return StaticSupertileScheduler(
        param if param is not None
        else config.scheduler.initial_supertile_size)


def baseline_config(**overrides) -> GPUConfig:
    """The paper's baseline: a single Raster Unit with eight cores."""
    overrides.setdefault("raster_unit", RasterUnitConfig(num_cores=8))
    cfg = GPUConfig(num_raster_units=1, **overrides)
    cfg.validate()
    return cfg


def libra_config(num_raster_units: int = 2, cores_per_unit: int = 4,
                 **overrides) -> GPUConfig:
    """LIBRA's organization: multiple Raster Units of four cores each."""
    cfg = GPUConfig(
        num_raster_units=num_raster_units,
        raster_unit=RasterUnitConfig(num_cores=cores_per_unit),
        **overrides,
    )
    cfg.validate()
    return cfg


def small_config(screen_width: int = 256, screen_height: int = 256,
                 tile_size: int = 32, **overrides) -> GPUConfig:
    """A reduced configuration for unit tests and quick examples."""
    cfg = GPUConfig(
        screen_width=screen_width,
        screen_height=screen_height,
        tile_size=tile_size,
        **overrides,
    )
    cfg.validate()
    return cfg
