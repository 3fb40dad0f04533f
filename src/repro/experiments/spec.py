"""Declarative sweep specifications (the paper's parameter-sweep grids).

An :class:`ExperimentSpec` names *what* to measure — benchmarks, frame
count, screen geometry, the GPU-variant kinds to compare — and the
*axes* to grid over: named dimensions whose values are applied to each
point's :class:`~repro.config.GPUConfig` before simulation.  The spec is
a plain dataclass, loadable from YAML or JSON, so the Figure 18/19
sweeps become checked-in files instead of hand-written scripts.

Axis names are either a friendly alias from :data:`AXIS_ALIASES`
(``supertile``, ``dram_bandwidth``, ``resize_threshold``, ...), one of
the two organization knobs consumed by :meth:`GPUConfig.build`
(``raster_units``, ``cores_per_unit``), or any dotted attribute path
into :class:`~repro.config.GPUConfig` (``texture_cache.size_bytes``,
``dram.requests_per_cycle``).  :meth:`ExperimentSpec.expand` crosses
every axis with every benchmark and kind into :class:`SweepPoint`\\ s,
each with a deterministic ``point_id`` that keys the crash-safe artifact
store — the same spec always expands to the same ids, which is what
makes resume possible.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..config import GPUConfig, apply_settings, parse_kind
from ..errors import ConfigValidationError

#: Friendly axis names mapped to dotted :class:`GPUConfig` paths.
AXIS_ALIASES: Dict[str, str] = {
    "supertile": "scheduler.initial_supertile_size",
    "dram_bandwidth": "dram.requests_per_cycle",
    "hit_threshold": "scheduler.hit_ratio_threshold",
    "order_switch_threshold": "scheduler.order_switch_threshold",
    "resize_threshold": "scheduler.supertile_resize_threshold",
    "texture_l1_bytes": "texture_cache.size_bytes",
    "l2_bytes": "l2_cache.size_bytes",
    "tile_cache_bytes": "tile_cache.size_bytes",
}

#: Axis names consumed by :meth:`GPUConfig.build` itself (hardware
#: organization) rather than applied as dotted settings.
BUILD_AXES = ("raster_units", "cores_per_unit")


def resolve_axes(axes: Dict[str, Any]) -> Tuple[Dict[str, Any],
                                                Dict[str, Any]]:
    """Split one point's axis values into (build kwargs, dotted settings)."""
    build_kwargs: Dict[str, Any] = {}
    settings: Dict[str, Any] = {}
    for name, value in axes.items():
        if name in BUILD_AXES:
            build_kwargs[name] = value
        else:
            settings[AXIS_ALIASES.get(name, name)] = value
    return build_kwargs, settings


@dataclass(frozen=True)
class SweepPoint:
    """One fully-resolved grid point: a (benchmark, kind, axes) triple.

    Frozen and hashable so points can key dictionaries.  ``axes`` is
    stored as a sorted tuple of ``(name, value)`` pairs for that
    reason; use :attr:`axis_values` for the dict view.
    """

    benchmark: str
    kind: str
    axes: Tuple[Tuple[str, Any], ...]
    frames: int
    width: int
    height: int

    @property
    def axis_values(self) -> Dict[str, Any]:
        """The axis assignment of this point as a dict."""
        return dict(self.axes)

    @functools.cached_property
    def point_id(self) -> str:
        """Deterministic id keying this point's artifact across runs.

        Computed on first use and kept in the instance ``__dict__``
        (equality and hashing read the fields only).
        """
        blob = json.dumps(
            [self.benchmark, self.kind, sorted(self.axes),
             self.frames, self.width, self.height],
            sort_keys=True, default=str)
        digest = hashlib.sha1(blob.encode()).hexdigest()[:12]
        return f"{self.benchmark}-{self.kind}-{digest}"

    def resolved(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """(build kwargs, dotted settings) for :meth:`GPUConfig.build`."""
        return resolve_axes(self.axis_values)

    def describe(self) -> str:
        """``benchmark/kind axis=value ...`` for logs and reports."""
        tail = " ".join(f"{k}={v}" for k, v in self.axes)
        return f"{self.benchmark}/{self.kind}" + (f" {tail}" if tail else "")


@dataclass
class ExperimentSpec:
    """A declarative sweep: benchmarks x kinds x axis grid.

    ``axes`` maps axis names (see module docstring) to the list of
    values to grid over; an empty dict degenerates to a plain
    benchmark-by-kind comparison.  ``baseline_kind`` names the kind the
    aggregation helpers normalize speedups against and must be a member
    of ``kinds``.  The execution-policy fields (``workers``,
    ``timeout_s``, ``retries``, ``backoff_s``) are defaults the engine
    honours but callers may override per run; they are deliberately
    excluded from :meth:`fingerprint`, so rerunning the same grid with
    more workers still resumes the same artifact store.
    """

    name: str
    benchmarks: List[str]
    kinds: List[str] = field(default_factory=lambda: ["baseline", "libra"])
    axes: Dict[str, List[Any]] = field(default_factory=dict)
    frames: int = 8
    width: int = 960
    height: int = 512
    baseline_kind: str = "baseline"
    workers: int = 1
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_s: float = 0.25

    # -- validation / expansion ---------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigValidationError` on an unusable spec."""
        from ..workloads import benchmark_names, micro_benchmark_names
        if not self.name:
            raise ConfigValidationError("experiment needs a name")
        if not self.benchmarks:
            raise ConfigValidationError("experiment needs >= 1 benchmark")
        valid = benchmark_names() + micro_benchmark_names()
        unknown = [b for b in self.benchmarks if b not in valid]
        if unknown:
            raise ConfigValidationError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"valid: {', '.join(valid)}")
        if not self.kinds:
            raise ConfigValidationError("experiment needs >= 1 config kind")
        for kind in self.kinds:
            parse_kind(kind)
        if self.baseline_kind not in self.kinds:
            raise ConfigValidationError(
                f"baseline kind {self.baseline_kind!r} not among the "
                f"swept kinds {self.kinds}")
        if self.frames < 1:
            raise ConfigValidationError("frames must be >= 1")
        if self.width < 1 or self.height < 1:
            raise ConfigValidationError("screen must be at least 1x1")
        if self.retries < 0:
            raise ConfigValidationError("retries must be >= 0")
        if self.workers < 1:
            raise ConfigValidationError("workers must be >= 1")
        for axis, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigValidationError(
                    f"axis {axis!r} needs a non-empty list of values")
            if axis not in BUILD_AXES:
                # Prove the dotted path exists before spending hours on
                # the grid; per-point value validation happens at build.
                path = AXIS_ALIASES.get(axis, axis)
                apply_settings(GPUConfig(), {path: values[0]})

    @property
    def num_points(self) -> int:
        """Grid size: benchmarks x kinds x the axis cross product."""
        total = len(self.benchmarks) * len(self.kinds)
        for values in self.axes.values():
            total *= len(values)
        return total

    def expand(self) -> List[SweepPoint]:
        """The full grid, in deterministic order.

        Kinds vary fastest so a point and its baseline sibling sit next
        to each other, then the axis combinations (axes in insertion
        order), then benchmarks.
        """
        names = list(self.axes)
        combos = list(itertools.product(
            *(self.axes[name] for name in names))) or [()]
        points = []
        for benchmark in self.benchmarks:
            for combo in combos:
                axes = tuple(sorted(zip(names, combo)))
                for kind in self.kinds:
                    points.append(SweepPoint(
                        benchmark=benchmark, kind=kind, axes=axes,
                        frames=self.frames, width=self.width,
                        height=self.height))
        return points

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON/YAML-ready mapping (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "benchmarks": list(self.benchmarks),
            "kinds": list(self.kinds),
            "axes": {k: list(v) for k, v in self.axes.items()},
            "frames": self.frames,
            "width": self.width,
            "height": self.height,
            "baseline_kind": self.baseline_kind,
            "workers": self.workers,
            "timeout_s": self.timeout_s,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExperimentSpec":
        """Build a spec from a parsed YAML/JSON mapping (strict keys)."""
        if not isinstance(data, dict):
            raise ConfigValidationError(
                f"experiment spec must be a mapping, got {type(data).__name__}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigValidationError(
                f"unknown spec key(s) {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(sorted(known))}")
        if "name" not in data or "benchmarks" not in data:
            raise ConfigValidationError(
                "experiment spec needs at least 'name' and 'benchmarks'")
        spec = cls(**data)
        spec.validate()
        return spec

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a ``.yaml``/``.yml`` or ``.json`` file."""
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigValidationError(
                f"cannot read experiment spec {path}: {exc}") from exc
        if path.suffix in (".yaml", ".yml"):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - yaml is bundled
                raise ConfigValidationError(
                    f"{path}: YAML specs need PyYAML installed; "
                    "use a .json spec instead") from exc
            try:
                data = yaml.safe_load(text)
            except yaml.YAMLError as exc:
                raise ConfigValidationError(
                    f"{path}: invalid YAML ({exc})") from exc
        else:
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigValidationError(
                    f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def fingerprint(self) -> str:
        """Identity of the *grid* (not the execution policy).

        Two specs with the same fingerprint expand to the same points,
        so their artifact stores are interchangeable; changing workers
        or timeouts must not orphan completed work.
        """
        grid = {k: v for k, v in self.to_dict().items()
                if k not in ("workers", "timeout_s", "retries", "backoff_s")}
        blob = json.dumps(grid, sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_axis_value(text: str) -> Any:
    """``"4"`` → 4, ``"0.25"`` → 0.25, anything else verbatim.

    The CLI's ``--axis name=v1,v2`` values arrive as strings; config
    fields are numeric, so numbers are recognized eagerly.
    """
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            continue
    return text


def parse_axis_option(option: str) -> Tuple[str, List[Any]]:
    """Parse one ``--axis name=v1,v2,...`` occurrence."""
    name, sep, rest = option.partition("=")
    values = [parse_axis_value(v.strip())
              for v in rest.split(",") if v.strip()]
    if not sep or not name.strip() or not values:
        raise ConfigValidationError(
            f"bad axis {option!r}; expected name=value[,value...]")
    return name.strip(), values
