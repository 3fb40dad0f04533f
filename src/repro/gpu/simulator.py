"""Top-level GPU simulator: multi-frame runs and aggregate results.

The public entry point of the timing side of the library::

    from repro import GPUSimulator, libra_config, LibraScheduler

    config = libra_config()
    sim = GPUSimulator(config, scheduler=LibraScheduler(config.scheduler))
    result = sim.run(traces)          # traces: Sequence[FrameTrace]
    print(result.fps, result.total_energy_j)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..config import GPUConfig
from ..core.scheduler import TileScheduler, ZOrderScheduler
from ..energy.model import EnergyCounts, EnergyModel
from ..errors import ReproError, SimulationError
from ..telemetry import HUB, PhaseBegin, PhaseEnd
from .frame import FrameDriver, FrameResult
from .workload import FrameTrace


@dataclass
class RunResult:
    """Aggregate of a multi-frame simulation."""

    config_name: str
    frames: List[FrameResult] = field(default_factory=list)
    frequency_hz: int = 800_000_000

    @property
    def num_frames(self) -> int:
        """Frames simulated in this run."""
        return len(self.frames)

    @property
    def total_cycles(self) -> int:
        """Total cycles over all frames."""
        return sum(f.total_cycles for f in self.frames)

    @property
    def raster_cycles(self) -> int:
        """Raster-phase cycles over all frames."""
        return sum(f.raster_cycles for f in self.frames)

    @property
    def geometry_cycles(self) -> int:
        """Geometry-phase cycles over all frames."""
        return sum(f.geometry_cycles for f in self.frames)

    @property
    def fps(self) -> float:
        """Frames per second at the configured clock."""
        if self.total_cycles == 0:
            return 0.0
        return self.num_frames / (self.total_cycles / self.frequency_hz)

    @property
    def total_energy_j(self) -> float:
        """Total GPU energy of the run in joules."""
        return sum(f.energy.total_j for f in self.frames)

    @property
    def raster_dram_accesses(self) -> int:
        """Raster-pipeline DRAM accesses over all frames."""
        return sum(f.raster_dram_accesses for f in self.frames)

    @property
    def mean_texture_hit_ratio(self) -> float:
        """Mean per-frame texture hit ratio."""
        if not self.frames:
            return 0.0
        return sum(f.texture_hit_ratio for f in self.frames) / len(self.frames)

    @property
    def mean_texture_latency(self) -> float:
        """Mean per-frame texture access latency in cycles."""
        if not self.frames:
            return 0.0
        return (sum(f.mean_texture_latency for f in self.frames)
                / len(self.frames))

    def total_energy_counts(self) -> EnergyCounts:
        """Summed energy event counts over all frames."""
        counts = EnergyCounts()
        for frame in self.frames:
            counts = counts.merged_with(frame.energy_counts)
        return counts

    def speedup_over(self, baseline: "RunResult") -> float:
        """Execution-time speedup of this run versus a baseline run."""
        if self.total_cycles == 0:
            raise ValueError("run has no cycles")
        return baseline.total_cycles / self.total_cycles


class GPUSimulator:
    """Simulates a configured GPU over a sequence of frame traces."""

    def __init__(self, config: GPUConfig,
                 scheduler: Optional[TileScheduler] = None,
                 energy_model: Optional[EnergyModel] = None,
                 name: str = "",
                 batched: bool = True):
        self.config = config
        self.scheduler = scheduler or ZOrderScheduler()
        self.name = name or type(self.scheduler).__name__
        self.driver = FrameDriver(config, self.scheduler,
                                  energy_model=energy_model,
                                  batched=batched)

    def run_frame(self, trace: FrameTrace) -> FrameResult:
        """Simulate one frame and return its FrameResult."""
        return self.driver.run_frame(trace)

    def run(self, traces: Sequence[FrameTrace],
            validate: bool = True) -> RunResult:
        """Simulate a trace sequence and return the aggregate RunResult.

        This is the simulator's trust boundary: with ``validate`` (the
        default) the configuration's cross-field invariants and every
        trace's structural invariants are checked up front
        (:meth:`GPUConfig.validate` / :meth:`FrameTrace.validate`), so
        corrupt caches or hand-built traces fail fast with a
        :class:`~repro.errors.ConfigValidationError` /
        :class:`~repro.errors.TraceFormatError` instead of producing
        silently wrong timing.  A failure *inside* the timing model is
        wrapped in :class:`~repro.errors.SimulationError` with the frame
        index attached (the original exception chained as its cause).
        """
        if validate:
            self.config.validate()
            for trace in traces:
                trace.validate()
        result = RunResult(config_name=self.name,
                           frequency_hz=self.config.frequency_hz)
        telemetry = HUB.enabled
        if telemetry:
            HUB.emit(PhaseBegin(name=f"run:{self.name}",
                                ts=self.driver.clock.cycles))
        for trace in traces:
            try:
                result.frames.append(self.driver.run_frame(trace))
            except ReproError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"{self.name or 'simulator'}: frame "
                    f"{trace.frame_index} failed: {exc!r}") from exc
        if telemetry:
            HUB.emit(PhaseEnd(name=f"run:{self.name}",
                              ts=self.driver.clock.cycles))
        return result
