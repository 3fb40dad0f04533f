"""Shader-core cluster throughput model.

The cores of one Raster Unit are modeled as a cluster with an aggregate
instruction rate and an aggregate miss-level-parallelism budget.  The two
budgets encode the classic latency/bandwidth trade-off the paper leans on:
multithreading hides memory latency only while the cluster can keep enough
misses in flight — ``miss_budget = outstanding_misses x interval /
latency`` — so when DRAM latency inflates under congestion, memory-bound
tiles stall regardless of compute headroom.
"""

from __future__ import annotations

from ..config import RasterUnitConfig, ShaderCoreConfig
from . import tilestream


class CoreCluster:
    """Aggregate execution budgets for the cores of one Raster Unit."""

    def __init__(self, ru_config: RasterUnitConfig,
                 core_config: ShaderCoreConfig):
        if ru_config.num_cores < 1:
            raise ValueError("a Raster Unit needs at least one core")
        self.num_cores = ru_config.num_cores
        self.ipc = core_config.ipc
        self.mshrs_total = ru_config.num_cores * core_config.mshrs
        self.warps_total = ru_config.num_cores * core_config.warps
        self.min_fragments_per_core = core_config.min_fragments_per_core
        self.primitive_setup_cycles = ru_config.primitive_setup_cycles

    def instruction_budget(self, cycles: int) -> float:
        """Instructions the cluster can retire in ``cycles`` cycles."""
        return cycles * self.num_cores * self.ipc

    def effective_cores(self, fragments: int) -> int:
        """Cores a primitive with ``fragments`` fragments can keep busy.

        Each engaged core wants at least ``min_fragments_per_core``
        fragments' worth of warps; primitives smaller than that leave
        cores idle, which is exactly why "doubling the number of cores
        does not work well" (paper Figure 4) on fine-geometry content.
        """
        if fragments <= 0:
            return 1
        return min(self.num_cores,
                   max(fragments // self.min_fragments_per_core, 1))

    def tile_compute_cycles(self, workload) -> float:
        """Memory-free execution cycles of a tile on this cluster.

        Primitives run back to back (program order within a tile); each
        pays a serial front-end setup cost and then shades its fragments
        on however many cores it can fill.

        The per-primitive float accumulation is order-sensitive, so the
        exact computed value is memoized on the workload, keyed by the
        cluster parameters it depends on — repeated runs over the same
        trace (benchmark repeats, scheduler comparisons on one config)
        skip the loop entirely.
        """
        cache = tilestream.derived(workload)
        key = ("cc", self.num_cores, self.ipc, self.min_fragments_per_core,
               self.primitive_setup_cycles)
        cycles = cache.get(key)
        if cycles is not None:
            return cycles
        cycles = workload.num_primitives * self.primitive_setup_cycles
        if workload.prim_instructions:
            for fragments, instructions in zip(workload.prim_fragments,
                                               workload.prim_instructions):
                width = self.effective_cores(fragments) * self.ipc
                cycles += instructions / width
        elif workload.instructions:
            # Trace without per-primitive detail: assume full width.
            cycles += workload.instructions / (self.num_cores * self.ipc)
        cache[key] = cycles
        return cycles

    def miss_budget(self, cycles: int, memory_latency: float) -> int:
        """DRAM-level misses the cluster can absorb in ``cycles`` cycles.

        Little's law on the MSHR pool: with ``mshrs_total`` outstanding
        requests and ``memory_latency`` cycles each, throughput is
        ``mshrs_total / latency`` misses per cycle.
        """
        if memory_latency <= 0:
            raise ValueError("memory latency must be positive")
        budget = self.mshrs_total * cycles / memory_latency
        return max(int(budget), 1)
