"""LPDDR4-like main-memory model.

Two concerns are modeled, both load-bearing for the paper's mechanism:

1. **Row-buffer behaviour** — each bank remembers its open row; a request
   hitting the open row costs ``row_hit_cycles`` (50), a conflict costs
   ``row_miss_cycles`` (100, Table I) and counts an activation for the
   energy model.

2. **Bandwidth-dependent queueing** — the paper's central premise: "the
   response time of memory increases asymptotically as the utilization
   factor of the memory bandwidth approaches 100%".  The model advances in
   fixed intervals; each interval's demand (requests issued plus backlog
   carried from previous intervals) is served up to the configured
   bandwidth, and the *loaded* latency seen by the next interval is the
   unloaded service time scaled by an M/M/1-style ``1/(1-rho)`` factor,
   capped at ``max_queue_factor``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..config import CACHE_LINE_BYTES, DRAMConfig
from ..telemetry import DRAM_BURST_BUCKETS, DRAMSample, HUB


@dataclass
class DRAMStats:
    """Counters and per-interval series of the DRAM model."""
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    #: Activations = row misses (a new row had to be opened).
    activations: int = 0
    #: Requests per interval, appended once per end_interval().
    interval_requests: List[int] = field(default_factory=list)
    #: Utilization (0..1+) per interval.
    interval_utilization: List[float] = field(default_factory=list)
    #: Loaded latency per interval (cycles).
    interval_latency: List[float] = field(default_factory=list)

    @property
    def accesses(self) -> int:
        """Total reads plus writes."""
        return self.reads + self.writes

    @property
    def row_hit_ratio(self) -> float:
        """Fraction of requests that hit an open row."""
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class DRAM:
    """Interval-stepped main memory with banks and a queueing latency."""

    def __init__(self, config: DRAMConfig, interval_cycles: int = 1000):
        config.validate()
        self.config = config
        self.interval_cycles = interval_cycles
        self._lines_per_row = config.row_bytes // CACHE_LINE_BYTES
        self._bank_mask = config.num_banks - 1
        self._bank_bits = max(config.num_banks.bit_length() - 1, 0)
        # Hot-path constants, bound once (config is immutable): the
        # service-cycle floats issued per request and the per-interval
        # service capacity.
        self._hit_service = float(config.row_hit_cycles)
        self._miss_service = float(config.row_miss_cycles)
        self._capacity = config.requests_per_cycle * interval_cycles
        self._open_rows: List[int] = [-1] * config.num_banks
        self._interval_requests = 0
        self._backlog = 0.0
        self._loaded_latency = float(config.row_hit_cycles)
        self._service_cycles_sum = 0.0
        self._service_count = 0
        #: Lazily-bound telemetry histogram (None while disabled).
        self._m_burst = None
        self.stats = DRAMStats()

    # -- request path ----------------------------------------------------
    def request(self, line: int, write: bool = False) -> float:
        """Issue one line request; returns its *unloaded* service cycles.

        Bank and row are derived from the line address: consecutive lines
        fill a row, rows interleave across banks (standard mapping, keeps
        streaming accesses row-friendly).
        """
        row = line // self._lines_per_row
        bank = row & self._bank_mask
        row_of_bank = row >> self._bank_bits
        stats = self.stats
        if self._open_rows[bank] == row_of_bank:
            stats.row_hits += 1
            service = self._hit_service
        else:
            stats.row_misses += 1
            stats.activations += 1
            self._open_rows[bank] = row_of_bank
            service = self._miss_service
        if write:
            stats.writes += 1
        else:
            stats.reads += 1
        self._interval_requests += 1
        self._service_cycles_sum += service
        self._service_count += 1
        return service

    def request_batch(self, lines, write: bool = False) -> float:
        """Issue a whole line stream in order; returns summed service cycles.

        Equivalent to calling :meth:`request` once per line: the same
        per-line row walk with the locals bound once and the statistics
        applied in bulk afterwards.  Service cycles are added in stream
        order, so the running sum and the returned total are bit-identical
        to the scalar path whatever the service cycles are.  This is the
        one batched row walk: every batched caller issues through it.
        """
        open_rows = self._open_rows
        lines_per_row = self._lines_per_row
        bank_mask = self._bank_mask
        bank_bits = self._bank_bits
        hit_service = self._hit_service
        miss_service = self._miss_service
        running = self._service_cycles_sum
        total = 0.0
        row_misses = 0
        for line in lines:
            row = line // lines_per_row
            bank = row & bank_mask
            row_of_bank = row >> bank_bits
            if open_rows[bank] == row_of_bank:
                service = hit_service
            else:
                row_misses += 1
                open_rows[bank] = row_of_bank
                service = miss_service
            total += service
            running += service
        n = len(lines)
        self._service_cycles_sum = running
        self._service_count += n
        self._interval_requests += n
        stats = self.stats
        stats.row_hits += n - row_misses
        stats.row_misses += row_misses
        stats.activations += row_misses
        if write:
            stats.writes += n
        else:
            stats.reads += n
        return total

    # -- interval stepping -------------------------------------------------
    @property
    def loaded_latency(self) -> float:
        """Latency (cycles) a new request would observe this interval."""
        return self._loaded_latency

    @property
    def capacity_per_interval(self) -> float:
        """Line requests servable per interval at full bandwidth."""
        return self._capacity

    def end_interval(self) -> None:
        """Close the current interval and derive the next loaded latency."""
        capacity = self._capacity
        requests = self._interval_requests
        if not requests and not self._backlog and not self._service_count \
                and capacity:
            # Idle interval: demand and backlog are zero, so the general
            # derivation below reduces exactly to the unloaded hit
            # latency (utilization 0, queue factor clamped at >= 1).
            max_queue_factor = self.config.max_queue_factor
            loaded = self._hit_service * (1.0 if max_queue_factor >= 1.0
                                          else max_queue_factor)
            self._loaded_latency = loaded
            stats = self.stats
            stats.interval_requests.append(0)
            stats.interval_utilization.append(0.0)
            stats.interval_latency.append(loaded)
            if HUB.enabled:
                self._emit_interval(0, 0.0, loaded)
            return
        demand = requests + self._backlog
        served = min(demand, capacity)
        backlog = demand - served
        self._backlog = backlog
        utilization = served / capacity if capacity else 1.0
        count = self._service_count
        if count:
            unloaded = self._service_cycles_sum / count
        else:
            unloaded = self._hit_service
        max_queue_factor = self.config.max_queue_factor
        queue_factor = 1.0 / max(1.0 - utilization, 1e-9)
        queue_factor = min(queue_factor, max_queue_factor)
        backlog_delay = (backlog / self.config.requests_per_cycle
                         if backlog else 0.0)
        loaded = min(unloaded * queue_factor + backlog_delay,
                     unloaded * max_queue_factor)
        self._loaded_latency = loaded
        stats = self.stats
        stats.interval_requests.append(requests)
        stats.interval_utilization.append(
            min(demand / capacity if capacity else 1.0, 2.0))
        stats.interval_latency.append(loaded)
        self._interval_requests = 0
        self._service_cycles_sum = 0.0
        self._service_count = 0
        if HUB.enabled:
            self._emit_interval(requests, utilization, loaded)

    def _emit_interval(self, requests: int, utilization: float,
                       loaded: float) -> None:
        """Telemetry tail of ``end_interval`` (HUB-enabled runs only).

        Interval index x interval length approximates the global cycle
        clock (good enough for a counter track); the burst histogram
        feeds the DRAM-demand flatness analysis (Fig. 7).
        """
        histogram = self._m_burst
        if histogram is None:
            histogram = self._m_burst = HUB.metrics.histogram(
                "dram.burst_requests", DRAM_BURST_BUCKETS)
        histogram.observe(requests)
        HUB.emit(DRAMSample(
            ts=len(self.stats.interval_requests) * self.interval_cycles,
            requests=requests, utilization=utilization,
            latency_cycles=loaded))

    @property
    def backlog(self) -> float:
        """Requests carried over from saturated intervals."""
        return self._backlog

    def drain_cycles(self) -> int:
        """Cycles needed to drain the remaining backlog at full bandwidth."""
        if self._backlog <= 0:
            return 0
        return int(self._backlog / self.config.requests_per_cycle) + 1

    def reset(self) -> None:
        """Clear all state and statistics."""
        self._open_rows = [-1] * self.config.num_banks
        self._interval_requests = 0
        self._backlog = 0.0
        self._loaded_latency = float(self.config.row_hit_cycles)
        self._service_cycles_sum = 0.0
        self._service_count = 0
        self.stats = DRAMStats()
