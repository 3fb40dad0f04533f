"""``repro report``: telemetry event stream -> markdown analysis.

Post-processes a recorded event stream (a live
:class:`~repro.telemetry.hub.RecordingSink` or a JSONL file read back
with :func:`~repro.telemetry.io.load_jsonl_events`) into the analyses
the paper argues from:

* **DRAM bandwidth over time** — the Figure 7 view: per-interval
  request series with a *burst factor* (peak over mean) and coefficient
  of variation.  LIBRA's claim is a flat profile; a bursty one is the
  immediate-mode failure mode.
* **Per-RU utilization and load balance** — busy cycles, tiles and
  DRAM lines per Raster Unit, with the load-imbalance percentage the
  paper's balanced-workload argument depends on.
* **FSM decision timeline** — every adaptive-scheduler state change
  and per-frame decision, in emit order.
* **Cache hit-ratio trend** — per-frame hit ratio of each cache.

Each analysis can raise an **anomaly flag** (imbalance above threshold,
burst factor above threshold, hit ratio collapsing between frames);
the flags are collected in a final section so a CI log grep — or a
human skimming the report — sees the problems first.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..experiments import SweepPoint, simulate_point
from ..gpu import RunResult
from ..stats import arithmetic_mean, coefficient_of_variation
from ..telemetry import HUB, RecordingSink, telemetry_session
from ..telemetry.events import (CacheDelta, DRAMSample, FSMState,
                                FSMTransition, SchedulerDecision,
                                TelemetryEvent, TileRetire)

#: Imbalance above this many percent gets an anomaly flag (the paper's
#: balanced-RU claim is ~a few percent; 10% is clearly off).
IMBALANCE_THRESHOLD_PCT = 10.0
#: Peak-over-mean DRAM burst factor above this gets an anomaly flag.
BURST_THRESHOLD = 3.0
#: A frame-over-frame hit-ratio drop larger than this gets a flag.
HIT_RATIO_DROP = 0.15

_SPARK = " ▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], width: int = 60) -> str:
    """A unicode sparkline, resampled to at most ``width`` cells.

    Degenerate series render a stable placeholder instead of garbage:
    an empty series is ``(no samples)``, a zero-range (all-equal)
    series is a flat line — mid-height when positive, floor-height
    otherwise — and out-of-band values clamp to the glyph range rather
    than wrapping the index (a negative sample must not pick a glyph
    from the end of the scale).
    """
    if not values:
        return "(no samples)"
    if len(values) > width:
        stride = len(values) / width
        values = [max(values[int(i * stride):
                             max(int(i * stride) + 1,
                                 int((i + 1) * stride))])
                  for i in range(width)]
    peak = max(values)
    if peak == min(values):
        return _SPARK[4 if peak > 0 else 1] * len(values)
    if peak <= 0:
        return _SPARK[1] * len(values)
    return "".join(_SPARK[max(0, min(8, int(8 * v / peak + 0.5)))]
                   for v in values)


def _dram_section(samples: List[DRAMSample],
                  anomalies: List[str]) -> List[str]:
    lines = ["## DRAM bandwidth over time", ""]
    if not samples:
        lines += ["No DRAM interval samples in this stream.", ""]
        return lines
    series = [float(s.requests) for s in samples]
    peak, mean = max(series), arithmetic_mean(series)
    burst = peak / mean if mean else 0.0
    cv = coefficient_of_variation(series)
    lines += [
        f"```\n{_sparkline(series)}\n```",
        "",
        f"- intervals: {len(series)}",
        f"- requests: mean {mean:.1f} / peak {peak:.0f} per interval",
        f"- burst factor (peak/mean): **{burst:.2f}**",
        f"- coefficient of variation: {cv:.3f}",
        f"- mean utilization: "
        f"{arithmetic_mean([s.utilization for s in samples]):.3f}",
        "",
    ]
    if burst > BURST_THRESHOLD:
        anomalies.append(
            f"DRAM burst factor {burst:.2f} exceeds {BURST_THRESHOLD:.1f} "
            f"— bandwidth profile is bursty, not flat (cf. paper Fig. 7)")
    return lines


def _ru_section(retires: List[TileRetire],
                anomalies: List[str]) -> List[str]:
    lines = ["## Per-RU utilization and load balance", ""]
    if not retires:
        lines += ["No tile-retire events in this stream.", ""]
        return lines
    busy: Dict[int, int] = {}
    tiles: Dict[int, int] = {}
    dram: Dict[int, int] = {}
    for ev in retires:
        tiles[ev.ru] = tiles.get(ev.ru, 0) + 1
        dram[ev.ru] = dram.get(ev.ru, 0) + ev.dram_lines
        if ev.ts is not None and ev.start_ts is not None:
            busy[ev.ru] = busy.get(ev.ru, 0) + max(0, ev.ts - ev.start_ts)
    rus = sorted(tiles)
    lines += ["| RU | busy cycles | tiles | DRAM lines |",
              "|---:|---:|---:|---:|"]
    for ru in rus:
        lines.append(f"| ru{ru} | {busy.get(ru, 0):,} | {tiles[ru]:,} "
                     f"| {dram.get(ru, 0):,} |")
    loads = [busy.get(ru, 0) for ru in rus]
    if not any(loads):  # no cycle attribution: fall back to tile counts
        loads = [tiles[ru] for ru in rus]
    mean = arithmetic_mean(loads)
    imbalance = (100.0 * (max(loads) - min(loads)) / mean) if mean else 0.0
    lines += ["",
              f"- load imbalance ((max-min)/mean): **{imbalance:.1f}%** "
              f"across {len(rus)} RU(s)",
              ""]
    if len(rus) > 1 and imbalance > IMBALANCE_THRESHOLD_PCT:
        anomalies.append(
            f"RU load imbalance {imbalance:.1f}% exceeds "
            f"{IMBALANCE_THRESHOLD_PCT:.0f}% — workload is not balanced "
            f"across Raster Units")
    return lines


def _fsm_section(timeline: List[TelemetryEvent]) -> List[str]:
    lines = ["## FSM decision timeline", ""]
    if not timeline:
        lines += ["No scheduler/FSM events in this stream.", ""]
        return lines
    lines += ["| seq | ts | event |", "|---:|---:|:---|"]
    for ev in timeline:
        ts = getattr(ev, "ts", None)
        ts_cell = f"{ts:,}" if ts is not None else "—"
        if isinstance(ev, SchedulerDecision):
            what = (f"frame {ev.frame}: order `{ev.order}`, "
                    f"supertile {ev.supertile_size}, "
                    f"{ev.batches} batch(es)")
        elif isinstance(ev, FSMTransition):
            what = (f"`{ev.machine}` "
                    + ("initial state " if ev.old is None else
                       f"{ev.old} -> ") + f"{ev.new}")
        else:  # FSMState
            what = (f"`{ev.machine}` frame {ev.frame}: "
                    f"state {ev.state}")
        lines.append(f"| {ev.seq} | {ts_cell} | {what} |")
    lines.append("")
    return lines


def _cache_section(deltas: List[CacheDelta],
                   anomalies: List[str]) -> List[str]:
    lines = ["## Cache hit-ratio trend", ""]
    if not deltas:
        lines += ["No cache delta events in this stream.", ""]
        return lines
    by_cache: Dict[str, List[CacheDelta]] = {}
    for ev in deltas:
        by_cache.setdefault(ev.name, []).append(ev)
    for name in sorted(by_cache):
        ratios: List[Tuple[Optional[int], float]] = [
            (ev.frame, ev.hits / ev.accesses)
            for ev in by_cache[name] if ev.accesses > 0]
        if not ratios:
            continue
        trend = " ".join(f"{r:.3f}" for _, r in ratios)
        lines.append(f"- `{name}`: {trend}  "
                     f"(mean {arithmetic_mean([r for _, r in ratios]):.3f})")
        for (prev_f, prev_r), (cur_f, cur_r) in zip(ratios, ratios[1:]):
            if prev_r - cur_r > HIT_RATIO_DROP:
                anomalies.append(
                    f"cache `{name}` hit ratio dropped {prev_r:.3f} -> "
                    f"{cur_r:.3f} between frames {prev_f} and {cur_f}")
    lines.append("")
    return lines


def _metrics_section(metrics: Dict[str, float]) -> List[str]:
    lines = ["## Metrics snapshot", "",
             "| metric | value |", "|:---|---:|"]
    for name in sorted(metrics):
        if ".le_" in name:  # histogram bucket expansion; too noisy here
            continue
        value = metrics[name]
        cell = f"{value:,.3f}" if isinstance(value, float) \
            and value != int(value) else f"{int(value):,}"
        lines.append(f"| `{name}` | {cell} |")
    lines.append("")
    return lines


def record_point(point: SweepPoint) -> Tuple[RunResult,
                                             List[TelemetryEvent],
                                             Dict[str, float]]:
    """Simulate ``point`` with the telemetry hub on.

    Returns ``(result, events, metrics)``: the run, its recorded event
    stream and the metrics snapshot taken before the session closes,
    which :func:`build_report` and the Chrome trace export read.
    """
    sink = RecordingSink()
    with telemetry_session(sink):
        result = simulate_point(point)
        metrics = HUB.metrics.snapshot()
    return result, sink.events, metrics


def build_report(events: Iterable[TelemetryEvent],
                 metrics: Optional[Dict[str, float]] = None,
                 title: str = "Telemetry analysis") -> str:
    """The markdown analysis report for one recorded run.

    ``events`` is any iterable of telemetry events (a
    ``RecordingSink.events`` list or the output of
    :func:`~repro.telemetry.load_jsonl_events`); ``metrics`` is an
    optional flat metrics snapshot appended as its own section.
    """
    events = sorted(events, key=lambda e: e.seq)
    samples = [e for e in events if isinstance(e, DRAMSample)]
    retires = [e for e in events if isinstance(e, TileRetire)]
    deltas = [e for e in events if isinstance(e, CacheDelta)]
    timeline = [e for e in events
                if isinstance(e, (SchedulerDecision, FSMTransition,
                                  FSMState))]

    anomalies: List[str] = []
    body: List[str] = [f"# {title}", "",
                       f"{len(events)} events analysed.", ""]
    body += _dram_section(samples, anomalies)
    body += _ru_section(retires, anomalies)
    body += _fsm_section(timeline)
    body += _cache_section(deltas, anomalies)
    if metrics:
        body += _metrics_section(metrics)

    body += ["## Anomalies", ""]
    if anomalies:
        body += [f"- **flag**: {a}" for a in anomalies]
    else:
        body.append("None — all analyses within thresholds.")
    body.append("")
    return "\n".join(body)
