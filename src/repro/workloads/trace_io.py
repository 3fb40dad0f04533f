"""Trace interchange: export/import FrameTraces as JSON.

Pickle caches (see :class:`~repro.workloads.traces.TraceCache`) are fast
but Python-specific; this module provides a stable, human-inspectable
JSON format so traces can be versioned, diffed, shipped to other tools,
or regenerated deterministically elsewhere.

Format (one JSON object per trace)::

    {"version": 1, "frame_index": 0, "tiles_x": 30, "tiles_y": 16,
     "tile_size": 32, "geometry_cycles": 67064,
     "vertex_instructions": 21344,
     "vertex_lines": [...],
     "tiles": {"4,7": {"instructions": ..., "fragments": ...,
                        "texture_lines": [...], ...}, ...}}

Line streams are written as JSON lists and read back as ``int64``
arrays.  A tile equal to an empty ``TileWorkload`` is omitted;
``FrameTrace.workload_for`` regenerates it.

Malformed input — truncated gzip streams, invalid JSON, missing keys,
or a ``version`` other than :data:`FORMAT_VERSION` — raises
:class:`~repro.errors.TraceFormatError` naming the offending path, so a
bad trace file is diagnosed at the trust boundary instead of surfacing
as a raw ``KeyError``/``EOFError`` deep in the simulator.
"""

from __future__ import annotations

import gzip
import json
import zlib
from pathlib import Path
from typing import List, Union

import numpy as np

from ..errors import TraceFormatError
from ..gpu.workload import FrameTrace, TileWorkload, as_lines, line_list

FORMAT_VERSION = 1

PathLike = Union[str, Path]

#: Keys every serialized tile record must carry.
_TILE_KEYS = ("instructions", "fragments", "texture_lines",
              "texture_fetches", "pb_lines", "fb_lines", "num_primitives",
              "prim_fragments", "prim_instructions")

#: Keys every serialized trace record must carry (beyond ``version``).
_TRACE_KEYS = ("frame_index", "tiles_x", "tiles_y", "tile_size",
               "geometry_cycles", "vertex_instructions", "vertex_lines",
               "tiles")


def trace_to_dict(trace: FrameTrace) -> dict:
    """Serialize one trace to a JSON-compatible dictionary."""
    tiles = {}
    for (tx, ty), workload in trace.workloads.items():
        if workload == TileWorkload(tile=workload.tile):
            continue
        tiles[f"{tx},{ty}"] = {
            "instructions": workload.instructions,
            "fragments": workload.fragments,
            "texture_lines": line_list(workload.texture_lines),
            "texture_fetches": workload.texture_fetches,
            "pb_lines": line_list(workload.pb_lines),
            "fb_lines": line_list(workload.fb_lines),
            "num_primitives": workload.num_primitives,
            "prim_fragments": workload.prim_fragments,
            "prim_instructions": workload.prim_instructions,
        }
    return {
        "version": FORMAT_VERSION,
        "frame_index": trace.frame_index,
        "tiles_x": trace.tiles_x,
        "tiles_y": trace.tiles_y,
        "tile_size": trace.tile_size,
        "geometry_cycles": trace.geometry_cycles,
        "vertex_instructions": trace.vertex_instructions,
        "vertex_lines": line_list(trace.vertex_lines),
        "tiles": tiles,
    }


def _read_lines(value, where: str) -> np.ndarray:
    """A JSON list of line addresses as an ``int64`` array."""
    try:
        lines = as_lines(value)
    except (TypeError, ValueError, OverflowError):
        lines = None
    if lines is None or lines.ndim != 1:
        raise TraceFormatError(f"{where}: not a list of line addresses")
    return lines


def trace_from_dict(data: dict, source: str = "<dict>") -> FrameTrace:
    """Deserialize a trace dictionary (inverse of :func:`trace_to_dict`).

    ``source`` names the originating file in error messages.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{source}: unsupported trace format version {version!r} "
            f"(expected {FORMAT_VERSION})")
    missing = [k for k in _TRACE_KEYS if k not in data]
    if missing:
        raise TraceFormatError(f"{source}: missing keys {missing}")
    workloads = {}
    for key, fields in data["tiles"].items():
        try:
            tx_str, ty_str = key.split(",")
            tile = (int(tx_str), int(ty_str))
        except ValueError:
            raise TraceFormatError(
                f"{source}: malformed tile key {key!r}") from None
        absent = [k for k in _TILE_KEYS if k not in fields]
        if absent:
            raise TraceFormatError(
                f"{source}: tile {key} missing keys {absent}")
        workloads[tile] = TileWorkload(
            tile=tile,
            instructions=fields["instructions"],
            fragments=fields["fragments"],
            texture_lines=_read_lines(fields["texture_lines"],
                                      f"{source}: tile {key} texture_lines"),
            texture_fetches=fields["texture_fetches"],
            pb_lines=_read_lines(fields["pb_lines"],
                                 f"{source}: tile {key} pb_lines"),
            fb_lines=_read_lines(fields["fb_lines"],
                                 f"{source}: tile {key} fb_lines"),
            num_primitives=fields["num_primitives"],
            prim_fragments=list(fields["prim_fragments"]),
            prim_instructions=list(fields["prim_instructions"]),
        )
    return FrameTrace(
        frame_index=data["frame_index"],
        tiles_x=data["tiles_x"],
        tiles_y=data["tiles_y"],
        tile_size=data["tile_size"],
        workloads=workloads,
        geometry_cycles=data["geometry_cycles"],
        vertex_lines=_read_lines(data["vertex_lines"],
                                 f"{source}: vertex_lines"),
        vertex_instructions=data["vertex_instructions"],
    )


def save_traces(traces: List[FrameTrace], path: PathLike) -> None:
    """Write traces as (optionally gzipped) JSON lines."""
    path = Path(path)
    payload = "\n".join(json.dumps(trace_to_dict(t)) for t in traces)
    if path.suffix == ".gz":
        with gzip.open(path, "wt") as handle:
            handle.write(payload)
    else:
        path.write_text(payload)


def load_traces(path: PathLike) -> List[FrameTrace]:
    """Read traces written by :func:`save_traces`.

    Raises :class:`TraceFormatError` on truncated gzip streams, invalid
    JSON, missing keys, or a format-version mismatch — always naming the
    offending path.
    """
    path = Path(path)
    try:
        if path.suffix == ".gz":
            with gzip.open(path, "rt") as handle:
                text = handle.read()
        else:
            text = path.read_text()
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise TraceFormatError(
            f"{path}: truncated or corrupt gzip stream ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not a text trace file") from exc
    traces = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(
                f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(data, dict):
            raise TraceFormatError(
                f"{path}:{lineno}: expected a JSON object per line")
        traces.append(trace_from_dict(data, source=f"{path}:{lineno}"))
    return traces
