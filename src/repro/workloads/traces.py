"""Trace building: scenes -> FrameTrace, via the real pipelines.

Each frame of a benchmark runs through the actual Geometry Pipeline,
Tiling Engine and (trace-mode) Raster Pipeline, so the per-tile workload
descriptors fed to the timing simulator are *measured*, not estimated:
fragment counts come from real edge-function rasterization with Early-Z,
texture line footprints from real UV interpolation and mip selection.

Traces depend only on the frame content and screen geometry — never on
the GPU configuration — so one trace is shared by the baseline, PTR and
LIBRA runs of an experiment (and can be cached on disk, see
:class:`TraceCache`).

Tiles share nothing, so where this process may run on two CPUs a
helper forked per frame renders the second half of the frame's tiles
(:func:`_render_split`); the trace is byte-identical to a
single-process build.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import signal
import sys
import threading
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .. import cachefile
from ..config import CACHE_LINE_BYTES
from ..geometry.pipeline import GeometryPipeline
from ..gpu.workload import FrameTrace, TileWorkload
from ..raster.framebuffer import FrameBuffer, tile_flush_lines
from ..raster.pipeline import RasterPipeline, TileRenderResult
from ..tiling.engine import TilingEngine
from .scene import Scene, SceneBuilder

log = logging.getLogger(__name__)

#: Bump when the trace format or generator behaviour changes, to invalidate
#: any on-disk caches.  v4: line streams are ``int64`` arrays.
TRACE_FORMAT_VERSION = 4


class TraceBuilder:
    """Builds FrameTraces for one benchmark at one screen geometry."""

    def __init__(self, scene_builder: SceneBuilder, width: int, height: int,
                 tile_size: int, transaction_elimination: bool = True):
        self.scenes = scene_builder
        self.width = width
        self.height = height
        self.tile_size = tile_size
        self.tiles_x = -(-width // tile_size)
        self.tiles_y = -(-height // tile_size)
        #: ARM-style transaction elimination: a tile whose content is
        #: unchanged from the previous frame skips its Frame Buffer flush.
        self.transaction_elimination = transaction_elimination
        self._geometry = GeometryPipeline(width, height)
        self._tiling = TilingEngine(self.tiles_x, self.tiles_y, tile_size)
        self._previous_signatures: Dict[tuple, int] = {}

    def build(self, frame_index: int) -> FrameTrace:
        """Build the FrameTrace of one frame index."""
        scene = self.scenes.frame(frame_index)
        return self.build_from_scene(scene, frame_index)

    def build_from_scene(self, scene: Scene, frame_index: int) -> FrameTrace:
        """Build a FrameTrace from an explicit scene."""
        geometry = self._geometry.run(scene.draws, scene.view_projection)
        tiled = self._tiling.tile_frame(geometry.primitives)
        raster = RasterPipeline(
            self.width, self.height, self.tile_size,
            textures=self.scenes.textures,
            shade_colors=False, collect_lines=True,
            framebuffer=FrameBuffer(self.width, self.height,
                                    store_pixels=False))
        workloads: Dict[tuple, TileWorkload] = {}
        signatures: Dict[tuple, int] = {}
        items = list(tiled.parameter_buffer.lists.items())
        with contextlib.closing(_render_split(raster, items)) as rendered:
            for measured in rendered:
                tile = measured.tile
                signature = _tile_signature(measured)
                fb_lines = measured.framebuffer_lines
                if (self.transaction_elimination
                        and self._previous_signatures.get(tile)
                        == signature):
                    fb_lines = []
                signatures[tile] = signature
                workloads[tile] = TileWorkload(
                    tile=tile,
                    instructions=measured.instructions,
                    fragments=measured.fragments_shaded,
                    texture_lines=measured.texture_lines,
                    texture_fetches=measured.texture_fetches,
                    pb_lines=tiled.parameter_buffer.fetch_addresses(tile),
                    fb_lines=fb_lines,
                    num_primitives=measured.num_primitives,
                    prim_fragments=measured.prim_fragments,
                    prim_instructions=measured.prim_instructions,
                )
        # Empty tiles flush their cleared Color Buffer once, then the
        # unchanged-tile elimination suppresses further flushes.
        empty_signature = -1
        for ty in range(self.tiles_y):
            for tx in range(self.tiles_x):
                tile = (tx, ty)
                if tile in workloads:
                    continue
                signatures[tile] = empty_signature
                flushed = not (
                    self.transaction_elimination
                    and self._previous_signatures.get(tile)
                    == empty_signature)
                workloads[tile] = TileWorkload(
                    tile=tile,
                    fb_lines=tile_flush_lines(
                        tx * self.tile_size, ty * self.tile_size,
                        self.tile_size, self.width, self.height)
                    if flushed else [])
        self._previous_signatures = signatures
        return FrameTrace(
            frame_index=frame_index,
            tiles_x=self.tiles_x,
            tiles_y=self.tiles_y,
            tile_size=self.tile_size,
            workloads=workloads,
            geometry_cycles=geometry.cycles,
            vertex_lines=np.asarray(geometry.vertex_fetch_addresses,
                                    dtype=np.int64) // CACHE_LINE_BYTES,
            vertex_instructions=geometry.stats.vertex_instructions,
        )

    def build_many(self, num_frames: int,
                   start: int = 0) -> List[FrameTrace]:
        """Build consecutive frames starting at ``start``."""
        return [self.build(start + i) for i in range(num_frames)]


def _tile_signature(measured) -> int:
    """Content signature of a rendered tile (for transaction elimination).

    Hashes the shading-relevant measurements; any content change (moved
    sprite, shifted UVs, different overdraw) perturbs at least one of
    them.  Mirrors the CRC signature ARM GPUs compute over the tile's
    pixels, without requiring trace mode to produce pixels.
    """
    return hash((
        measured.instructions,
        measured.fragments_shaded,
        measured.num_primitives,
        len(measured.texture_lines),
        tuple(measured.texture_lines[:16].tolist()),
        tuple(measured.prim_fragments[:16]),
    ))


_Items = Sequence[Tuple[tuple, list]]


#: CPUs of this process's affinity mask its own work keeps busy: its
#: own, plus its parent's in a process forked to work beside it.
_busy_cpus = 1


def may_fork() -> bool:
    """Whether this process may fork a helper to share its work: on
    Linux, from a process running one thread (a supervised worker's
    heartbeat thread rules it out, so ``--workers N`` stays N busy
    processes), with a CPU in its affinity mask that its work does not
    keep busy already (two CPUs, or three in a process that
    :func:`works_beside_parent`)."""
    return (sys.platform.startswith("linux")
            and threading.active_count() == 1
            and len(os.sched_getaffinity(0)) > _busy_cpus)


def works_beside_parent() -> None:
    """Note that this forked process works while its parent keeps a CPU
    busy (a trace prefetch beside a simulating sweep), so that
    :func:`may_fork` counts that CPU as taken."""
    global _busy_cpus
    _busy_cpus += 1


def quiet_fork() -> int:
    """``os.fork()``, without the warning Python 3.12 gives on any fork
    from a process with more than one OS thread: numpy's BLAS pool
    counts, and it is fork-safe."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        return os.fork()


def _split_at(items: _Items) -> Optional[int]:
    """Where a forked helper takes over a frame's ``(tile, primitives)``
    items, or None to render them all in this process.

    A helper is forked only where :func:`may_fork` allows, and for at
    least two tiles that hold primitives.  The cut balances the (tile,
    primitive) pairs, which is what a chunk's raster pass costs.
    """
    if not may_fork():
        return None
    pairs = np.array([len(prims) for _, prims in items], dtype=np.int64)
    if np.count_nonzero(pairs) < 2:
        return None
    ends = np.cumsum(pairs)
    cut = int(np.searchsorted(ends, ends[-1] / 2)) + 1
    return min(max(cut, 1), len(items) - 1)


def _render_split(raster: RasterPipeline,
                  items: _Items) -> Iterator[TileRenderResult]:
    """Render ``items`` through ``raster.process_tiles``, yielding the
    results in item order, with the second half rendered by a forked
    helper where :func:`_split_at` allows one.

    This process renders and yields the first half, then yields the
    helper's half from the pipe.  If the fork fails, the helper exits
    non-zero or its payload does not hold its half, that half is
    rendered here after one warning.  Close the generator when done
    with it: on every exit path, an exception included, the helper is
    killed if it still runs and reaped.
    """
    cut = _split_at(items)
    helper = None if cut is None else _fork_helper(raster, items[cut:])
    if helper is None:
        yield from raster.process_tiles(items)
        return
    pid, read_fd = helper
    tail = items[cut:]
    reaped = False
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            yield from raster.process_tiles(items[:cut])
            try:
                received = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                received = None
        _, status = os.waitpid(pid, 0)
        reaped = True
        status = os.waitstatus_to_exitcode(status)
        # A helper exits 0 only after its whole payload is written.
        if status != 0 or ([result.tile for result in received]
                           != [tile for tile, _ in tail]):
            log.warning("trace helper pid %d %s; rendering its %d tiles "
                        "in this process", pid,
                        f"exited with status {status}" if status
                        else "sent an incomplete payload", len(tail))
            received = raster.process_tiles(tail)
        yield from received
    finally:
        if not reaped:
            _reap(pid)


def _fork_helper(raster: RasterPipeline,
                 tail: _Items) -> Optional[Tuple[int, int]]:
    """Fork the helper that renders ``tail``: its pid and the read end
    of its pipe, or None after one warning if it could not start."""
    fds: Tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = quiet_fork()
    except OSError as exc:
        for fd in fds:
            os.close(fd)
        log.warning("could not fork a trace helper (%s); rendering its "
                    "%d tiles in this process", exc, len(tail))
        return None
    if pid == 0:
        os.close(read_fd)
        _helper(raster, tail, write_fd)
    os.close(write_fd)
    return pid, read_fd


def _helper(raster: RasterPipeline, tail: _Items, write_fd: int) -> None:
    """The forked helper: render ``tail``, pickle its results into the
    pipe, and leave through ``os._exit`` (never back into the caller's
    frames, whatever happens).

    If the parent is gone, the write fails and the helper exits.
    """
    status = 1
    try:
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(list(raster.process_tiles(tail)), pipe,
                        protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int) -> None:
    """Kill the helper ``pid`` if it still runs, and reap it."""
    try:
        if os.waitpid(pid, os.WNOHANG)[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    except ChildProcessError:
        pass


class TraceCache:
    """Disk cache of built traces (benchmarks are deterministic).

    Experiments sweep many GPU configurations over the same frames; the
    trace is configuration-independent, so caching it cuts experiment
    time by the trace-building share.

    Entries are written through :mod:`repro.cachefile`: atomic replace,
    per-entry SHA-256 checksum, and an advisory per-entry lock, so
    concurrent bench runs can share one cache directory.  A corrupt
    entry (truncation, bit flip, legacy unchecksummed pickle) is
    quarantined as ``<name>.corrupt`` and rebuilt — never served, never
    silently deleted.
    """

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.v{TRACE_FORMAT_VERSION}.pkl"

    def __contains__(self, key: str) -> bool:
        """Whether an entry exists for the key (its content unchecked)."""
        return self._path(key).exists()

    def get(self, key: str) -> Optional[List[FrameTrace]]:
        """Cached traces for a key, or None (corrupt entries quarantined)."""
        path = self._path(key)
        if not path.exists():
            return None
        with cachefile.file_lock(path):
            return cachefile.load_or_quarantine(path)

    def put(self, key: str, traces: List[FrameTrace]) -> None:
        """Store traces under a key (atomic, checksummed)."""
        path = self._path(key)
        with cachefile.file_lock(path):
            cachefile.write_cache(traces, path)

    def get_or_build(self, key: str, builder: TraceBuilder,
                     num_frames: int, start: int = 0) -> List[FrameTrace]:
        """Fetch cached traces or build and cache them.

        An entry serves the request only when its first ``num_frames``
        traces are frames ``start, start + 1, ...``; otherwise it is
        rebuilt.  (A frame's trace depends on the frame before it through
        transaction elimination, so frames of a build that started
        earlier are not interchangeable either.)

        Holds the entry's advisory lock across the check-build-store
        sequence, so of two concurrent processes racing on the same key
        one builds and the other waits and reads the fresh entry.
        """
        path = self._path(key)
        wanted = list(range(start, start + num_frames))
        with cachefile.file_lock(path):
            cached = cachefile.load_or_quarantine(path)
            if cached is not None and [
                    trace.frame_index
                    for trace in cached[:num_frames]] == wanted:
                return cached[:num_frames]
            traces = builder.build_many(num_frames, start=start)
            cachefile.write_cache(traces, path)
        return traces
