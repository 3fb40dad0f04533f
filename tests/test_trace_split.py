"""The two-process trace build.

``TraceBuilder.build_from_scene`` forks a helper per frame that renders
the second half of the frame's tiles (``_render_split`` in
``repro.workloads.traces``).  These tests hold it to its contract:

* traces built with the helper equal the single-process traces, field
  by field and byte for byte in the trace cache;
* nothing forks where the helper is not allowed;
* a failing helper costs a warning, not a wrong trace;
* no helper outlives its build, whatever the parent raises.

Every case wraps ``os.fork`` and checks what it returned, so that a
helper that silently never forked cannot turn an equality test into a
comparison of the single-process build with itself.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import sys
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

from repro import cachefile
from repro.errors import BenchmarkTimeoutError
from repro.geometry import DrawCall, ShaderProfile, quad_mesh
from repro.geometry.vecmath import orthographic
from repro.raster.pipeline import RasterPipeline
from repro.supervision import _wall_clock_limit
from repro.workloads import get_params
from repro.workloads import traces as traces_module
from repro.workloads.scene import Scene, SceneBuilder
from repro.workloads.traces import TraceBuilder, _split_at

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the helper forks only on Linux")

LOGGER = "repro.workloads.traces"


@pytest.fixture
def forks(monkeypatch):
    """The pids ``os.fork`` returned to this process during the test."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def _cpus(monkeypatch, count):
    """Make the CPU check see ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _builder(name, width=256, height=128, tile_size=32):
    return TraceBuilder(SceneBuilder(get_params(name), width, height),
                        width, height, tile_size)


def _sha(traces, tmp_path):
    path = tmp_path / "traces.pkl"
    cachefile.write_cache(traces, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_field(a, b, name, where):
    x, y = getattr(a, name), getattr(b, name)
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        assert x.dtype == y.dtype == np.int64, (where, name)
        assert np.array_equal(x, y), (where, name)
    else:
        assert x == y, (where, name)


def _assert_same_traces(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        where = f"frame {b.frame_index}"
        for f in fields(b):
            if f.name != "workloads":
                _assert_field(a, b, f.name, where)
        assert list(a.workloads) == list(b.workloads), where
        for tile, workload in b.workloads.items():
            for f in fields(workload):
                _assert_field(a.workloads[tile], workload, f.name,
                              (where, tile))


def _single_process(monkeypatch, build):
    """``build()`` with the CPU check seeing one CPU."""
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        return build()


class TestSameTraces:
    """(a) The helper changes no field and no byte of a trace."""

    @pytest.mark.parametrize("name, width, height, tile_size", [
        ("GrT", 256, 128, 32),
        ("CCS", 256, 128, 32),
        ("GDL", 256, 128, 32),
        ("tri_overlap", 256, 128, 32),
        # 15-pixel tiles: odd origins and tiles clipped at both edges.
        ("GrT", 250, 100, 15),
    ])
    def test_split_equals_single_process(self, monkeypatch, tmp_path,
                                         forks, name, width, height,
                                         tile_size):
        frames = 3
        _cpus(monkeypatch, 2)
        split = _builder(name, width, height, tile_size).build_many(frames)
        assert len(forks) == frames
        _assert_reaped(forks)
        single = _single_process(
            monkeypatch,
            lambda: _builder(name, width, height,
                             tile_size).build_many(frames))
        assert len(forks) == frames
        _assert_same_traces(split, single)
        assert _sha(split, tmp_path) == _sha(single, tmp_path)

    def test_cut_balances_pairs(self, monkeypatch):
        _cpus(monkeypatch, 2)
        items = [((0, 0), [None] * 10), ((1, 0), [None]),
                 ((2, 0), [None] * 9)]
        assert _split_at(items) == 1
        items = [((0, 0), [None] * 3), ((1, 0), [None] * 3),
                 ((2, 0), [None] * 3), ((3, 0), [None] * 30)]
        assert _split_at(items) == 3
        assert _split_at([((0, 0), [None]), ((1, 0), [None])]) == 1


CAMERA = orthographic(0.0, 128.0, 0.0, 128.0, -10.0, 10.0)


def _sprites(*rects):
    return Scene(draws=[DrawCall(mesh=quad_mesh(*rect), texture_id=0,
                                 shader=ShaderProfile(texture_fetches=1))
                        for rect in rects],
                 view_projection=CAMERA)


class TestNoFork:
    """(b) Nothing forks where the helper is not allowed."""

    def _build(self, scene):
        return _builder("GDL", 128, 128).build_from_scene(scene, 0)

    def test_two_busy_tiles_fork(self, monkeypatch, forks):
        # The control for the two cases below.
        _cpus(monkeypatch, 2)
        self._build(_sprites((4, 4, 8, 8), (100, 100, 8, 8)))
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_one_busy_tile(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        trace = self._build(_sprites((36, 36, 8, 8)))
        assert sum(w.num_primitives > 0
                   for w in trace.workloads.values()) == 1
        assert not forks

    def test_empty_frame(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        trace = self._build(_sprites())
        assert len(trace.workloads) == 16
        assert not forks

    def test_second_thread_alive(self, monkeypatch, forks, tmp_path):
        _cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            threaded = _builder("GrT").build_many(2)
        finally:
            stop.set()
            thread.join()
        assert not forks
        split = _builder("GrT").build_many(2)
        assert len(forks) == 2
        _assert_reaped(forks)
        assert _sha(threaded, tmp_path) == _sha(split, tmp_path)


def _patch_in_helper(monkeypatch, replacement):
    """Route ``RasterPipeline.process_tiles`` to ``replacement(original,
    raster, items)`` in any process but this one."""
    parent = os.getpid()
    original = RasterPipeline.process_tiles

    def process_tiles(self, items):
        if os.getpid() == parent:
            return original(self, items)
        return replacement(original, self, items)

    monkeypatch.setattr(RasterPipeline, "process_tiles", process_tiles)


class TestFailingHelper:
    """(c) A failing helper costs one warning, not a wrong trace."""

    def _check(self, monkeypatch, tmp_path, forks, caplog):
        single = _single_process(
            monkeypatch, lambda: _builder("GrT").build_many(1))
        _cpus(monkeypatch, 2)
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            split = _builder("GrT").build_many(1)
        assert len(forks) == 1
        _assert_reaped(forks)
        warnings = [r for r in caplog.records if r.name == LOGGER]
        assert len(warnings) == 1, warnings
        _assert_same_traces(split, single)
        assert _sha(split, tmp_path) == _sha(single, tmp_path)
        return warnings[0].getMessage()

    def test_helper_raises(self, monkeypatch, tmp_path, forks, caplog):
        def fail(original, raster, items):
            raise RuntimeError("helper failure")

        _patch_in_helper(monkeypatch, fail)
        assert "exited with status 1" in self._check(
            monkeypatch, tmp_path, forks, caplog)

    def test_fork_fails(self, monkeypatch, tmp_path, caplog):
        # A process limit reached: the frame renders in one process.
        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource unavailable")

        single = _single_process(
            monkeypatch, lambda: _builder("GrT").build_many(1))
        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        open_fds = len(os.listdir("/proc/self/fd"))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            split = _builder("GrT").build_many(1)
        assert len(os.listdir("/proc/self/fd")) == open_fds
        warnings = [r for r in caplog.records if r.name == LOGGER]
        assert len(warnings) == 1
        assert "could not fork" in warnings[0].getMessage()
        assert _sha(split, tmp_path) == _sha(single, tmp_path)

    def test_helper_sends_part_of_its_half(self, monkeypatch, tmp_path,
                                           forks, caplog):
        def short(original, raster, items):
            return iter(list(original(raster, items))[:-1])

        _patch_in_helper(monkeypatch, short)
        assert "incomplete payload" in self._check(
            monkeypatch, tmp_path, forks, caplog)


class TestParentFailure:
    """(d) What the parent raises mid-frame propagates, and the helper
    is gone before it does."""

    def test_exception_in_parent_mid_frame(self, monkeypatch, forks):
        _cpus(monkeypatch, 2)
        calls = []
        signature = traces_module._tile_signature

        def failing_signature(measured):
            calls.append(1)
            if len(calls) == 3:
                raise RuntimeError("parent failure")
            return signature(measured)

        monkeypatch.setattr(traces_module, "_tile_signature",
                            failing_signature)
        with pytest.raises(RuntimeError, match="parent failure"):
            _builder("GrT").build_many(1)
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_timeout_while_waiting_on_the_pipe(self, monkeypatch, forks):
        # The in-process sweep's SIGALRM budget fires while the parent
        # waits for a helper that is still rendering.
        def slow(original, raster, items):
            time.sleep(60)
            return original(raster, items)

        _cpus(monkeypatch, 2)
        _patch_in_helper(monkeypatch, slow)
        start = time.monotonic()
        with pytest.raises(BenchmarkTimeoutError):
            with _wall_clock_limit(0.5, "trace build"):
                _builder("GrT").build_many(1)
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        _assert_reaped(forks)
