"""The forked trace prefetch of an in-process sweep.

``harness.prefetch_traces`` builds a grid's first trace set in the
driver and forks one process that builds the rest through
``harness.get_traces`` while the points run.  These tests hold it to
its contract:

* the trace-cache entries equal a driver-only build byte for byte;
* each trace set is built once across both processes: the driver waits
  on the entry's lock for a set in progress;
* nothing forks for a single trace set, under a supervisor, under a
  chaos plan or with a per-point timeout;
* the process is reaped after a driver ``KeyboardInterrupt``, a failing
  point and its own non-zero exit (then the driver builds the rest
  after one warning), and one stopped mid-build leaves no ``*.tmp``.

Every case records the pids the prefetch fork returned, so that a
prefetch that silently never forked cannot turn an equality test into
a comparison of the driver-only build with itself.
"""

from __future__ import annotations

import hashlib
import logging
import os
import sys
import time

import pytest

from repro import cachefile, chaos, harness
from repro.experiments import ExperimentSpec, run_sweep
from repro.experiments import engine
from repro.workloads.traces import TraceBuilder

pytestmark = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="the prefetch forks only on Linux")

LOGGER = "repro.harness"
KEYS = [("GDL", 1, 128, 64), ("CCS", 1, 128, 64), ("tri_overlap", 1, 128, 64)]


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """A fresh trace cache and an empty in-process trace memo."""
    path = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
    monkeypatch.setattr(harness, "_TRACE_MEMO", {})
    return path


@pytest.fixture
def forks(monkeypatch):
    """The pids the prefetch fork returned to this process."""
    pids = []
    fork = harness.quiet_fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(harness, "quiet_fork", recording_fork)
    return pids


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """``(pid, benchmark)`` of every trace build, in any process."""
    log = tmp_path / "builds.log"
    build_many = TraceBuilder.build_many

    def logging_build_many(self, num_frames, start=0):
        with open(log, "a") as handle:
            handle.write(f"{os.getpid()} {self.scenes.params.name}\n")
        return build_many(self, num_frames, start=start)

    monkeypatch.setattr(TraceBuilder, "build_many", logging_build_many)

    def read():
        if not log.exists():
            return []
        return [(int(pid), name) for pid, name
                in (line.split() for line in log.read_text().splitlines())]

    return read


def _cpus(monkeypatch, count):
    """Make the CPU check see ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _entries(directory):
    """SHA-256 of every trace-cache entry, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.glob("*.pkl")}


def _wait_for(condition, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def _state(pid):
    """The scheduler state letter of process ``pid`` (``Z``: exited,
    not yet reaped)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()[0]


def _driver_only(monkeypatch, tmp_path):
    """The entries of ``KEYS`` built by this process alone."""
    path = tmp_path / "driver-only"
    with monkeypatch.context() as patch:
        _cpus(patch, 1)
        patch.setenv("REPRO_CACHE_DIR", str(path))
        patch.setattr(harness, "_TRACE_MEMO", {})
        for key in KEYS:
            harness.get_traces(*key)
    return _entries(path)


def _spec(benchmarks, kinds=("baseline",)):
    return ExperimentSpec(name="prefetch", benchmarks=list(benchmarks),
                          kinds=list(kinds), frames=1, width=128,
                          height=64, backoff_s=0.0)


class TestSameEntries:
    """The prefetch changes no byte of a trace-cache entry."""

    def test_entries_equal_a_driver_only_build(self, monkeypatch, tmp_path,
                                               cache, forks, builds):
        _cpus(monkeypatch, 2)
        with harness.prefetch_traces(KEYS):
            assert len(forks) == 1
            # Let the prefetch build every set before asking for any.
            _wait_for(lambda: len(_entries(cache)) == len(KEYS))
            for key in KEYS:
                harness.get_traces(*key)
        _assert_reaped(forks)
        # The driver built the first set, the prefetch the others.
        assert builds() == [(os.getpid(), "GDL"), (forks[0], "CCS"),
                            (forks[0], "tri_overlap")]
        assert _entries(cache) == _driver_only(monkeypatch, tmp_path)
        assert not list(cache.glob("*.tmp"))

    def test_each_set_built_once(self, monkeypatch, cache, forks, builds):
        # The driver asks for every set at once: it waits for a set in
        # progress, and whichever process takes a lock first builds.
        _cpus(monkeypatch, 2)
        with harness.prefetch_traces(KEYS):
            traces = [harness.get_traces(*key) for key in KEYS]
        assert len(forks) == 1
        _assert_reaped(forks)
        assert sorted(name for _, name in builds()) == sorted(
            key[0] for key in KEYS)
        assert [len(t) for t in traces] == [1, 1, 1]

    def test_cached_sets_are_not_prefetched(self, monkeypatch, cache,
                                            forks, builds):
        _cpus(monkeypatch, 2)
        for key in KEYS:
            harness.get_traces(*key)
        monkeypatch.setattr(harness, "_TRACE_MEMO", {})
        with harness.prefetch_traces(KEYS):
            pass
        assert not forks
        assert len(builds()) == len(KEYS)


class TestNoFork:
    """Nothing forks where the prefetch is not wanted."""

    def test_in_process_sweep_forks_one(self, monkeypatch, cache, forks):
        # The control for the cases below.
        _cpus(monkeypatch, 2)
        result = run_sweep(_spec(["GDL", "CCS"]),
                           store_root=cache.parent / "store")
        assert len(result.completed) == 2
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_single_trace_set(self, monkeypatch, cache, forks):
        _cpus(monkeypatch, 2)
        result = run_sweep(_spec(["GDL"], kinds=("baseline", "ptr")),
                           store_root=cache.parent / "store")
        assert len(result.completed) == 2
        assert not forks

    def test_one_cpu(self, monkeypatch, cache, forks):
        _cpus(monkeypatch, 1)
        run_sweep(_spec(["GDL", "CCS"]), store_root=cache.parent / "store")
        assert not forks

    def test_supervised(self, monkeypatch, cache, forks):
        _cpus(monkeypatch, 2)
        result = run_sweep(_spec(["GDL", "CCS"]), workers=2,
                           store_root=cache.parent / "store")
        assert len(result.completed) == 2
        assert not forks

    def test_chaos_plan(self, monkeypatch, cache, forks):
        _cpus(monkeypatch, 2)
        with chaos.session(0, rate=0.0):
            result = run_sweep(_spec(["GDL", "CCS"]),
                               store_root=cache.parent / "store")
        assert len(result.completed) == 2
        assert not forks

    def test_per_point_timeout(self, monkeypatch, cache, forks):
        _cpus(monkeypatch, 2)
        result = run_sweep(_spec(["GDL", "CCS"]), timeout_s=120.0,
                           store_root=cache.parent / "store")
        assert len(result.completed) == 2
        assert not forks


class TestReaped:
    """The prefetch never outlives the block that forked it."""

    def _sweep(self, monkeypatch, cache):
        _cpus(monkeypatch, 2)
        return run_sweep(_spec([key[0] for key in KEYS]),
                         store_root=cache.parent / "store")

    def test_driver_keyboard_interrupt(self, monkeypatch, cache, forks):
        def interrupt(point):
            raise KeyboardInterrupt

        monkeypatch.setattr(engine, "execute_point", interrupt)
        result = self._sweep(monkeypatch, cache)
        assert [o.status for o in result.outcomes] == [
            "failed", "skipped", "skipped"]
        assert len(forks) == 1
        _assert_reaped(forks)
        assert not list(cache.glob("*.tmp"))

    def test_failing_point(self, monkeypatch, cache, forks):
        execute_point = engine.execute_point

        def fail_ccs(point):
            if point.benchmark == "CCS":
                raise ValueError("scripted failure")
            return execute_point(point)

        monkeypatch.setattr(engine, "execute_point", fail_ccs)
        result = self._sweep(monkeypatch, cache)
        assert [o.status for o in result.outcomes] == ["ok", "failed", "ok"]
        assert len(forks) == 1
        _assert_reaped(forks)

    def test_prefetch_exits_non_zero(self, monkeypatch, tmp_path, cache,
                                     forks, builds, caplog):
        monkeypatch.setattr(harness, "_prefetch_main",
                            lambda keys: os._exit(3))
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            result = self._sweep(monkeypatch, cache)
        assert len(result.completed) == 3
        assert len(forks) == 1
        _assert_reaped(forks)
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == LOGGER]
        assert len(warnings) == 1, warnings
        assert "exited with status 3" in warnings[0]
        # The driver built every set itself, each once.
        assert builds() == [(os.getpid(), key[0]) for key in KEYS]
        assert _entries(cache) == _driver_only(monkeypatch, tmp_path)

    def test_warning_comes_before_the_driver_builds(self, monkeypatch,
                                                    cache, forks, caplog):
        monkeypatch.setattr(harness, "_prefetch_main",
                            lambda keys: os._exit(3))
        _cpus(monkeypatch, 2)
        builds = []  # (benchmark, warnings logged before its build)
        build_many = TraceBuilder.build_many

        def noting_build_many(self, num_frames, start=0):
            builds.append((self.scenes.params.name, len(caplog.records)))
            return build_many(self, num_frames, start=start)

        monkeypatch.setattr(TraceBuilder, "build_many", noting_build_many)
        with caplog.at_level(logging.WARNING, logger=LOGGER):
            with harness.prefetch_traces(KEYS):
                (pid,) = forks
                _wait_for(lambda: _state(pid) == "Z")  # exited, unreaped
                for key in KEYS[1:]:
                    harness.get_traces(*key)
        _assert_reaped(forks)
        assert builds == [("GDL", 0), ("CCS", 1), ("tri_overlap", 1)]
        assert "exited with status 3" in caplog.records[0].getMessage()

    def test_stopped_mid_build_leaves_no_tmp(self, monkeypatch, cache,
                                             forks):
        # The prefetch stalls halfway through writing its first entry.
        driver = os.getpid()
        write = cachefile._DigestWriter.write

        def stalling_write(self, data):
            written = write(self, data)
            if os.getpid() != driver:
                time.sleep(60)
            return written

        monkeypatch.setattr(cachefile._DigestWriter, "write", stalling_write)
        _cpus(monkeypatch, 2)
        start = time.monotonic()
        with harness.prefetch_traces(KEYS):
            _wait_for(lambda: list(cache.glob("*.tmp")))
        assert time.monotonic() - start < 30
        assert len(forks) == 1
        _assert_reaped(forks)
        assert not list(cache.glob("*.tmp"))
        assert len(_entries(cache)) == 1  # the driver's first set
