"""Worker-lifecycle supervision: heartbeats, deadlines, breaker, timers.

Covers the :mod:`repro.supervision` building blocks in isolation plus
the :class:`Supervisor` event loop end to end against real forked
processes — crashes, hangs, blown deadlines, circuit breaking, worker
reuse and what a reused worker must not carry from one job to the
next — and the nesting fix of :func:`repro.supervision._wall_clock_limit`.
"""

import multiprocessing
import os
import random
import signal
import time
from pathlib import Path

import pytest

from repro import chaos, harness
from repro.cachefile import read_cache, write_cache
from repro.errors import BenchmarkTimeoutError
from repro.supervision import (AdaptiveDeadline, CircuitBreaker,
                               HeartbeatWriter, SupervisedJob,
                               SupervisionPolicy, Supervisor,
                               _wall_clock_limit, backoff_delay,
                               pause_heartbeat)
from repro import supervision
from repro.telemetry import HUB, RecordingSink


# -- job targets (module-level: executed inside forked workers) --------------

def _ok_job(value):
    return {"value": value, "pid": os.getpid()}


def _crash_job():
    os._exit(17)


def _hang_job():
    # A real hang: main thread stuck AND heartbeats silenced (a live
    # heartbeat thread would correctly mask a sleeping main thread).
    pause_heartbeat()
    time.sleep(600)


def _sleep_job(seconds):
    time.sleep(seconds)
    return "done"


def _flaky_job(flag_path):
    # Crash on the first invocation only (state via the filesystem —
    # worker memory dies with the worker).
    if not os.path.exists(flag_path):
        Path(flag_path).write_text("seen")
        os._exit(9)
    return "recovered"


def _raise_job():
    raise ValueError("deliberate")


def _unpicklable_job():
    return lambda: None


def _interrupt_job():
    raise KeyboardInterrupt


def _pause_heartbeat_job():
    pause_heartbeat()
    return {"pid": os.getpid()}


def _sleep_beating_job(seconds):
    time.sleep(seconds)
    beat = supervision._ACTIVE_HEARTBEAT
    return {"pid": os.getpid(),
            "beating": beat is not None and os.path.exists(beat.path)}


def _arm_corrupt_job():
    chaos.arm_cache_fault("corrupt")  # and write nothing
    return {"pid": os.getpid()}


def _cache_round_trip_job(path):
    write_cache({"cycles": 123}, path)
    return {"pid": os.getpid(), "read": read_cache(path)}


# -- heartbeats --------------------------------------------------------------

class TestHeartbeatWriter:
    def test_touches_file_repeatedly(self, tmp_path):
        path = tmp_path / "hb"
        writer = HeartbeatWriter(path, interval_s=0.01)
        writer.start()
        try:
            deadline = time.time() + 5
            while not path.exists() and time.time() < deadline:
                time.sleep(0.005)
            first = path.stat().st_mtime_ns
            deadline = time.time() + 5
            while (path.stat().st_mtime_ns == first
                   and time.time() < deadline):
                time.sleep(0.005)
            assert path.stat().st_mtime_ns != first
            assert not writer.degraded
        finally:
            writer.stop()

    def test_unwritable_destination_degrades_not_dies(self, tmp_path):
        # Missing parent directory => every write raises OSError, the
        # model for a read-only or full filesystem.  The writer must
        # flip to degraded and the owning thread/worker must survive.
        path = tmp_path / "no_such_dir" / "hb"
        writer = HeartbeatWriter(path, interval_s=0.01)
        writer.start()
        try:
            deadline = time.time() + 5
            while not writer.degraded and time.time() < deadline:
                time.sleep(0.005)
            assert writer.degraded
            assert writer.is_alive()
            assert not path.exists()
        finally:
            writer.stop()

    def test_pause_stops_beats(self, tmp_path):
        path = tmp_path / "hb"
        writer = HeartbeatWriter(path, interval_s=0.01)
        writer.start()
        try:
            deadline = time.time() + 5
            while not path.exists() and time.time() < deadline:
                time.sleep(0.005)
            writer.pause()
            time.sleep(0.05)
            frozen = path.stat().st_mtime_ns
            time.sleep(0.1)
            assert path.stat().st_mtime_ns == frozen
        finally:
            writer.stop()

    def test_pause_heartbeat_noop_outside_worker(self):
        pause_heartbeat()  # must not raise in the driver process


# -- retry backoff -----------------------------------------------------------

class TestBackoffDelay:
    def test_jitter_within_bounds_and_exponential(self):
        rng_state = supervision._JITTER.getstate()
        try:
            supervision._JITTER.seed(1234)
            for attempt in (1, 2, 3):
                base = 0.25 * (2 ** (attempt - 1))
                for _ in range(50):
                    delay = backoff_delay(0.25, attempt)
                    assert base <= delay <= base * 1.5
        finally:
            supervision._JITTER.setstate(rng_state)

    def test_jitter_actually_varies(self):
        rng_state = supervision._JITTER.getstate()
        try:
            supervision._JITTER.seed(99)
            delays = {backoff_delay(1.0, 1) for _ in range(20)}
            assert len(delays) > 1
        finally:
            supervision._JITTER.setstate(rng_state)


# -- adaptive deadlines ------------------------------------------------------

class TestAdaptiveDeadline:
    def test_no_information_no_deadline(self):
        assert AdaptiveDeadline().deadline_for(None) is None

    def test_explicit_timeout_is_floor(self):
        adaptive = AdaptiveDeadline(factor=4.0, min_samples=2)
        for duration in (0.01, 0.01, 0.01):
            adaptive.add(duration)
        # median * factor = 0.04 << timeout: the explicit budget wins.
        assert adaptive.deadline_for(30.0) == 30.0

    def test_median_extends_small_timeout(self):
        adaptive = AdaptiveDeadline(factor=4.0, min_samples=2,
                                    floor_s=0.0)
        for duration in (10.0, 12.0, 14.0):
            adaptive.add(duration)
        assert adaptive.deadline_for(5.0) == pytest.approx(48.0)

    def test_engages_only_after_min_samples(self):
        adaptive = AdaptiveDeadline(factor=4.0, min_samples=3)
        adaptive.add(10.0)
        adaptive.add(10.0)
        assert adaptive.deadline_for(None) is None
        adaptive.add(10.0)
        assert adaptive.deadline_for(None) == pytest.approx(40.0)

    def test_floor_protects_tiny_medians(self):
        adaptive = AdaptiveDeadline(factor=4.0, min_samples=1,
                                    floor_s=0.5)
        adaptive.add(0.001)
        assert adaptive.deadline_for(None) == 0.5

    def test_samples_are_kept_per_key(self):
        adaptive = AdaptiveDeadline(factor=4.0, min_samples=2,
                                    floor_s=0.0)
        for duration in (1.0, 1.0):
            adaptive.add(duration, "cheap|ptr")
        assert adaptive.deadline_for(None, "cheap|ptr") == 4.0
        assert adaptive.deadline_for(None, "heavy|ptr") is None


# -- circuit breaker ---------------------------------------------------------

class TestCircuitBreaker:
    def test_trips_at_threshold_and_short_circuits(self):
        breaker = CircuitBreaker(threshold=3, cooldown_s=300.0)
        assert breaker.allow("bm|libra")
        assert not breaker.record_failure("bm|libra", now=1.0)
        assert not breaker.record_failure("bm|libra", now=2.0)
        assert breaker.record_failure("bm|libra", now=3.0)  # trips
        assert breaker.state_of("bm|libra") == "open"
        assert not breaker.allow("bm|libra", now=4.0)
        assert breaker.allow("bm|baseline", now=4.0)  # other keys clean
        assert breaker.open_keys == ["bm|libra"]
        assert len(breaker.trip_log) == 1

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure("k", now=1.0)
        breaker.record_failure("k", now=2.0)
        breaker.record_success("k")
        assert not breaker.record_failure("k", now=3.0)
        assert breaker.state_of("k") == "closed"

    def test_half_open_admits_single_probe(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure("k", now=100.0)
        assert not breaker.allow("k", now=105.0)  # still cooling
        assert breaker.allow("k", now=111.0)      # the probe
        assert breaker.state_of("k") == "half_open"
        assert not breaker.allow("k", now=111.5)  # only one probe

    def test_half_open_probe_success_closes(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure("k", now=0.0)
        assert breaker.allow("k", now=20.0)
        breaker.record_success("k")
        assert breaker.state_of("k") == "closed"
        assert breaker.allow("k", now=20.5)
        assert breaker.allow("k", now=20.6)  # no probe throttle anymore

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown_s=10.0)
        breaker.record_failure("k", now=0.0)
        assert breaker.allow("k", now=20.0)
        assert breaker.record_failure("k", now=20.1)  # reopen = a trip
        assert breaker.state_of("k") == "open"
        assert not breaker.allow("k", now=21.0)
        assert breaker.allow("k", now=31.0)  # cooldown restarts

    def test_state_round_trip(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=50.0)
        breaker.record_failure("a", now=1.0)
        breaker.record_failure("a", now=2.0)
        breaker.record_failure("b", now=3.0)
        restored = CircuitBreaker.from_state(breaker.to_state(),
                                             threshold=2, cooldown_s=50.0)
        assert restored.state_of("a") == "open"
        assert restored.state_of("b") == "closed"
        assert not restored.allow("a", now=10.0)
        assert len(restored.trip_log) == 1

    def test_from_state_tolerates_garbage(self):
        for garbage in (None, [], {"cells": "nope"}, {"cells": {"k": 3}}):
            breaker = CircuitBreaker.from_state(garbage)
            assert breaker.allow("k")


# -- SIGALRM nesting (the _wall_clock_limit satellite fix) -------------------

class TestWallClockNesting:
    def test_inner_block_does_not_cancel_outer_budget(self):
        # Outer 0.5s budget; a quick inner 5s-limited block must give
        # the outer timer back, so the later slow section still trips
        # the *outer* limit.  Before the fix the inner block's exit
        # cancelled the outer timer and this hung until the sleep ended.
        with pytest.raises(BenchmarkTimeoutError, match="outer"):
            with _wall_clock_limit(0.5, "outer"):
                with _wall_clock_limit(5.0, "inner"):
                    time.sleep(0.05)
                time.sleep(2.0)

    def test_inner_timeout_still_fires(self):
        with _wall_clock_limit(5.0, "outer"):
            with pytest.raises(BenchmarkTimeoutError, match="inner"):
                with _wall_clock_limit(0.1, "inner"):
                    time.sleep(2.0)

    def test_expired_outer_fires_on_restore(self):
        # The outer budget runs out entirely inside the inner block;
        # restoring must re-arm with an epsilon so it fires promptly,
        # not silently never.
        with pytest.raises(BenchmarkTimeoutError, match="outer"):
            with _wall_clock_limit(0.1, "outer"):
                with _wall_clock_limit(5.0, "inner"):
                    time.sleep(0.4)
                time.sleep(5.0)
                signal.pause()  # pragma: no cover - alarm fires first

    def test_handler_and_timer_fully_restored(self):
        before_handler = signal.getsignal(signal.SIGALRM)
        with _wall_clock_limit(5.0, "outer"):
            pass
        assert signal.getsignal(signal.SIGALRM) is before_handler
        remaining, _ = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert remaining == 0.0


# -- the supervisor end to end -----------------------------------------------

def _policy(**overrides):
    defaults = dict(heartbeat_interval_s=0.02, hang_grace_s=0.4,
                    term_grace_s=0.3, poll_interval_s=0.02,
                    deadline_floor_s=30.0)
    defaults.update(overrides)
    return SupervisionPolicy(**defaults)


class TestSupervisor:
    def test_success_returns_result_with_completed_provenance(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("a", _ok_job, args=(41,)),
             SupervisedJob("b", _ok_job, args=(42,))], workers=2)
        assert [o.status for o in outcomes] == ["ok", "ok"]
        assert [o.result["value"] for o in outcomes] == [41, 42]
        assert all(o.provenance == "completed" for o in outcomes)
        # genuinely ran in worker processes, not the driver
        assert all(o.result["pid"] != os.getpid() for o in outcomes)

    def test_crashed_worker_is_detected_and_reported(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("boom", _crash_job)], max_attempts=1)
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert outcome.error_type == "WorkerCrashError"
        assert "17" in outcome.error

    def test_crash_is_retried_and_degraded(self, tmp_path):
        flag = tmp_path / "flag"
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("flaky", _flaky_job, args=(str(flag),))],
            max_attempts=2, backoff_s=0.01)
        (outcome,) = outcomes
        assert outcome.status == "ok"
        assert outcome.result == "recovered"
        assert outcome.attempts == 2
        assert outcome.provenance == "degraded"

    def test_hung_worker_is_preempted(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("frozen", _hang_job)], max_attempts=1)
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert outcome.error_type == "WorkerHungError"
        assert outcome.preemptions == 1

    def test_deadline_preempts_and_does_not_retry(self):
        start = time.monotonic()
        outcomes = Supervisor(_policy(deadline_floor_s=0.5)).run(
            [SupervisedJob("slow", _sleep_job, args=(30.0,))],
            timeout_s=0.4, max_attempts=3)
        (outcome,) = outcomes
        assert time.monotonic() - start < 15.0
        assert outcome.status == "failed"
        assert outcome.error_type == "BenchmarkTimeoutError"
        assert outcome.attempts == 1  # deadline blowouts are terminal
        assert outcome.preemptions == 1

    def test_worker_exception_travels_back(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("raise", _raise_job)], max_attempts=2)
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert outcome.error_type == "SimulationError"
        assert "deliberate" in outcome.error
        assert outcome.attempts == 1  # non-transient: no retry

    def test_unpicklable_result_fails_cleanly(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("lambda", _unpicklable_job)], max_attempts=1)
        (outcome,) = outcomes
        assert outcome.status == "failed"
        assert "serialize" in outcome.error

    def test_breaker_trips_and_quarantines_followers(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=600.0)
        jobs = [SupervisedJob(f"c{i}", _crash_job, breaker_key="bm|bad")
                for i in range(4)]
        outcomes = Supervisor(_policy(), breaker=breaker).run(
            jobs, max_attempts=1, workers=1)
        statuses = [o.status for o in outcomes]
        assert statuses[:2] == ["failed", "failed"]
        assert statuses[2:] == ["tripped", "tripped"]
        tripped = outcomes[2]
        assert tripped.error_type == "CircuitOpenError"
        assert tripped.provenance == "tripped"
        assert tripped.attempts == 0
        assert breaker.state_of("bm|bad") == "open"

    def test_unwritable_heartbeat_root_degrades_to_deadline_only(
            self, tmp_path):
        # Point the heartbeat files at a directory that cannot exist:
        # workers lose heartbeats (read-only/full filesystem model) but
        # jobs still run, and monitoring degrades to deadlines only.
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory should be")
        policy = _policy(heartbeat_root=blocker / "hb")
        outcomes = Supervisor(policy).run(
            [SupervisedJob("a", _ok_job, args=(7,))], timeout_s=30.0)
        (outcome,) = outcomes
        assert outcome.status == "ok"
        assert outcome.result["value"] == 7

    def test_empty_job_list(self):
        assert Supervisor(_policy()).run([]) == []

    def test_deadline_learns_per_breaker_key(self):
        # Cheap points of one combination must not set the deadline of
        # an expensive one: no timeout, default policy, so a median over
        # every job would preempt the heavy job at the 0.5 s floor.
        jobs = [SupervisedJob(f"cheap{i}", _sleep_job, args=(0.05,),
                              breaker_key="cheap|ptr") for i in range(3)]
        jobs.append(SupervisedJob("heavy", _sleep_job, args=(1.5,),
                                  breaker_key="heavy|ptr"))
        outcomes = Supervisor().run(jobs, workers=1)
        assert [(o.status, o.error_type, o.preemptions)
                for o in outcomes] == [("ok", None, 0)] * 4


# -- worker reuse and per-job isolation --------------------------------------

class TestWorkerLifecycle:
    def test_workers_are_forked_once_and_reused(self):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob(f"j{i}", _ok_job, args=(i,)) for i in range(6)],
            workers=2)
        assert [o.status for o in outcomes] == ["ok"] * 6
        assert len({o.result["pid"] for o in outcomes}) <= 2

    def test_crashed_worker_is_replaced(self):
        jobs = [SupervisedJob("a", _ok_job, args=(1,)),
                SupervisedJob("boom", _crash_job),
                SupervisedJob("b", _ok_job, args=(2,)),
                SupervisedJob("c", _ok_job, args=(3,))]
        outcomes = Supervisor(_policy()).run(jobs, workers=1,
                                             max_attempts=1)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok", "ok"]
        assert outcomes[1].error_type == "WorkerCrashError"
        assert outcomes[0].result["pid"] != outcomes[2].result["pid"]

    def test_paused_heartbeat_does_not_carry_over(self):
        policy = _policy()
        outcomes = Supervisor(policy).run(
            [SupervisedJob("pause", _pause_heartbeat_job),
             SupervisedJob("sleep", _sleep_beating_job,
                           args=(2 * policy.hang_grace_s,))], workers=1)
        first, second = outcomes
        assert first.result["pid"] == second.result["pid"]  # same worker
        assert (second.status, second.preemptions) == ("ok", 0)
        assert second.result["beating"]

    def test_armed_cache_fault_does_not_carry_over(self, tmp_path):
        outcomes = Supervisor(_policy()).run(
            [SupervisedJob("arm", _arm_corrupt_job),
             SupervisedJob("write", _cache_round_trip_job,
                           args=(str(tmp_path / "entry.pkl"),))],
            workers=1, max_attempts=1)
        first, second = outcomes
        assert second.status == "ok", second.error
        assert first.result["pid"] == second.result["pid"]  # same worker
        assert second.result["read"] == {"cycles": 123}

    def test_inherited_telemetry_stays_per_pair(self, tmp_path,
                                                monkeypatch):
        # The `repro suite --telemetry --workers N` shape: the driver's
        # hub is on, and four pairs share two workers.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        names = ["tri_overlap", "GDL"]
        for name in names:
            harness.get_traces(name, 2, 128, 64)
        HUB.metrics.reset()
        HUB.enable(RecordingSink())
        try:
            result = harness.run_suite(
                names, kinds=("baseline", "libra"), frames=2, width=128,
                height=64, workers=2)
        finally:
            HUB.disable()
            HUB.metrics.reset()
        assert len(result.completed) == 4
        assert [o.summary.telemetry["frames"] for o in result.outcomes] \
            == [2, 2, 2, 2]

    def test_no_worker_outlives_run(self):
        clean = Supervisor(_policy()).run(
            [SupervisedJob(f"ok{i}", _ok_job, args=(i,)) for i in range(4)],
            workers=2)
        assert all(o.ok for o in clean)
        assert multiprocessing.active_children() == []

        failed = Supervisor(_policy()).run(
            [SupervisedJob("raise", _raise_job),
             SupervisedJob("boom", _crash_job),
             SupervisedJob("raise2", _raise_job)],
            workers=2, max_attempts=1)
        assert [o.status for o in failed] == ["failed"] * 3
        assert multiprocessing.active_children() == []

        aborted = Supervisor(_policy()).run(
            [SupervisedJob("ok", _ok_job, args=(1,)),
             SupervisedJob("interrupt", _interrupt_job),
             SupervisedJob("late", _sleep_job, args=(30.0,)),
             SupervisedJob("never", _ok_job, args=(2,))], workers=2)
        assert aborted[1].error_type == "KeyboardInterrupt"
        assert aborted[3].status == "skipped"
        assert multiprocessing.active_children() == []


# -- workers kept across runs (``with supervisor:``) --------------------------

class TestKeptWorkers:
    def test_runs_share_one_worker(self):
        with Supervisor(_policy()) as supervisor:
            assert multiprocessing.active_children() == []  # lazy fork
            outcomes = [o for i in range(3) for o in supervisor.run(
                [SupervisedJob(f"j{i}", _ok_job, args=(i,))])]
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert len({o.result["pid"] for o in outcomes}) == 1
        assert multiprocessing.active_children() == []

    def test_crash_gets_a_fresh_fork_in_the_next_run(self):
        with Supervisor(_policy()) as supervisor:
            [first] = supervisor.run([SupervisedJob("a", _ok_job, args=(1,))])
            [crash] = supervisor.run([SupervisedJob("boom", _crash_job)],
                                     max_attempts=1)
            [third] = supervisor.run([SupervisedJob("b", _ok_job, args=(2,))])
        assert crash.error_type == "WorkerCrashError"
        assert third.ok
        assert third.result["pid"] != first.result["pid"]
        assert multiprocessing.active_children() == []

    def test_interrupted_run_does_not_poison_the_next(self):
        with Supervisor(_policy()) as supervisor:
            aborted = supervisor.run(
                [SupervisedJob("interrupt", _interrupt_job),
                 SupervisedJob("never", _ok_job, args=(1,))])
            [after] = supervisor.run([SupervisedJob("ok", _ok_job, args=(2,))])
        assert aborted[0].error_type == "KeyboardInterrupt"
        assert aborted[1].status == "skipped"
        assert (after.status, after.result["value"]) == ("ok", 2)
        assert multiprocessing.active_children() == []

    def test_unpicklable_job_fails_only_itself(self):
        with Supervisor(_policy()) as supervisor:
            bad, good = supervisor.run(
                [SupervisedJob("lambda", lambda: None),
                 SupervisedJob("ok", _ok_job, args=(3,))])
        assert bad.status == "failed"
        assert "serialize" in bad.error
        assert good.ok and good.result["value"] == 3
        assert multiprocessing.active_children() == []
