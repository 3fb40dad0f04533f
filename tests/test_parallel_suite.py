"""Tests for the parallel suite executor (``run_suite(workers=N)``).

``workers > 1`` runs every pair in a monitored forked child under
:class:`repro.supervision.Supervisor`.  It must keep the sequential
sweep's outcome order, per-pair retry policy, failure isolation and
``skipped`` reporting for unknown names, and add what the in-process
path cannot: deadline preemption of a stuck worker and recovery from a
worker that is killed outright.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro import harness
from repro.cli import main
from repro.errors import (BenchmarkTimeoutError, CacheCorruptionError,
                          ConfigValidationError, SimulationError)

from faults import ScriptedRunner, sleepy_runner

KNOWN = ["CCS", "GDL", "SuS", "AAt"]

def _outcome_key(outcome):
    return (outcome.benchmark, outcome.kind, outcome.status,
            outcome.error_type, outcome.attempts, outcome.provenance,
            None if outcome.summary is None
            else outcome.summary.total_cycles)


def _sigkill_self(benchmark):
    os.kill(os.getpid(), signal.SIGKILL)


class FailOnceRunner:
    """Applies a fault to each scripted benchmark's first attempt only.

    Every supervised retry is a fresh fork of the parent, so whether a
    pair already failed is kept in flag files under ``flag_dir``, not
    in the runner's memory.  ``script`` maps a benchmark to a callable
    that raises or kills the worker.
    """

    def __init__(self, flag_dir: Path, script: dict):
        self.flag_dir = flag_dir
        self.script = script

    def __call__(self, benchmark, kind, frames=1, **kw):
        fault = self.script.get(benchmark)
        flag = self.flag_dir / f"{benchmark}-{kind}.failed"
        if fault is not None and not flag.exists():
            flag.write_text("failed once")
            fault(benchmark)
        return ScriptedRunner({})(benchmark, kind, frames)


class TestParallelMatchesSequential:
    def test_same_outcomes_with_injected_fault(self):
        """The acceptance scenario: one benchmark fails terminally; the
        parallel report is outcome-for-outcome equal to sequential."""
        script = {"GDL": [SimulationError] * 5}
        sequential = harness.run_suite(
            KNOWN, frames=1, runner=ScriptedRunner(script),
            known_benchmarks=KNOWN)
        parallel = harness.run_suite(
            KNOWN, frames=1, runner=ScriptedRunner(script),
            known_benchmarks=KNOWN, workers=2)
        assert [_outcome_key(o) for o in parallel.outcomes] \
            == [_outcome_key(o) for o in sequential.outcomes]
        assert [o.benchmark for o in parallel.failed] == ["GDL"]
        assert len(parallel.succeeded) == 3

    def test_transient_fault_retried_inside_worker(self, tmp_path):
        def corrupt(benchmark):
            raise CacheCorruptionError(f"injected for {benchmark}")

        report = harness.run_suite(
            ["CCS"], frames=1, runner=FailOnceRunner(tmp_path,
                                                     {"CCS": corrupt}),
            known_benchmarks=KNOWN, workers=2, backoff_s=0.01)
        [outcome] = report.outcomes
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.provenance == "degraded"

    def test_unknown_benchmark_skipped_in_order(self):
        report = harness.run_suite(
            ["CCS", "NOPE", "GDL"], frames=1, runner=ScriptedRunner({}),
            known_benchmarks=KNOWN, workers=3)
        assert [(o.benchmark, o.status) for o in report.outcomes] \
            == [("CCS", "ok"), ("NOPE", "skipped"), ("GDL", "ok")]
        assert "valid:" in report.outcomes[1].error

    def test_multiple_kinds_preserve_pair_order(self):
        report = harness.run_suite(
            ["CCS", "GDL"], kinds=("libra", "ptr"), frames=1,
            runner=ScriptedRunner({}), known_benchmarks=KNOWN, workers=4)
        assert [(o.benchmark, o.kind) for o in report.outcomes] == [
            ("CCS", "libra"), ("CCS", "ptr"),
            ("GDL", "libra"), ("GDL", "ptr")]


class TestWorkerIsolation:
    def test_timeout_fires_inside_worker(self):
        """The supervisor preempts each stuck worker at its deadline
        without stalling its sibling."""
        report = harness.run_suite(
            ["CCS", "GDL"], frames=1, timeout_s=0.2, max_attempts=1,
            runner=sleepy_runner(30.0), known_benchmarks=KNOWN,
            workers=2)
        assert len(report.failed) == 2
        for outcome in report.outcomes:
            assert outcome.error_type \
                == BenchmarkTimeoutError.__name__
            assert outcome.preemptions == 1
            assert outcome.elapsed_s < 10.0

    def test_no_timeout_means_no_deadline(self):
        """Without ``timeout_s`` a slow pair launched after several
        instant ones (result-cache hits next to a cold trace build) is
        not preempted at a deadline derived from their durations."""
        names = KNOWN + ["AmU"]

        def runner(benchmark, kind, frames=1, **kw):
            if benchmark == "AmU":
                time.sleep(1.0)
            return ScriptedRunner({})(benchmark, kind, frames)

        report = harness.run_suite(names, frames=1, runner=runner,
                                   known_benchmarks=names, workers=2)
        assert [(o.benchmark, o.status, o.preemptions)
                for o in report.outcomes] == [(b, "ok", 0) for b in names]

    def test_closure_runner_works(self):
        """Fork hands the runner to the worker without pickling it."""
        seen = []

        def local_runner(benchmark, kind, frames=1, **kw):
            seen.append(benchmark)  # lands in the child's copy only
            return ScriptedRunner({})(benchmark, kind, frames)

        report = harness.run_suite(
            ["CCS"], frames=1, runner=local_runner,
            known_benchmarks=KNOWN, workers=2)
        [outcome] = report.outcomes
        assert outcome.ok and outcome.provenance == "completed"
        assert seen == []

    def test_killed_worker_retried_as_degraded(self, tmp_path):
        """A worker SIGKILLed mid-pair (an OOM kill, say) costs one
        retry of that pair; its siblings complete untouched."""
        report = harness.run_suite(
            ["CCS", "GDL", "SuS"], frames=1,
            runner=FailOnceRunner(tmp_path, {"GDL": _sigkill_self}),
            known_benchmarks=KNOWN, workers=2, backoff_s=0.01)
        assert [(o.benchmark, o.status, o.provenance, o.attempts)
                for o in report.outcomes] == [
            ("CCS", "ok", "completed", 1),
            ("GDL", "ok", "degraded", 2),
            ("SuS", "ok", "completed", 1)]


class TestValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigValidationError):
            harness.run_suite(["CCS"], workers=0,
                              runner=ScriptedRunner({}),
                              known_benchmarks=KNOWN)

    def test_workers_one_stays_sequential(self):
        runner = ScriptedRunner({})
        report = harness.run_suite(["CCS", "GDL"], frames=1,
                                   runner=runner,
                                   known_benchmarks=KNOWN, workers=1)
        # Sequential mode shares the parent's runner instance, so its
        # call log is visible — forked workers cannot offer this.
        assert runner.calls == [("CCS", "libra"), ("GDL", "libra")]
        assert len(report.succeeded) == 2


class TestCLI:
    def test_workers_flag_passed_through(self, monkeypatch, capsys):
        seen = {}

        def fake_run_suite(names, kinds, frames, timeout_s,
                           max_attempts, workers):
            seen.update(names=list(names), kinds=tuple(kinds),
                        frames=frames, workers=workers)
            return harness.SuiteReport()

        monkeypatch.setattr(harness, "run_suite", fake_run_suite)
        code = main(["suite", "--benchmarks", "CCS,GDL",
                     "--workers", "3", "--frames", "2"])
        assert code == 0
        assert seen["workers"] == 3
        assert seen["names"] == ["CCS", "GDL"]

    def test_invalid_workers_exits_2(self, capsys):
        assert main(["suite", "--benchmarks", "CCS",
                     "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
