"""Tests for the parallel suite executor (``run_suite(workers=N)``).

``workers > 1`` runs every pair in a monitored forked child under
:class:`repro.supervision.Supervisor`.  It must keep the sequential
sweep's outcome order, per-pair retry policy, failure isolation and
rejection of unknown names, and add what the in-process path cannot:
deadline preemption of a stuck worker and recovery from a worker that
is killed outright.  Faults are scripted by patching
``engine.execute_point``; forked workers inherit the patch.
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
from repro.experiments import ExperimentSpec, SweepResult, engine

from faults import ScriptedRunner, sleepy_runner

KNOWN = ["CCS", "GDL", "SuS", "AAt"]

#: The suite loads every benchmark's traces before running its points,
#: scripted or not, so the tests run at a geometry that builds fast.
SMALL = dict(frames=1, width=128, height=64)


@pytest.fixture(autouse=True)
def suite_cache(tmp_path, monkeypatch):
    """A private cache directory, so no test resumes another's store."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def _script(monkeypatch, runner):
    monkeypatch.setattr(engine, "execute_point", runner)
    return runner


def _outcome_key(outcome):
    return (outcome.point.benchmark, outcome.point.kind, outcome.status,
            outcome.error_type, outcome.attempts, outcome.provenance,
            None if outcome.summary is None
            else outcome.summary.total_cycles)


def _sigkill_self(benchmark):
    os.kill(os.getpid(), signal.SIGKILL)


class FailOnceRunner:
    """Applies a fault to each scripted benchmark's first attempt only.

    A worker killed by the fault takes its memory with it, so whether a
    pair already failed is kept in flag files under ``flag_dir``, not
    in the runner's memory.  ``script`` maps a benchmark to a callable
    that raises or kills the worker.
    """

    def __init__(self, flag_dir: Path, script: dict):
        self.flag_dir = flag_dir
        self.script = script

    def __call__(self, point):
        fault = self.script.get(point.benchmark)
        flag = self.flag_dir / f"{point.benchmark}-{point.kind}.failed"
        if fault is not None and not flag.exists():
            flag.write_text("failed once")
            fault(point.benchmark)
        return ScriptedRunner({})(point)


class TestParallelMatchesSequential:
    def test_same_outcomes_with_injected_fault(self, tmp_path,
                                               monkeypatch):
        """The acceptance scenario: one benchmark fails terminally; the
        parallel result is outcome-for-outcome equal to sequential."""
        script = {"GDL": [SimulationError] * 5}
        _script(monkeypatch, ScriptedRunner(script))
        sequential = harness.run_suite(KNOWN, **SMALL)
        # A second store, or the parallel run would resume the first.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "parallel"))
        _script(monkeypatch, ScriptedRunner(script))
        parallel = harness.run_suite(KNOWN, workers=2, **SMALL)
        assert [_outcome_key(o) for o in parallel.outcomes] \
            == [_outcome_key(o) for o in sequential.outcomes]
        assert [o.point.benchmark for o in parallel.failed] == ["GDL"]
        assert len(parallel.completed) == 3

    def test_transient_fault_retried_inside_worker(self, tmp_path,
                                                   monkeypatch):
        def corrupt(benchmark):
            raise CacheCorruptionError(f"injected for {benchmark}")

        _script(monkeypatch, FailOnceRunner(tmp_path, {"CCS": corrupt}))
        result = harness.run_suite(["CCS"], workers=2, backoff_s=0.01,
                                   **SMALL)
        [outcome] = result.outcomes
        assert outcome.ok
        assert outcome.attempts == 2
        assert outcome.provenance == "degraded"

    def test_unknown_benchmark_skipped_in_order(self, tmp_path,
                                                monkeypatch):
        """An unknown name is rejected with the valid ones before any
        pair runs, so no known pair is reported without its siblings."""
        runner = _script(monkeypatch, ScriptedRunner({}))
        with pytest.raises(ConfigValidationError, match="valid:"):
            harness.run_suite(["CCS", "NOPE", "GDL"], workers=3, **SMALL)
        assert runner.calls == []
        assert not list((tmp_path / "cache").glob("suite-*"))

    def test_multiple_kinds_preserve_pair_order(self, monkeypatch):
        _script(monkeypatch, ScriptedRunner({}))
        result = harness.run_suite(["CCS", "GDL"], kinds=("libra", "ptr"),
                                   workers=4, **SMALL)
        assert [(o.point.benchmark, o.point.kind)
                for o in result.outcomes] == [
            ("CCS", "libra"), ("CCS", "ptr"),
            ("GDL", "libra"), ("GDL", "ptr")]


class TestWorkerIsolation:
    def test_timeout_fires_inside_worker(self, monkeypatch):
        """The supervisor preempts each stuck worker at its deadline
        without stalling its sibling."""
        _script(monkeypatch, sleepy_runner(30.0))
        result = harness.run_suite(["CCS", "GDL"], timeout_s=0.2,
                                   max_attempts=1, workers=2, **SMALL)
        assert len(result.failed) == 2
        for outcome in result.outcomes:
            assert outcome.error_type \
                == BenchmarkTimeoutError.__name__
            assert outcome.preemptions == 1
            assert outcome.elapsed_s < 10.0

    def test_no_timeout_means_no_deadline(self, monkeypatch):
        """Without ``timeout_s`` a slow pair launched after several
        instant ones (stored results next to a cold trace build) is
        not preempted at a deadline derived from their durations."""
        names = KNOWN + ["AmU"]

        def runner(point):
            if point.benchmark == "AmU":
                time.sleep(1.0)
            return ScriptedRunner({})(point)

        _script(monkeypatch, runner)
        result = harness.run_suite(names, workers=2, **SMALL)
        assert [(o.point.benchmark, o.status, o.preemptions)
                for o in result.outcomes] == [(b, "ok", 0) for b in names]

    def test_closure_runner_works(self, monkeypatch):
        """Fork hands the patched runner to the worker without pickling."""
        seen = []

        def local_runner(point):
            seen.append(point.benchmark)  # lands in the child's copy only
            return ScriptedRunner({})(point)

        _script(monkeypatch, local_runner)
        result = harness.run_suite(["CCS"], workers=2, **SMALL)
        [outcome] = result.outcomes
        assert outcome.ok and outcome.provenance == "completed"
        assert seen == []

    def test_killed_worker_retried_as_degraded(self, tmp_path,
                                               monkeypatch):
        """A worker SIGKILLed mid-pair (an OOM kill, say) costs one
        retry of that pair; its siblings complete untouched."""
        _script(monkeypatch,
                FailOnceRunner(tmp_path, {"GDL": _sigkill_self}))
        result = harness.run_suite(["CCS", "GDL", "SuS"], workers=2,
                                   backoff_s=0.01, **SMALL)
        assert [(o.point.benchmark, o.status, o.provenance, o.attempts)
                for o in result.outcomes] == [
            ("CCS", "ok", "completed", 1),
            ("GDL", "ok", "degraded", 2),
            ("SuS", "ok", "completed", 1)]


class TestValidation:
    def test_zero_workers_rejected(self, monkeypatch):
        _script(monkeypatch, ScriptedRunner({}))
        with pytest.raises(ConfigValidationError):
            harness.run_suite(["CCS"], workers=0, **SMALL)

    def test_workers_one_stays_sequential(self, monkeypatch):
        runner = _script(monkeypatch, ScriptedRunner({}))
        result = harness.run_suite(["CCS", "GDL"], workers=1, **SMALL)
        # Sequential mode calls the parent's runner instance, so its
        # call log is visible — forked workers cannot offer this.
        assert runner.calls == [("CCS", "libra"), ("GDL", "libra")]
        assert len(result.completed) == 2


class TestCLI:
    def test_workers_flag_passed_through(self, monkeypatch, capsys):
        seen = {}

        def fake_run_suite(names, kinds, frames, width, height, timeout_s,
                           max_attempts, workers):
            seen.update(names=list(names), kinds=tuple(kinds),
                        frames=frames, workers=workers)
            spec = ExperimentSpec(name="suite", benchmarks=list(names),
                                  kinds=list(kinds),
                                  baseline_kind=kinds[0])
            return SweepResult(spec=spec, store_root=Path("unused"))

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
