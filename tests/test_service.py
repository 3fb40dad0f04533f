"""The distributed sweep service (repro.service).

Unit coverage for the wire schema, the durable job store, the progress
log and the lease queue, plus the acceptance scenarios from the service
design: an HTTP-submitted sweep executed by workers must produce a
matrix *bit-identical* to a local ``run_sweep``, a SIGKILLed worker's
point must be adopted by the next worker through lease expiry, and a
malformed spec must come back as HTTP 400 — never a stack trace.
"""

import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ConfigValidationError, ServiceError
from repro.experiments import (ArtifactStore, ExperimentSpec, SpeedupMatrix,
                               run_sweep, speedup_matrix)
from repro.experiments import engine
from repro.experiments.engine import store_breaker, sweep_result_from_store
from repro.service import (DEFAULT_LEASE_TTL_S, JobRecord, JobStore,
                           SweepClient, claim_point, job_id_for, run_worker)
from repro.service.fleet import (FleetReporter, job_progress, read_fleet,
                                 read_worker_status, worker_file_name)
from repro.service.jobs import TERMINAL_EVENTS
from repro.service.queue import read_lease
from repro.service.server import create_server
from repro.supervision import CircuitBreaker
from repro.telemetry.fleet_trace import PID_WORKER0, fleet_chrome_trace
from repro.telemetry.progress import ProgressLog

SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_spec(**overrides):
    """The fast 4-point 128x64 tri_overlap grid (shared test idiom)."""
    defaults = dict(name="tiny", benchmarks=["tri_overlap"],
                    kinds=["baseline", "libra"],
                    axes={"raster_units": [1, 2]},
                    frames=1, width=128, height=64)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def shared_cache_dir(tmp_path_factory):
    """One trace cache for the module; workers and sweeps share traces."""
    path = tmp_path_factory.mktemp("service_cache")
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture
def served(tmp_path):
    """A live in-process server on a free port over a fresh store."""
    server = create_server(tmp_path / "root", host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", JobStore(tmp_path / "root")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


# ---------------------------------------------------------------------------
# wire schema


class TestSchema:
    def test_job_id_is_content_addressed(self):
        assert job_id_for(tiny_spec()) == job_id_for(tiny_spec())
        assert job_id_for(tiny_spec()) != job_id_for(
            tiny_spec(axes={"raster_units": [1, 4]}))

    def test_job_id_ignores_execution_policy(self):
        # Same grid, different run policy: same job (resubmit resumes).
        assert job_id_for(tiny_spec()) == job_id_for(
            tiny_spec(timeout_s=99.0, retries=7))

    def test_job_id_slugs_hostile_names(self):
        jid = job_id_for(tiny_spec(name="fig 18 / dram?"))
        assert jid.startswith("fig-18-dram-")
        assert "/" not in jid and " " not in jid

    def test_record_roundtrip(self):
        record = JobRecord.create(tiny_spec(), point_telemetry=False)
        clone = JobRecord.from_dict(json.loads(
            json.dumps(record.to_dict())))
        assert clone == record
        assert clone.total_points == 4
        assert not clone.point_telemetry

    def test_from_dict_ignores_unknown_keys(self):
        data = JobRecord.create(tiny_spec()).to_dict()
        data["added_in_v1_9"] = {"x": 1}
        assert JobRecord.from_dict(data).job_id == data["job_id"]

    def test_from_dict_rejects_foreign_schema(self):
        data = JobRecord.create(tiny_spec()).to_dict()
        data["schema"] = "repro.job/v2"
        with pytest.raises(ConfigValidationError, match="schema"):
            JobRecord.from_dict(data)

    def test_from_dict_rejects_unknown_state(self):
        data = JobRecord.create(tiny_spec()).to_dict()
        data["state"] = "paused"
        with pytest.raises(ConfigValidationError, match="state"):
            JobRecord.from_dict(data)

    def test_from_dict_rejects_missing_fields(self):
        with pytest.raises(ConfigValidationError, match="spec"):
            JobRecord.from_dict({"job_id": "x", "fingerprint": "y"})

    def test_generation_pinned_at_submission(self):
        from repro.harness import RESULT_GENERATION
        assert JobRecord.create(tiny_spec()).generation \
            == RESULT_GENERATION


# ---------------------------------------------------------------------------
# progress log


class TestProgressLog:
    def test_emit_read_tail(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.emit("a", n=1)
        log.emit("b", n=2)
        events = log.read()
        assert [e["event"] for e in events] == ["a", "b"]
        assert events[0]["n"] == 1 and "ts" in events[0]

    def test_read_resumes_from_offset(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.emit("a")
        offset = log.path.stat().st_size
        log.emit("b")
        assert [e["event"] for e in log.read(offset=offset)] == ["b"]

    def test_torn_trailing_line_is_deferred(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = ProgressLog(path)
        log.emit("whole")
        with path.open("ab") as fh:  # a writer died mid-record
            fh.write(b'{"event": "torn"')
        assert [e["event"] for e in log.read()] == ["whole"]
        with path.open("ab") as fh:  # ...or was just slow: completes
            fh.write(b', "n": 3}\n')
        assert [e["event"] for e in log.read()] == ["whole", "torn"]

    def test_tail_stops_at_terminal_event(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.emit("point_done")
        log.emit("job_done")
        log.emit("after")
        seen = [e["event"] for e in
                log.tail(done_events=TERMINAL_EVENTS, timeout_s=5.0)]
        assert seen == ["point_done", "job_done"]

    def test_tail_is_exact_under_concurrent_writer(self, tmp_path):
        """Offset-resume must neither duplicate nor skip records while
        a writer keeps appending mid-read."""
        log = ProgressLog(tmp_path / "events.jsonl")
        total = 200

        def writer():
            appender = ProgressLog(log.path)
            for i in range(total):
                appender.emit("tick", n=i)
                if i % 20 == 0:  # let the tailer race a partial file
                    time.sleep(0.002)
            appender.emit("job_done")

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            seen = list(log.tail(done_events=TERMINAL_EVENTS,
                                 poll_s=0.001, timeout_s=30.0))
        finally:
            thread.join(timeout=30)
        assert [e["n"] for e in seen if e["event"] == "tick"] \
            == list(range(total))
        assert seen[-1]["event"] == "job_done"

    def test_tail_heartbeats_on_idle_stream(self, tmp_path):
        log = ProgressLog(tmp_path / "events.jsonl")
        log.emit("job_submitted")
        seen = list(log.tail(poll_s=0.01, timeout_s=0.5,
                             heartbeat_s=0.1))
        beats = [e for e in seen if e["event"] == "heartbeat"]
        assert seen[0]["event"] == "job_submitted"
        assert beats and all("ts" in b for b in beats)
        # Synthetic only: the file itself never grows a heartbeat line.
        assert all(e["event"] != "heartbeat" for e in log.read())


# ---------------------------------------------------------------------------
# job store


class TestJobStore:
    def test_submit_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        first = store.submit(tiny_spec())
        again = store.submit(tiny_spec())
        assert again.job_id == first.job_id
        assert again.submitted_at == first.submitted_at
        assert len(store.list_jobs()) == 1

    def test_requeue_clears_failures_and_stale_result(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(tiny_spec())
        sweep_store = store.sweep_store(record.job_id)
        sweep_store.record_point_failure("p1", error="boom",
                                         error_type="SimulationError")
        store.result_path(record.job_id).write_text("{}")

        def fail(rec):
            rec.state = "failed"
        store.update(record.job_id, fail)

        requeued = store.submit(tiny_spec())
        assert requeued.state == "queued" and requeued.error == ""
        assert sweep_store.load_point_failures() == {}
        assert not store.result_path(record.job_id).exists()
        events = [e["event"] for e in
                  store.events(record.job_id).read()]
        assert "job_requeued" in events

    def test_done_job_is_not_requeued(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(tiny_spec())

        def finish(rec):
            rec.state = "done"
        store.update(record.job_id, finish)
        assert store.submit(tiny_spec()).state == "done"

    def test_cancel_is_terminal_and_sticky(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(tiny_spec())
        assert store.cancel(record.job_id).state == "cancelled"
        assert store.cancel(record.job_id).state == "cancelled"
        events = [e["event"] for e in
                  store.events(record.job_id).read()]
        assert events.count("job_cancelled") == 1

    def test_counts_accounting(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        counts = store.counts(record.job_id, spec)
        assert counts == {"total": 4, "completed": 0, "failed": 0,
                          "leased": 0, "pending": 4}
        points = spec.expand()
        store.sweep_store(record.job_id).record_point_failure(
            points[0].point_id, error="x")
        claim = claim_point(store, record.job_id, spec, "w1")
        counts = store.counts(record.job_id, spec)
        assert counts["failed"] == 1 and counts["leased"] == 1
        assert counts["pending"] == 2
        claim.release()

    def test_corrupt_record_is_quarantined_not_fatal(self, tmp_path):
        store = JobStore(tmp_path)
        record = store.submit(tiny_spec())
        store.record_path(record.job_id).write_text("{not json")
        assert store.read(record.job_id) is None
        assert store.list_jobs() == []


# ---------------------------------------------------------------------------
# lease queue


class TestLeaseQueue:
    def test_claims_follow_expansion_order(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        claimed = []
        while True:
            claim = claim_point(store, record.job_id, spec, "w1")
            if claim is None:
                break
            claimed.append(claim.point.point_id)
        assert claimed == [p.point_id for p in spec.expand()]
        # Every point now leased: nothing left for a second worker.
        assert claim_point(store, record.job_id, spec, "w2") is None

    def test_each_point_id_is_hashed_once(self, tmp_path, monkeypatch):
        # Every claim rescans the grid from the start; the ids it reads
        # are computed once per point, not once per scan.
        spec = tiny_spec(axes={"raster_units": [1, 2, 4]})
        store = JobStore(tmp_path)
        record = store.submit(spec)
        points = spec.expand()
        assert len(points) == 6
        calls = []
        sha1 = hashlib.sha1

        def counting_sha1(*args, **kwargs):
            calls.append(args)
            return sha1(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha1", counting_sha1)
        claimed = [claim_point(store, record.job_id, spec, "w1",
                               points=points)
                   for _ in points]
        assert [c.point for c in claimed] == points
        assert len(calls) == 6

    def test_release_makes_point_claimable_again(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        claim = claim_point(store, record.job_id, spec, "w1")
        claim.release()
        again = claim_point(store, record.job_id, spec, "w2")
        assert again.point.point_id == claim.point.point_id
        assert again.adopted_from == ""  # released, not stale-stolen

    def test_stale_lease_is_adopted(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        claim = claim_point(store, record.job_id, spec, "doomed")
        pid = claim.point.point_id
        # Nobody renews the lease: age it past the TTL.
        old = time.time() - 10.0
        os.utime(claim.lease_path, (old, old))
        adopted = claim_point(store, record.job_id, spec, "rescuer",
                              lease_ttl_s=1.0)
        assert adopted.point.point_id == pid
        assert adopted.adopted_from == "doomed"
        assert read_lease(adopted.lease_path)["owner"] == "rescuer"
        events = store.events(record.job_id).read()
        adoptions = [e for e in events if e["event"] == "lease_adopted"]
        assert adoptions and adoptions[0]["previous_owner"] == "doomed"

    def test_claimed_lease_reads_back_and_is_adopted_once_stale(
            self, tmp_path, monkeypatch):
        # The claim writes its lease as every renewal rewrites it:
        # whole, through a temporary file, with no fsync.
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        fsyncs = []
        fsync = os.fsync

        def counting_fsync(fd):
            fsyncs.append(fd)
            fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        claim = claim_point(store, record.job_id, spec, "w1")
        assert fsyncs == []
        body = read_lease(claim.lease_path)
        assert body["owner"] == "w1" and body["pid"] == os.getpid()
        assert body["point_id"] == claim.point.point_id
        assert not list(claim.lease_path.parent.glob("*.tmp"))
        # Live, it is passed by; stale, it is adopted.
        other = claim_point(store, record.job_id, spec, "w2")
        assert other.point.point_id != claim.point.point_id
        other.release()
        old = time.time() - 10.0
        os.utime(claim.lease_path, (old, old))
        adopted = claim_point(store, record.job_id, spec, "w2",
                              lease_ttl_s=1.0)
        assert adopted.point.point_id == claim.point.point_id
        assert adopted.adopted_from == "w1"
        assert read_lease(adopted.lease_path)["owner"] == "w2"

    def test_fresh_lease_is_respected(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        first = claim_point(store, record.job_id, spec, "w1",
                            lease_ttl_s=30.0)
        second = claim_point(store, record.job_id, spec, "w2",
                             lease_ttl_s=30.0)
        assert second.point.point_id != first.point.point_id

    def test_renewer_keeps_lease_fresh(self, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        claim = claim_point(store, record.job_id, spec, "w1")
        renewer = claim.renewer(ttl_s=0.4)  # beats every 0.1s
        try:
            time.sleep(0.6)
            age = time.time() - claim.lease_path.stat().st_mtime
            assert age < 0.4, "renewal thread failed to beat"
        finally:
            renewer.stop()
        body = read_lease(claim.lease_path)
        assert body["owner"] == "w1" and body["pid"] == os.getpid()

    def test_renewal_never_exposes_a_torn_lease(self, tmp_path):
        """A beat replaces the lease whole.  A reader — or a SIGKILL —
        landing mid-renewal sees the old body or the new, never an
        empty file, which would make an adopter lose the owner."""
        spec = tiny_spec()
        store = JobStore(tmp_path)
        record = store.submit(spec)
        claim = claim_point(store, record.job_id, spec, "w1")
        renewer = claim.renewer(ttl_s=0.004)  # beats every 1ms
        try:
            deadline = time.time() + 0.5
            while time.time() < deadline:
                assert read_lease(claim.lease_path).get("owner") == "w1"
        finally:
            renewer.stop()


# ---------------------------------------------------------------------------
# store-rebuilt results


class TestStoreRebuiltResults:
    def test_matrix_dict_roundtrip_preserves_markdown(self,
                                                      shared_cache_dir,
                                                      tmp_path):
        result = run_sweep(tiny_spec(), store_root=tmp_path / "s")
        matrix = speedup_matrix(result)
        clone = SpeedupMatrix.from_dict(json.loads(
            json.dumps(matrix.to_dict())))
        assert clone.to_markdown() == matrix.to_markdown()
        assert clone.format() == matrix.format()

    def test_rebuild_matches_local_sweep(self, shared_cache_dir,
                                         tmp_path):
        spec = tiny_spec()
        local = run_sweep(spec, store_root=tmp_path / "s")
        rebuilt = sweep_result_from_store(spec, tmp_path / "s")
        assert speedup_matrix(rebuilt).to_markdown() \
            == speedup_matrix(local).to_markdown()

    def test_rebuild_rejects_foreign_store(self, shared_cache_dir,
                                           tmp_path):
        run_sweep(tiny_spec(), store_root=tmp_path / "s")
        other = tiny_spec(axes={"raster_units": [1, 4]})
        with pytest.raises(ConfigValidationError, match="fingerprint"):
            sweep_result_from_store(other, tmp_path / "s")


# ---------------------------------------------------------------------------
# HTTP service end to end


class TestServiceHTTP:
    def test_submit_worker_result_bit_identical_to_local(
            self, shared_cache_dir, served, tmp_path):
        url, store = served
        spec = tiny_spec()
        client = SweepClient(url)
        ping = client.ping()
        assert ping["schema"] == "repro.job/v1"
        assert ping["generation"] == JobRecord.create(spec).generation

        record = client.submit(spec)
        assert record.state == "queued" and record.total_points == 4
        # Resubmission lands on the same job, not a duplicate.
        assert client.submit(spec).job_id == record.job_id

        executed = run_worker(store.root, worker_id="w1", once=True,
                              lease_ttl_s=5.0)
        assert executed == 4

        final = client.wait(record.job_id, timeout_s=30.0)
        assert final.state == "done"
        served_matrix = client.result(record.job_id)
        local = speedup_matrix(
            run_sweep(spec, store_root=tmp_path / "local"))
        assert served_matrix.to_markdown() == local.to_markdown()
        # And the cached payload's markdown is the same bytes again.
        payload = client.result_payload(record.job_id)
        assert payload["markdown"] == local.to_markdown()
        assert payload["counts"]["completed"] == 4

        events = [e["event"] for e in
                  client.events(record.job_id, follow=False)]
        assert events[0] == "job_submitted"
        assert events.count("point_done") == 4
        assert events[-1] == "job_done"

    def test_malformed_spec_is_http_400_not_traceback(self, served):
        url, _ = served
        client = SweepClient(url)
        with pytest.raises(ServiceError) as excinfo:
            client.submit(tiny_spec(benchmarks=["no_such_bench"]))
        assert excinfo.value.status == 400
        assert "Traceback" not in str(excinfo.value)
        assert not excinfo.value.transient

        import urllib.request
        req = urllib.request.Request(f"{url}/v1/jobs",
                                     data=b"{not json",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400
        body = excinfo.value.read().decode()
        assert "Traceback" not in body
        assert "error" in json.loads(body)

    def test_unknown_job_is_404(self, served):
        url, _ = served
        with pytest.raises(ServiceError) as excinfo:
            SweepClient(url).status("no-such-job")
        assert excinfo.value.status == 404

    def test_result_before_completion_is_409(self, served):
        url, _ = served
        client = SweepClient(url)
        record = client.submit(tiny_spec())
        with pytest.raises(ServiceError) as excinfo:
            client.result(record.job_id)
        assert excinfo.value.status == 409

    def test_cancelled_job_is_skipped_by_workers(self, served):
        url, store = served
        client = SweepClient(url)
        record = client.submit(tiny_spec())
        assert client.cancel(record.job_id).state == "cancelled"
        assert run_worker(store.root, once=True) == 0
        assert client.status(record.job_id).state == "cancelled"

    def test_concurrent_clients_poll_while_worker_runs(
            self, shared_cache_dir, served):
        url, store = served
        client = SweepClient(url)
        record = client.submit(tiny_spec())
        errors, polls = [], []

        def poll():
            try:
                poller = SweepClient(url)
                for _ in range(50):
                    state = poller.status(record.job_id).state
                    polls.append(state)
                    if state in ("done", "failed", "cancelled"):
                        return
                    time.sleep(0.05)
            except Exception as exc:  # surface into the main thread
                errors.append(exc)

        threads = [threading.Thread(target=poll) for _ in range(4)]
        for thread in threads:
            thread.start()
        run_worker(store.root, once=True)
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert all(s in ("queued", "running", "done") for s in polls)
        assert client.status(record.job_id).state == "done"


# ---------------------------------------------------------------------------
# crash safety: SIGKILL a worker mid-point, another adopts the lease


WORKER_DRIVER = textwrap.dedent("""
    import sys, time
    sys.path.insert(0, {src!r})
    import repro.experiments.engine as engine
    from repro.service import run_worker

    # Stretch each point so the parent has a reliable kill window.
    original = engine.execute_point
    def slowed(point):
        time.sleep(1.0)
        return original(point)
    engine.execute_point = slowed

    run_worker({root!r}, worker_id="doomed", once=True, lease_ttl_s=5.0)
""")


class TestWorkerCrashSafety:
    def test_sigkilled_workers_point_is_adopted(self, shared_cache_dir,
                                                tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        driver = WORKER_DRIVER.format(src=str(SRC),
                                      root=str(store.root))
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # Its own session so SIGKILL can take out the worker *and* its
        # forked simulation child — the dead-host scenario, not a tidy
        # shutdown where an orphan child finishes the point anyway.
        proc = subprocess.Popen([sys.executable, "-c", driver], env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            # Wait until the doomed worker holds a lease, then SIGKILL
            # it mid-simulation: the lease must survive un-released.
            deadline = time.time() + 60
            leases = store.leases_dir(record.job_id)
            while not list(leases.glob("*.lease")):
                assert time.time() < deadline, "no lease appeared"
                assert proc.poll() is None, "worker died prematurely"
                time.sleep(0.02)
            os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait(timeout=30)

        orphaned = list(leases.glob("*.lease"))
        assert orphaned, "SIGKILL must leave the lease behind"
        orphan_id = orphaned[0].stem

        # A second worker with a short TTL adopts once the lease ages.
        time.sleep(1.2)
        executed = run_worker(store.root, worker_id="rescuer",
                              once=True, lease_ttl_s=1.0)
        assert executed == spec.num_points  # nothing was checkpointed

        final = store.read(record.job_id)
        assert final.state == "done"
        events = store.events(record.job_id).read()
        adoptions = [e for e in events if e["event"] == "lease_adopted"]
        assert adoptions, "the stolen point must be recorded as adopted"
        assert adoptions[0]["point_id"] == orphan_id
        assert adoptions[0]["previous_owner"] == "doomed"
        assert not list(leases.glob("*.lease")), "leases must drain"

        # The crash-and-adopt path still yields the bit-identical
        # matrix of an undisturbed local sweep.
        rebuilt = speedup_matrix(
            sweep_result_from_store(spec, store.sweep_store(
                record.job_id).root))
        local = speedup_matrix(
            run_sweep(spec, store_root=tmp_path / "local"))
        assert rebuilt.to_markdown() == local.to_markdown()

    def test_lease_left_on_a_finished_point_is_removed(
            self, shared_cache_dir, tmp_path):
        # A worker SIGKILLed alone leaves its lease behind while its
        # child still checkpoints the point: finalizing must drop it.
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        assert run_worker(store.root, once=True, lease_ttl_s=5.0,
                          max_points=spec.num_points - 1) \
            == spec.num_points - 1
        leases = store.leases_dir(record.job_id)
        orphan = leases / f"{spec.expand()[0].point_id}.lease"
        orphan.write_text(json.dumps({"owner": "killed"}))
        os.utime(orphan, (time.time() - 60, time.time() - 60))
        assert run_worker(store.root, once=True, lease_ttl_s=5.0) == 1
        assert store.read(record.job_id).state == "done"
        assert not list(leases.glob("*.lease"))

    def test_torn_artifact_is_quarantined_and_rerun(self, shared_cache_dir,
                                                    tmp_path):
        """A torn checkpoint must rerun, never finalize a partial job.

        ``completed_ids`` goes by file existence, so bytes that fail
        their checksum (power loss mid-write, chaos 'corrupt') would
        satisfy the counts gate.  The finalizer must verify through the
        checksum layer, quarantine the torn artifact, and let the same
        worker rerun the re-opened point in the same drain.
        """
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        sweep_store = store.sweep_store(record.job_id)
        sweep_store.initialize(spec)
        victim = spec.expand()[0].point_id
        torn = sweep_store.point_path(victim)
        torn.write_bytes(b"these bytes fail their checksum")

        executed = run_worker(store.root, worker_id="w",
                              once=True, lease_ttl_s=5.0)
        # Three genuinely-pending points plus the rerun of the victim.
        assert executed == spec.num_points

        final = store.read(record.job_id)
        assert final.state == "done"
        assert torn.with_name(torn.name + ".corrupt").exists()
        payload = json.loads(store.result_path(record.job_id)
                             .read_bytes())
        assert payload["partial"] is False
        assert payload["counts"]["completed"] == spec.num_points
        local = speedup_matrix(
            run_sweep(spec, store_root=tmp_path / "local"))
        assert payload["markdown"] == local.to_markdown()


# ---------------------------------------------------------------------------
# one supervised child per drained job


class TestWorkerChildPerJob:
    def test_clean_job_runs_on_one_child(self, shared_cache_dir, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        assert run_worker(store.root, worker_id="w", once=True,
                          lease_ttl_s=5.0) == spec.num_points
        assert multiprocessing.active_children() == []
        assert store.read(record.job_id).state == "done"
        # One trace stream per point, named <point_id>.<child pid>.jsonl.
        traces = list(store.traces_dir(record.job_id).glob("*.jsonl"))
        assert len(traces) == spec.num_points
        assert len({path.name.split(".")[-2] for path in traces}) == 1
        # Clean points leave their breaker cell as it was: nothing to write.
        assert not store.sweep_store(record.job_id).breakers_path.exists()

    def test_crashed_first_attempt_still_finishes_the_job(
            self, shared_cache_dir, tmp_path, monkeypatch):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        flag = tmp_path / "crashed"
        original = engine.execute_point

        def crash_once(point):
            # The flag is a file: the crashed child's memory dies with it.
            if not flag.exists():
                flag.write_text(point.point_id)
                os._exit(9)
            return original(point)

        monkeypatch.setattr(engine, "execute_point", crash_once)
        assert run_worker(store.root, worker_id="w", once=True,
                          lease_ttl_s=5.0) == spec.num_points
        assert multiprocessing.active_children() == []
        assert store.read(record.job_id).state == "done"
        done = [e for e in store.events(record.job_id).read()
                if e["event"] == "point_done"]
        assert len(done) == spec.num_points
        assert [e["attempts"] for e in done
                if e["point_id"] == flag.read_text()] == [2]
        monkeypatch.setattr(engine, "execute_point", original)
        local = speedup_matrix(
            run_sweep(spec, store_root=tmp_path / "local"))
        payload = json.loads(store.result_path(record.job_id).read_bytes())
        assert payload["markdown"] == local.to_markdown()

    def test_claim_merges_only_its_own_breaker_cell(
            self, shared_cache_dir, tmp_path, monkeypatch):
        # While this worker's point runs, a fleet mate trips CCS|ptr.
        # The point's success then resets tri_overlap|baseline, which
        # must not write back a stale copy that reopens CCS|ptr.
        spec = tiny_spec(kinds=["baseline"], axes={})
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        sweep_store = store.sweep_store(record.job_id)
        sweep_store.initialize(spec)
        seeded = CircuitBreaker()
        seeded.record_failure("tri_overlap|baseline")
        sweep_store.record_breaker_state(seeded.to_state())
        original = engine.execute_point

        def fleet_mate_trips(point):
            mate = store_breaker(sweep_store)  # fresh read, then write
            for _ in range(3):
                mate.record_failure("CCS|ptr")
            sweep_store.record_breaker_state(mate.to_state())
            return original(point)

        monkeypatch.setattr(engine, "execute_point", fleet_mate_trips)
        assert run_worker(store.root, once=True, lease_ttl_s=5.0) == 1
        state = sweep_store.load_breaker_state()
        assert CircuitBreaker.from_state(state).open_keys == ["CCS|ptr"]
        assert state["cells"]["tri_overlap|baseline"]["failures"] == 0
        assert [t["key"] for t in state["trips"]] == ["CCS|ptr"]


class TestFinalizeOncePerDrain:
    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = JobStore.counts

        def counts(self, job_id, *args, **kwargs):
            calls.append(job_id)
            return original(self, job_id, *args, **kwargs)

        monkeypatch.setattr(JobStore, "counts", counts)
        return calls

    def test_counts_scans_do_not_grow_with_grid(self, shared_cache_dir,
                                                tmp_path, counted):
        store = JobStore(tmp_path / "root")
        small = store.submit(tiny_spec())
        large = store.submit(tiny_spec(axes={"raster_units": [1, 2, 4]}))
        assert run_worker(store.root, once=True, lease_ttl_s=5.0) == 10
        for job in (small, large):
            assert counted.count(job.job_id) == 2
            assert store.read(job.job_id).state == "done"
            assert store.result_path(job.job_id).exists()

    def test_max_points_at_grid_size_still_finalizes(self, shared_cache_dir,
                                                     tmp_path, counted):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        assert run_worker(store.root, once=True, lease_ttl_s=5.0,
                          max_points=spec.num_points) == spec.num_points
        assert store.read(record.job_id).state == "done"
        assert store.result_path(record.job_id).exists()
        assert counted.count(record.job_id) == 2

    def test_finalize_loads_each_checkpoint_once(self, shared_cache_dir,
                                                 tmp_path, monkeypatch):
        from repro.service import worker
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        local = speedup_matrix(run_sweep(
            spec, store_root=store.sweep_store(record.job_id).root))
        loads = []
        load = ArtifactStore.load

        def counted_load(self, point_id):
            loads.append(point_id)
            return load(self, point_id)

        monkeypatch.setattr(ArtifactStore, "load", counted_load)
        assert worker._maybe_finalize(store, record.job_id, spec, 5.0)
        assert sorted(loads) == sorted(p.point_id for p in spec.expand())
        payload = json.loads(store.result_path(record.job_id).read_bytes())
        assert payload["markdown"] == local.to_markdown()
        assert store.read(record.job_id).state == "done"


class TestCheckpointFiles:
    """A store's ``points/`` holds one ``.pkl`` per point and nothing else."""

    @staticmethod
    def _names(store: ArtifactStore):
        return sorted(p.name for p in store.points_dir.iterdir())

    def test_local_sweep(self, shared_cache_dir, tmp_path):
        spec = tiny_spec()
        run_sweep(spec, store_root=tmp_path / "store", workers=1)
        assert self._names(ArtifactStore(tmp_path / "store")) \
            == sorted(f"{p.point_id}.pkl" for p in spec.expand())

    def test_service_drain(self, shared_cache_dir, tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        assert run_worker(store.root, worker_id="w", once=True,
                          lease_ttl_s=5.0) == spec.num_points
        assert store.read(record.job_id).state == "done"
        assert self._names(store.sweep_store(record.job_id)) \
            == sorted(f"{p.point_id}.pkl" for p in spec.expand())


class TestClaimsPerDrain:
    def test_one_expand_and_one_record_write_per_drain(
            self, shared_cache_dir, tmp_path, monkeypatch):
        from repro.service import worker
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        expands, writes = [], []
        expand, update = ExperimentSpec.expand, JobStore.update

        def counted_expand(self):
            expands.append(self.name)
            return expand(self)

        def counted_update(self, job_id, mutate):
            writes.append(job_id)
            return update(self, job_id, mutate)

        monkeypatch.setattr(ExperimentSpec, "expand", counted_expand)
        monkeypatch.setattr(JobStore, "update", counted_update)
        # End the drain at its first empty scan: finalizing expands the
        # grid and writes the record on its own account.
        monkeypatch.setattr(worker, "_maybe_finalize",
                            lambda *args, **kwargs: True)
        ran = worker._drain_job(store, record.job_id, spec, "w1", 5.0,
                                None, None, remaining=None)
        assert ran == spec.num_points
        assert len(expands) == 1
        assert writes == [record.job_id]
        assert store.read(record.job_id).state == "running"
        started = [e for e in store.events(record.job_id).read()
                   if e["event"] == "job_started"]
        assert len(started) == 1

    def test_store_listings_do_not_grow_with_grid(
            self, shared_cache_dir, tmp_path, monkeypatch):
        # Claims stat the artifacts; only the finalizer lists points/.
        listings = []
        completed_ids = ArtifactStore.completed_ids

        def counted_completed_ids(self):
            listings.append(self.root)
            return completed_ids(self)

        monkeypatch.setattr(ArtifactStore, "completed_ids",
                            counted_completed_ids)
        store = JobStore(tmp_path / "root")
        per_drain = []
        for spec in (tiny_spec(),
                     tiny_spec(axes={"raster_units": [1, 2, 4]})):
            record = store.submit(spec)
            del listings[:]
            assert run_worker(store.root, worker_id="w", once=True,
                              lease_ttl_s=5.0) == spec.num_points
            assert store.read(record.job_id).state == "done"
            claimed = [e["point_id"]
                       for e in store.events(record.job_id).read()
                       if e["event"] == "point_claimed"]
            assert claimed == [p.point_id for p in spec.expand()]
            per_drain.append(len(listings))
        assert per_drain[0] == per_drain[1]

    def test_points_passed_in_are_scanned(self, shared_cache_dir,
                                          tmp_path):
        spec = tiny_spec()
        store = JobStore(tmp_path / "root")
        record = store.submit(spec)
        points = spec.expand()[2:]
        claim = claim_point(store, record.job_id, spec, "w1",
                            points=points)
        assert claim.point == points[0]


# ---------------------------------------------------------------------------
# telemetry flag propagation (the --no-point-telemetry fix)


class TestWorkerTelemetryFlag:
    def test_forked_worker_disables_inherited_hub(self, shared_cache_dir,
                                                  tmp_path):
        """point_telemetry=False must win over an inherited enabled hub.

        The driver's hub is enabled; ``driver_pid`` tells the runner it
        is executing in a forked child, so with telemetry off it must
        disable its inherited copy (zero-overhead service workers) —
        and the checkpointed artifact must carry no telemetry.
        """
        from repro.experiments.engine import _point_runner
        from repro.telemetry import HUB
        spec = tiny_spec()
        point = spec.expand()[0]
        store = ArtifactStore(tmp_path / "s")
        store.initialize(spec)
        HUB.enable()
        try:
            child = os.fork()
            if child == 0:  # pragma: no cover - asserts in the child
                status = 1
                try:
                    _point_runner(point, store_root=str(store.root),
                                  point_telemetry=False,
                                  driver_pid=os.getppid())
                    status = 0 if not HUB.enabled else 2
                finally:
                    os._exit(status)
            _, raw = os.waitpid(child, 0)
            code = os.waitstatus_to_exitcode(raw)
            assert code == 0, {1: "child crashed",
                               2: "inherited hub stayed enabled"}.get(
                                   code, f"exit {code}")
            # The parent's own hub is untouched by the child's disable.
            assert HUB.enabled
        finally:
            HUB.disable()
        summary = store.load(point.point_id)
        assert summary is not None
        assert not getattr(summary, "telemetry", None)


# ---------------------------------------------------------------------------
# fleet health reporting


class TestFleetReporter:
    def test_snapshot_roundtrips_through_checksum(self, tmp_path):
        reporter = FleetReporter(tmp_path, "w1")
        reporter.write()
        status = read_worker_status(reporter.path)
        assert status["schema"] == "repro.worker/v1"
        assert status["worker_id"] == "w1"
        assert status["state"] == "idle"
        assert status["pid"] == os.getpid()
        assert "checksum" not in status  # stripped after verification

    def test_mutators_write_through(self, tmp_path):
        reporter = FleetReporter(tmp_path, "w1")
        reporter.point_started("job-a", "p0")
        status = read_worker_status(reporter.path)
        assert status["state"] == "running"
        assert (status["job_id"], status["point_id"]) == ("job-a", "p0")
        reporter.point_finished(ok=True, attempts=3)
        reporter.point_finished(ok=False)
        status = read_worker_status(reporter.path)
        assert status["points_completed"] == 1
        assert status["points_failed"] == 1
        assert status["attempts_extra"] == 2
        assert status["points_per_s"] >= 0.0

    def test_worker_id_is_slugged_into_filename(self, tmp_path):
        assert worker_file_name("host:8/w 1") == "host-8-w-1.json"
        reporter = FleetReporter(tmp_path, "host:8/w 1")
        reporter.write()
        assert reporter.path.exists()
        assert read_worker_status(reporter.path)["worker_id"] \
            == "host:8/w 1"

    def test_corrupt_snapshot_is_quarantined(self, tmp_path):
        reporter = FleetReporter(tmp_path, "w1")
        reporter.write()
        reporter.path.write_text(
            reporter.path.read_text().replace(
                '"state": "idle"', '"state": "evil"'))
        assert read_worker_status(reporter.path) is None
        assert not reporter.path.exists()  # moved aside, not left live
        assert reporter.path.with_name(
            reporter.path.name + ".corrupt").exists()

    def test_unwritable_path_degrades_never_raises(self, tmp_path):
        blocker = tmp_path / "fleet"
        blocker.write_text("a file where the directory should be")
        reporter = FleetReporter(tmp_path, "w1")
        reporter.write()  # must swallow the OSError
        assert reporter.degraded
        reporter.point_finished(ok=True)  # still safe once degraded

    def test_beat_thread_keeps_mtime_fresh(self, tmp_path):
        reporter = FleetReporter(tmp_path, "w1", interval_s=0.05)
        reporter.start()
        try:
            old = time.time() - 60.0
            os.utime(reporter.path, (old, old))
            deadline = time.time() + 5.0
            while time.time() - reporter.path.stat().st_mtime > 1.0:
                assert time.time() < deadline, "beat thread never wrote"
                time.sleep(0.02)
        finally:
            reporter.stop()
        assert read_worker_status(reporter.path)["state"] == "exited"

    def test_read_fleet_flags_stale_and_exited(self, tmp_path):
        FleetReporter(tmp_path, "live").write()
        gone = FleetReporter(tmp_path, "gone")
        gone.write()
        old = time.time() - 120.0
        os.utime(gone.path, (old, old))
        roster = read_fleet(tmp_path, stale_after_s=30.0)
        assert roster["live"] == 1 and roster["stale"] == 1
        by_id = {w["worker_id"]: w for w in roster["workers"]}
        assert not by_id["live"]["stale"]
        assert by_id["gone"]["stale"]
        assert by_id["gone"]["age_s"] > 30.0
        # A clean shutdown is stale regardless of how fresh its file is.
        done = FleetReporter(tmp_path, "done")
        done.stop()
        assert {w["worker_id"] for w in
                read_fleet(tmp_path, stale_after_s=30.0)["workers"]
                if w["stale"]} == {"gone", "done"}

    def test_read_fleet_empty_store(self, tmp_path):
        roster = read_fleet(tmp_path)
        assert roster["workers"] == []
        assert roster["live"] == 0 and roster["stale"] == 0


# ---------------------------------------------------------------------------
# job progress / ETA


class TestJobProgress:
    def test_eta_from_completion_rate(self):
        now = 1000.0
        counts = {"total": 4, "completed": 2, "failed": 0,
                  "leased": 1, "pending": 1}
        events = [{"event": "point_done", "ts": 990.0},
                  {"event": "point_done", "ts": 995.0}]
        progress = job_progress(counts, events, now=now)
        assert progress["percent"] == 50.0
        assert progress["points_per_s"] == pytest.approx(0.2)
        assert progress["eta_s"] == pytest.approx(10.0)

    def test_no_completions_means_no_eta(self):
        counts = {"total": 4, "completed": 0, "failed": 0,
                  "leased": 0, "pending": 4}
        progress = job_progress(counts, [{"event": "job_submitted",
                                          "ts": 1.0}], now=10.0)
        assert progress["percent"] == 0.0
        assert progress["points_per_s"] == 0.0
        assert progress["eta_s"] is None

    def test_finished_job_reports_zero_eta(self):
        now = 1000.0
        counts = {"total": 2, "completed": 1, "failed": 1,
                  "leased": 0, "pending": 0}
        events = [{"event": "point_done", "ts": 400.0},
                  {"event": "point_failed", "ts": 600.0}]
        progress = job_progress(counts, events, now=now)
        assert progress["percent"] == 100.0
        assert progress["eta_s"] == 0.0
        # Idle past the window: the rate falls back to the whole run.
        assert progress["points_per_s"] > 0.0

    def test_failed_points_count_toward_progress(self):
        counts = {"total": 4, "completed": 1, "failed": 1,
                  "leased": 0, "pending": 2}
        assert job_progress(counts, [], now=10.0)["percent"] == 50.0


# ---------------------------------------------------------------------------
# live observability over HTTP: /v1/metrics, /v1/fleet, heartbeats


def _parse_exposition(text):
    """{name: value} for every sample line; also sanity-checks syntax."""
    import re
    samples = {}
    for line in text.strip().splitlines():
        if line.startswith("# TYPE "):
            assert re.fullmatch(r"# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                                r"(counter|gauge|histogram)", line), line
            continue
        match = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (\S+)', line)
        assert match, f"malformed exposition line: {line!r}"
        samples[match.group(1) + (match.group(2) or "")] = \
            float(match.group(3).replace("+Inf", "inf"))
    return samples


class TestMetricsEndpoint:
    def test_exposition_is_well_formed(self, served):
        url, _ = served
        client = SweepClient(url)
        client.ping()
        client.submit(tiny_spec())

        import urllib.request
        # A request is counted just *after* its response is written, so
        # an immediate scrape may race the submit's accounting: poll.
        deadline = time.time() + 5.0
        while True:
            with urllib.request.urlopen(f"{url}/v1/metrics",
                                        timeout=10) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain; version=0.0.4")
                text = response.read().decode("utf-8")
            samples = _parse_exposition(text)
            if ("repro_http_requests_jobs_POST_201_total" in samples
                    or time.time() >= deadline):
                break
            time.sleep(0.05)

        # Request counters saw the ping and the submit.
        assert samples["repro_http_requests_ping_GET_200_total"] >= 1
        assert samples["repro_http_requests_jobs_POST_201_total"] == 1
        # Store-derived gauges reflect the queued 4-point job.
        assert samples["repro_service_jobs_total"] == 1
        assert samples["repro_service_jobs_queued"] == 1
        assert samples["repro_service_queue_depth"] == 4
        # Event counters fold in the progress log.
        assert samples["repro_service_events_job_submitted_total"] == 1

    def test_latency_histogram_buckets_are_cumulative(self, served):
        url, _ = served
        client = SweepClient(url)
        for _ in range(3):
            client.ping()
        samples = _parse_exposition(client.metrics_text())
        prefix = "repro_http_latency_s_ping_bucket"
        buckets = [(key, value) for key, value in samples.items()
                   if key.startswith(prefix)]
        assert buckets, "ping latency histogram missing"
        values = [v for _, v in buckets]
        assert values == sorted(values), "le buckets must be cumulative"
        inf = samples[prefix + '{le="+Inf"}']
        assert inf == samples["repro_http_latency_s_ping_count"]
        assert inf >= 3

    def test_event_counters_are_monotonic_across_scrapes(self, served):
        url, _ = served
        client = SweepClient(url)
        client.submit(tiny_spec())
        client.metrics_text()  # a scrape counts itself only afterwards
        first = _parse_exposition(client.metrics_text())
        second = _parse_exposition(client.metrics_text())
        # Incremental offsets: the submitted event is counted once,
        # not re-counted per scrape.
        key = "repro_service_events_job_submitted_total"
        assert first[key] == second[key] == 1
        # Request counters only ever grow (scrape accounting is
        # asynchronous, so compare with >=, not strict growth).
        assert second.get("repro_http_requests_metrics_GET_200_total",
                          0) \
            >= first.get("repro_http_requests_metrics_GET_200_total",
                         0)


class TestFleetEndpoint:
    def test_roster_reports_live_and_stale(self, served):
        url, store = served
        FleetReporter(store.root, "fresh").write()
        gone = FleetReporter(store.root, "gone")
        gone.write()
        old = time.time() - 300.0
        os.utime(gone.path, (old, old))

        roster = SweepClient(url).fleet()
        assert roster["live"] == 1 and roster["stale"] == 1
        by_id = {w["worker_id"]: w for w in roster["workers"]}
        assert not by_id["fresh"]["stale"]
        assert by_id["gone"]["stale"]
        # A longer horizon via the query parameter revives it.
        wide = SweepClient(url).fleet(stale_after_s=600.0)
        assert wide["live"] == 2 and wide["stale_after_s"] == 600.0

    def test_empty_fleet_is_empty_roster_not_error(self, served):
        url, _ = served
        roster = SweepClient(url).fleet()
        assert roster == {"workers": [], "live": 0, "stale": 0,
                          "stale_after_s": 30.0,
                          "generated_at": roster["generated_at"]}

    def test_bad_stale_after_is_400(self, served):
        url, _ = served
        with pytest.raises(ServiceError) as excinfo:
            SweepClient(url).fleet(stale_after_s="soon")
        assert excinfo.value.status == 400


class TestEventsHeartbeat:
    def test_idle_follow_emits_heartbeat_chunks(self, served):
        url, _ = served
        client = SweepClient(url)
        record = client.submit(tiny_spec())  # queued, nobody works it
        events = list(client.events(record.job_id, follow=True,
                                    timeout_s=1.0, heartbeat_s=0.2,
                                    include_heartbeats=True))
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job_submitted"
        assert kinds.count("heartbeat") >= 2
        # The client filters them out of normal consumption.
        quiet = list(client.events(record.job_id, follow=True,
                                   timeout_s=0.6, heartbeat_s=0.2))
        assert all(e["event"] != "heartbeat" for e in quiet)

    def test_access_log_routes_through_repro_logger(self, served,
                                                    caplog):
        url, _ = served
        import logging
        with caplog.at_level(logging.DEBUG,
                             logger="repro.service.server"):
            SweepClient(url).ping()
        assert any("GET /v1/ping" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# end to end: a two-worker sweep is fully observable


class TestFleetObservabilityE2E:
    def test_progress_fleet_and_merged_trace(self, shared_cache_dir,
                                             served, tmp_path):
        url, store = served
        client = SweepClient(url)
        record = client.submit(tiny_spec(), point_telemetry=True)
        # Split the 4 points across two sequential workers so the
        # merged timeline has two genuinely distinct worker tracks.
        assert run_worker(store.root, worker_id="w1", once=True,
                          max_points=2, lease_ttl_s=5.0) == 2
        assert run_worker(store.root, worker_id="w2", once=True,
                          lease_ttl_s=5.0) == 2
        final = client.wait(record.job_id, timeout_s=30.0)
        assert final.state == "done"

        # Progress/ETA on the status payload.
        progress = client.status(record.job_id).progress
        assert progress["percent"] == 100.0
        assert progress["eta_s"] == 0.0
        assert progress["points_per_s"] > 0.0

        # Both workers reported health; both exited, hence stale.
        roster = client.fleet()
        assert {w["worker_id"] for w in roster["workers"]} \
            == {"w1", "w2"}
        assert roster["live"] == 0 and roster["stale"] == 2
        done_counts = {w["worker_id"]: w["points_completed"]
                       for w in roster["workers"]}
        assert done_counts == {"w1": 2, "w2": 2}

        # The scrape saw the drain.
        samples = _parse_exposition(client.metrics_text())
        assert samples["repro_service_events_point_done_total"] == 4
        assert samples["repro_service_jobs_done"] == 1
        assert samples["repro_service_queue_depth"] == 0

        # Per-point streams carry the correlation fields...
        trace_files = sorted(
            store.traces_dir(record.job_id).glob("*.jsonl"))
        assert len(trace_files) == 4
        first = json.loads(trace_files[0].read_text()
                           .splitlines()[0])
        assert first["job_id"] == record.job_id
        assert first["worker_id"] in ("w1", "w2")
        assert first["point_id"]

        # ...and merge into one timeline with a pid per worker.
        doc = fleet_chrome_trace(store.job_dir(record.job_id))
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 4
        assert {e["pid"] for e in spans} \
            == {PID_WORKER0, PID_WORKER0 + 1}
        assert all(e["args"]["job_id"] == record.job_id
                   and e["args"]["point_id"] for e in spans)
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"job", "worker w1", "worker w2"}

        # The CLI surfaces all of it: the fleet view and the merged
        # trace artifact.
        from repro.cli import main
        assert main(["fleet", "--server", url]) == 0
        out = tmp_path / "fleet_trace.json"
        assert main(["trace", "--store", str(store.root),
                     "--out", str(out)]) == 0
        written = json.loads(out.read_text())
        assert {e["pid"] for e in written["traceEvents"]
                if e["ph"] == "X"} == {PID_WORKER0, PID_WORKER0 + 1}
