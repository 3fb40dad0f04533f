"""Deterministic chaos harness + fault-tolerant sweep end-to-end tests.

Unit coverage for :mod:`repro.chaos` (plan determinism, env activation,
invocation counters, cache-layer fault arming, quarantine capping) and
the headline invariant: a seeded chaos sweep always terminates and its
surviving points converge to exactly the fault-free metrics.
"""

import errno
import os
from pathlib import Path

import pytest

from repro import cachefile, chaos
from repro.cachefile import (load_or_quarantine, quarantine, read_cache,
                             write_cache)
from repro.errors import CacheCorruptionError
from repro.experiments import ArtifactStore, ExperimentSpec, run_sweep
from repro.supervision import SupervisionPolicy
from repro.telemetry import HUB


# -- the fault plan ----------------------------------------------------------

class TestChaosPlan:
    def test_fault_for_is_deterministic(self):
        plan = chaos.ChaosPlan(seed=7)
        again = chaos.ChaosPlan(seed=7)
        ids = [f"bench-kind-{i:04x}" for i in range(64)]
        assert [plan.fault_for(p) for p in ids] \
            == [again.fault_for(p) for p in ids]

    def test_different_seeds_differ(self):
        ids = [f"bench-kind-{i:04x}" for i in range(64)]
        a = [chaos.ChaosPlan(seed=1).fault_for(p) for p in ids]
        b = [chaos.ChaosPlan(seed=2).fault_for(p) for p in ids]
        assert a != b

    def test_rate_bounds(self):
        ids = [f"p{i}" for i in range(64)]
        none = chaos.ChaosPlan(seed=3, rate=0.0)
        assert all(none.fault_for(p) is None for p in ids)
        always = chaos.ChaosPlan(seed=3, rate=1.0)
        assert all(always.fault_for(p) in chaos.ALL_FAULTS for p in ids)

    def test_fault_subset_does_not_reshuffle_targets(self):
        # Narrowing the fault list changes *which* fault a hit point
        # gets, never *whether* a point is hit (whether/which use
        # disjoint digest bytes).
        ids = [f"p{i}" for i in range(128)]
        full = chaos.ChaosPlan(seed=11)
        slim = chaos.ChaosPlan(seed=11, faults=("slow",))
        for point_id in ids:
            hit_full = full.fault_for(point_id) is not None
            hit_slim = slim.fault_for(point_id) is not None
            assert hit_full == hit_slim
        assert {slim.fault_for(p) for p in ids} <= {None, "slow"}

    def test_curse_matches_substring(self):
        plan = chaos.ChaosPlan(seed=0, curse="-libra-")
        assert plan.cursed("tri_overlap-libra-0808fe05fafd")
        assert not plan.cursed("tri_overlap-baseline-bbb0953d8941")
        assert not chaos.ChaosPlan(seed=0).cursed("tri_overlap-libra-x")

    def test_session_round_trips_environment(self):
        assert chaos.active() is None
        with chaos.session(5, faults=("slow",), curse="-x-", rate=0.5):
            plan = chaos.active()
            assert plan is not None
            assert (plan.seed, plan.faults, plan.curse, plan.rate) \
                == (5, ("slow",), "-x-", 0.5)
            with chaos.session(6):
                assert chaos.active().seed == 6
            assert chaos.active().seed == 5
        assert chaos.active() is None
        assert chaos.ENV_SEED not in os.environ

    def test_enable_rejects_unknown_fault(self):
        with pytest.raises(ValueError, match="unknown"):
            chaos.enable(1, faults=("crash", "frobnicate"))
        assert chaos.active() is None


# -- per-point invocation counters -------------------------------------------

class TestInvocationCounter:
    def test_counts_up_and_persists_on_disk(self, tmp_path):
        assert chaos.invocation(tmp_path, "p1") == 1
        assert chaos.invocation(tmp_path, "p1") == 2
        assert chaos.invocation(tmp_path, "p2") == 1
        counter = chaos.counter_dir(tmp_path) / "p1.count"
        assert counter.read_text().strip() == "2"

    def test_counter_survives_process_death(self, tmp_path):
        # The file IS the state: a sibling (or resurrected) process
        # continues the same sequence.
        chaos.invocation(tmp_path, "p")
        pid = os.fork()
        if pid == 0:  # child
            n = chaos.invocation(tmp_path, "p")
            os._exit(0 if n == 2 else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert chaos.invocation(tmp_path, "p") == 3


# -- cache-layer fault injection ---------------------------------------------

class TestCacheFaults:
    def test_armed_fault_is_single_shot(self):
        chaos.arm_cache_fault("corrupt")
        assert chaos.consume_cache_fault() == "corrupt"
        assert chaos.consume_cache_fault() is None

    def test_corrupt_bytes_changes_payload_same_length(self):
        payload = b"\x00" * 32
        mangled = chaos.corrupt_bytes(payload)
        assert mangled != payload and len(mangled) == len(payload)

    def test_enospc_error_shape(self, tmp_path):
        exc = chaos.enospc_error(tmp_path / "f")
        assert isinstance(exc, OSError) and exc.errno == errno.ENOSPC

    def test_corrupt_write_detected_quarantined_healed(self, tmp_path):
        path = tmp_path / "entry.pkl"
        chaos.arm_cache_fault("corrupt")
        write_cache({"cycles": 123}, path)
        with pytest.raises(CacheCorruptionError, match="checksum"):
            read_cache(path)
        assert load_or_quarantine(path) is None
        assert not path.exists()
        assert (tmp_path / "entry.pkl.corrupt").exists()
        # the rebuilt entry (no fault armed) reads back fine
        write_cache({"cycles": 123}, path)
        assert load_or_quarantine(path) == {"cycles": 123}

    def test_enospc_write_raises_and_leaves_no_file(self, tmp_path):
        path = tmp_path / "entry.pkl"
        chaos.arm_cache_fault("enospc")
        with pytest.raises(OSError) as excinfo:
            write_cache({"x": 1}, path)
        assert excinfo.value.errno == errno.ENOSPC
        assert not path.exists()
        write_cache({"x": 1}, path)  # next write is clean
        assert read_cache(path) == {"x": 1}

    def test_quarantine_population_is_capped(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_KEEP", "3")
        path = tmp_path / "entry.pkl"
        for i in range(7):
            path.write_bytes(b"garbage %d" % i)
            assert quarantine(path, "test") is not None
        corpses = list(tmp_path.glob("*.corrupt*"))
        assert len(corpses) == 3
        # the newest quarantines survive, the oldest were pruned
        contents = {p.read_bytes() for p in corpses}
        assert b"garbage 6" in contents
        assert b"garbage 0" not in contents

    def test_prune_emits_telemetry_counter(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUARANTINE_KEEP", "1")
        path = tmp_path / "entry.pkl"
        HUB.enable()
        try:
            HUB.metrics.counter("cachefile.quarantine.pruned").value = 0
            for i in range(3):
                path.write_bytes(b"garbage %d" % i)
                quarantine(path, "test")
            pruned = HUB.metrics.counter("cachefile.quarantine.pruned")
            assert pruned.value == 2
        finally:
            HUB.disable()


# -- chaos sweeps end to end -------------------------------------------------

SPEC = ExperimentSpec(
    name="chaosgrid", benchmarks=["tri_overlap"],
    kinds=["baseline", "libra"],
    axes={"raster_units": [1, 2]},
    frames=2, width=128, height=64)

# Small grid + real faults: keep hangs short and grace periods tight so
# the preemption path runs in test time, not production time.
POLICY = SupervisionPolicy(hang_grace_s=1.0, deadline_floor_s=10.0)


@pytest.fixture(scope="module", autouse=True)
def chaos_env(tmp_path_factory):
    """Trace cache + short hang sleeps shared by every sweep below."""
    cache = tmp_path_factory.mktemp("chaos_cache")
    old_cache = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    old_hang = chaos.HANG_SLEEP_S
    chaos.HANG_SLEEP_S = 30.0  # forked workers inherit the patch
    from repro import harness
    harness.get_traces("tri_overlap", SPEC.frames, SPEC.width, SPEC.height)
    yield
    chaos.HANG_SLEEP_S = old_hang
    if old_cache is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old_cache


@pytest.fixture(scope="module")
def reference_cycles(tmp_path_factory):
    """Fault-free ground truth for the grid."""
    store = tmp_path_factory.mktemp("clean") / "store"
    clean = run_sweep(SPEC, store_root=store, workers=2)
    assert not clean.failed and not clean.skipped
    return {pid: s.total_cycles for pid, s in clean.summaries().items()}


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_chaos_sweep_terminates_and_converges(seed, reference_cycles,
                                              tmp_path):
    store = tmp_path / "store"
    with chaos.session(seed):
        result = run_sweep(SPEC, store_root=store, workers=2,
                           policy=POLICY)
    got = {pid: s.total_cycles for pid, s in result.summaries().items()}
    # Every surviving point is bit-identical to the fault-free run —
    # chaos may cost retries, never correctness.
    for point_id, cycles in got.items():
        assert cycles == reference_cycles[point_id]
    # A chaos-free resume on the same store heals anything that failed
    # (corrupt artifacts quarantined and rebuilt) and completes the grid.
    healed = run_sweep(SPEC, store_root=store, workers=2)
    assert not healed.failed and not healed.skipped
    assert {pid: s.total_cycles for pid, s in healed.summaries().items()} \
        == reference_cycles


def test_crash_after_checkpoint_resumes_not_reruns(reference_cycles,
                                                   tmp_path):
    # Find a seed/point where the fault fires *after* the checkpoint is
    # saved; the retry must then be served from the artifact store.
    plan = chaos.ChaosPlan(seed=4)
    victims = [p.point_id for p in SPEC.expand()
               if plan.fault_for(p.point_id) == "crash_late"]
    assert victims, "seed 4 must crash_late at least one grid point"

    store = tmp_path / "store"
    with chaos.session(4):
        result = run_sweep(SPEC, store_root=store, workers=2,
                           policy=POLICY)
    outcomes = {o.point.point_id: o for o in result.outcomes}
    for point_id in victims:
        outcome = outcomes[point_id]
        assert outcome.ok
        assert reference_cycles[point_id] == outcome.summary.total_cycles
        # The simulation ran exactly once: the post-checkpoint crash's
        # retry hit the store and returned without re-entering the
        # point runner (the invocation counter is incremented only on a
        # genuine execution).
        counter = chaos.counter_dir(store) / f"{point_id}.count"
        assert counter.read_text().strip() == "1"
        assert ArtifactStore(store).point_path(point_id).exists()


def test_cursed_combination_trips_breaker(reference_cycles, tmp_path):
    store = tmp_path / "store"
    with chaos.session(99, curse="-libra-"):
        result = run_sweep(SPEC, store_root=store, workers=2,
                           policy=POLICY)
    # The systematically failing combination trips; the healthy kind is
    # untouched and still numerically exact.
    assert result.tripped, "cursed kind must trip the circuit breaker"
    assert result.partial
    for outcome in result.outcomes:
        if outcome.point.kind == "baseline":
            assert outcome.ok
            assert reference_cycles[outcome.point.point_id] \
                == outcome.summary.total_cycles
        else:
            assert outcome.status in ("failed", "tripped")
    assert "[PARTIAL]" in result.format()
    assert "tripped" in result.format()
    # The trip is durable: the persisted breaker state quarantines the
    # combination for the next run on this store.
    state = ArtifactStore(store).load_breaker_state()
    assert state is not None
    assert state["cells"]["tri_overlap|libra"]["state"] == "open"


def test_provenance_lands_in_outcomes(tmp_path):
    # Seed 4 on this grid produces at least one degraded point (crash,
    # corrupt, enospc all force a retry).  Provenance must say so.
    store = tmp_path / "store"
    with chaos.session(4):
        result = run_sweep(SPEC, store_root=store, workers=2,
                           policy=POLICY)
    provenance = result.provenance()
    assert set(provenance) == {p.point_id for p in SPEC.expand()}
    assert "degraded" in provenance.values()
