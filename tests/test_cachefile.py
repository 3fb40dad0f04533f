"""Streamed cache entries: format, memory, verify-before-unpickle.

:func:`repro.cachefile.write_cache` pickles straight into the entry's
temporary file while hashing the bytes, and
:func:`~repro.cachefile.read_cache` hashes the whole payload through
one buffer before it unpickles from the same file.  These tests pin
the on-disk bytes to ``MAGIC | sha256(payload) | payload``, bound the
memory each direction may use beyond the object itself, and show that
a payload which fails its checksum never reaches the unpickler.
"""

import hashlib
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from repro import cachefile, chaos
from repro.errors import CacheCorruptionError
from repro.harness import RunSummary

from faults import ExplodesMidPickle, tiny_builder

MIB = 1 << 20


@pytest.fixture(autouse=True)
def no_armed_fault():
    yield
    chaos.disarm()


def entry_bytes(obj) -> bytes:
    """The entry the format defines for ``obj``, built in memory."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return cachefile.MAGIC + hashlib.sha256(payload).digest() + payload


def run_summary() -> RunSummary:
    return RunSummary(
        benchmark="GDL", kind="libra", frames=2, total_cycles=1000,
        geometry_cycles=100, raster_cycles=900, fps=60.0, energy_j=0.5,
        energy_breakdown={"dram": 0.25}, raster_dram_accesses=42,
        texture_hit_ratio=0.9, texture_latency=3.5,
        frame_cycles=[500, 500], frame_orders=["zorder", "temperature"],
        frame_supertile_sizes=[1, 2], frame_hit_ratios=[0.9, 0.9],
        frame_dram=[21, 21], last_frame_intervals=[1, 2, 3],
        per_tile_dram_prev={(0, 0): 3}, per_tile_dram_last={(0, 1): 4})


OBJECTS = {
    "traces": lambda: tiny_builder().build_many(2),
    "summary": run_summary,
    "str": lambda: "a cache entry",
}


class TestFormat:
    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_entry_is_magic_digest_pickle(self, tmp_path, name):
        obj = OBJECTS[name]()
        path = tmp_path / "entry.pkl"
        cachefile.write_cache(obj, path)
        assert path.read_bytes() == entry_bytes(obj)
        assert [p.name for p in tmp_path.iterdir()] == ["entry.pkl"]

    @pytest.mark.parametrize("name", sorted(OBJECTS))
    def test_entry_built_by_hand_reads_back(self, tmp_path, name):
        obj = OBJECTS[name]()
        path = tmp_path / "entry.pkl"
        path.write_bytes(entry_bytes(obj))
        assert cachefile.read_cache(path) == obj

    def test_corruption_messages(self, tmp_path):
        path = tmp_path / "entry.pkl"
        with pytest.raises(CacheCorruptionError, match="unreadable"):
            cachefile.read_cache(path)
        path.write_bytes(cachefile.MAGIC + b"short")
        with pytest.raises(CacheCorruptionError,
                           match=r"truncated header \(9 bytes\)"):
            cachefile.read_cache(path)
        entry = entry_bytes("payload")
        path.write_bytes(b"XXXX" + entry[4:])
        with pytest.raises(CacheCorruptionError, match="bad magic b'XXXX'"):
            cachefile.read_cache(path)
        path.write_bytes(entry[:-1])
        kept = len(entry) - 1 - len(cachefile.MAGIC) - 32
        with pytest.raises(CacheCorruptionError, match=re.escape(
                f"checksum mismatch ({kept} payload bytes)")):
            cachefile.read_cache(path)


class SetstateRaises:
    """Pickles fine; unpickling it raises, so an unpickle cannot hide."""

    def __getstate__(self):
        return {"x": 1}

    def __setstate__(self, state):
        raise RuntimeError("unpickled")


class TestVerifyBeforeUnpickle:
    def test_bad_digest_raises_before_any_unpickling(self, tmp_path):
        path = tmp_path / "entry.pkl"
        cachefile.write_cache(SetstateRaises(), path)
        # An entry whose checksum holds reaches the unpickler...
        with pytest.raises(CacheCorruptionError, match="failed to unpickle"):
            cachefile.read_cache(path)
        # ...so with one digest bit flipped, the checksum stopped it.
        data = bytearray(path.read_bytes())
        data[len(cachefile.MAGIC)] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(CacheCorruptionError, match="checksum mismatch"):
            cachefile.read_cache(path)


def traced_peak(fn):
    """``(fn(), peak bytes that fn allocated)`` under ``tracemalloc``."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.fixture(scope="class")
    def big(self):
        # 16 MiB of int64 arrays, the way traces hold line streams.
        obj = [np.arange(MIB // 2, dtype=np.int64) * (i + 1)
               for i in range(4)]
        return obj, len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

    def test_write_holds_no_copy_of_the_payload(self, tmp_path, big):
        obj, size = big
        assert size >= 16 * MIB
        path = tmp_path / "big.pkl"
        _, peak = traced_peak(lambda: cachefile.write_cache(obj, path))
        assert peak < size / 4
        assert path.stat().st_size == len(cachefile.MAGIC) + 32 + size

    def test_read_holds_the_object_and_one_buffer(self, tmp_path, big):
        obj, size = big
        path = tmp_path / "big.pkl"
        cachefile.write_cache(obj, path)
        got, peak = traced_peak(lambda: cachefile.read_cache(path))
        assert peak < size + MIB
        assert all(np.array_equal(a, b) for a, b in zip(got, obj))


class TestChaosFaults:
    def test_corrupt_keeps_the_digest_and_flips_the_last_bit(self,
                                                             tmp_path):
        path = tmp_path / "entry.pkl"
        chaos.arm_cache_fault("corrupt")
        cachefile.write_cache({"cycles": 123}, path)
        assert path.read_bytes() == chaos.corrupt_bytes(
            entry_bytes({"cycles": 123}))

    def test_enospc_leaves_no_entry_and_no_temp_file(self, tmp_path):
        chaos.arm_cache_fault("enospc")
        with pytest.raises(OSError):
            cachefile.write_cache({"x": 1}, tmp_path / "entry.pkl")
        assert list(tmp_path.iterdir()) == []

    def test_a_write_that_fails_to_pickle_keeps_the_fault(self, tmp_path):
        chaos.arm_cache_fault("corrupt")
        with pytest.raises(IOError):
            cachefile.write_cache(ExplodesMidPickle(),
                                  tmp_path / "entry.pkl")
        assert chaos.consume_cache_fault() == "corrupt"
