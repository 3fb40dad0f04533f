"""Conservation laws of the simulator's own accounting.

Parity proves that the batched paths equal the scalar oracle
(``batched=False``); both could still miscount together.  Every request
the timing model issues is counted at several levels (cache statistics,
DRAM statistics, the per-source traffic breakdown), by code written out
in several places, so these sums must agree on every run:

* per frame, the shared L2 sees exactly the misses of the caches in
  front of it: the texture L1s, the Tile cache and the Vertex cache;
* per run, every DRAM request either hits or misses the open row, and
  each row miss is one activation;
* per run, each L2 miss is one DRAM read, tagged geometry, Parameter
  Buffer or texture;
* per run, each DRAM write is a Color Buffer flush: every cache is
  read-only, so nothing is written back.
"""

from __future__ import annotations

import pytest

from repro.config import KIND_FAMILIES, GPUConfig
from repro.gpu import GPUSimulator
from repro.memory.traffic import FRAMEBUFFER, GEOMETRY, PARAMETER, TEXTURE
from repro.workloads import TraceBuilder, make_scene_builder

WIDTH, HEIGHT, FRAMES = 256, 128, 2
BENCHMARKS = ("CCS", "GrT", "GDL", "Jet")


@pytest.fixture(scope="module")
def traces_of():
    """Each benchmark's frames, built on first use by this module."""
    built = {}

    def get(name):
        if name not in built:
            builder = TraceBuilder(make_scene_builder(name, WIDTH, HEIGHT),
                                   WIDTH, HEIGHT, 32)
            built[name] = builder.build_many(FRAMES)
        return built[name]

    return get


@pytest.mark.parametrize("batched", [True, False],
                         ids=["batched", "scalar"])
@pytest.mark.parametrize("kind", KIND_FAMILIES)
@pytest.mark.parametrize("name", BENCHMARKS)
def test_accounting_is_conserved(traces_of, name, kind, batched):
    config, scheduler = GPUConfig.build(kind, screen_width=WIDTH,
                                        screen_height=HEIGHT)
    sim = GPUSimulator(config, scheduler=scheduler, batched=batched)
    driver = sim.driver
    l2 = driver.shared.l2.stats
    tile = driver.tile_cache.stats
    vertex = driver.vertex_cache.stats
    for trace in traces_of(name):
        before = (l2.accesses, tile.misses, vertex.misses)
        frame = sim.run_frame(trace)
        assert frame.tiles_completed > 0
        assert (l2.accesses - before[0]
                == frame.texture_l1_stats.misses
                + (tile.misses - before[1])
                + (vertex.misses - before[2]))

    dram = driver.shared.dram.stats
    traffic = driver.shared.traffic.counts
    assert dram.reads > 0 and dram.writes > 0
    assert dram.row_hits + dram.row_misses == dram.reads + dram.writes
    assert dram.activations == dram.row_misses
    assert (l2.misses == dram.reads
            == traffic[GEOMETRY] + traffic[PARAMETER] + traffic[TEXTURE])
    assert dram.writes == traffic[FRAMEBUFFER]
