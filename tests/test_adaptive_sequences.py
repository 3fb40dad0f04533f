"""Scenario tests: the adaptive FSMs over multi-frame sequences."""

from repro.config import SchedulerConfig
from repro.core.adaptive import (FrameObservation, OrderSelector,
                                 SupertileResizer, TEMPERATURE, Z_ORDER)


def obs(cycles, hit):
    return FrameObservation(raster_cycles=cycles, texture_hit_ratio=hit)


class TestOrderSelectorScenarios:
    def make(self):
        return OrderSelector(SchedulerConfig())

    def test_stable_memory_bound_app_stays_temperature(self):
        fsm = self.make()
        decisions = []
        cycles = 1_000_000
        for _ in range(10):
            fsm.observe(obs(cycles, 0.55))
            decisions.append(fsm.decide())
            cycles = int(cycles * 1.001)  # sub-threshold drift
        assert decisions[0] == TEMPERATURE
        # Once settled, no flapping.
        assert all(d == TEMPERATURE for d in decisions)

    def test_stable_compute_bound_app_stays_zorder(self):
        fsm = self.make()
        decisions = []
        for _ in range(10):
            fsm.observe(obs(1_000_000, 0.95))
            decisions.append(fsm.decide())
        assert all(d == Z_ORDER for d in decisions)

    def test_scene_change_to_memory_bound_switches(self):
        fsm = self.make()
        for _ in range(4):
            fsm.observe(obs(1_000_000, 0.95))
            fsm.decide()
        # Battle starts: hit collapses, cycles jump.
        fsm.observe(obs(1_400_000, 0.55))
        assert fsm.decide() == TEMPERATURE

    def test_scene_change_back_to_menu_switches_back(self):
        fsm = self.make()
        fsm.observe(obs(1_400_000, 0.55))
        assert fsm.decide() == TEMPERATURE
        fsm.observe(obs(1_350_000, 0.55))
        fsm.decide()
        # Menu: cheap frames, hot caches.
        fsm.observe(obs(600_000, 0.96))
        assert fsm.decide() == Z_ORDER

    def test_slower_temperature_frame_with_hit_gain_keeps_temperature(self):
        # GrT at 1920x1080 (ROADMAP item 3): the first temperature
        # frame ran 4.3% slower than the Z-order frame before it while
        # its hit ratio rose 0.005.  What the FSM does today: a slowdown
        # counts as degradation only with a hit-ratio drop, so the 4.3%
        # re-applies the hit-ratio test, which still prefers
        # temperature below 80%.  A change to the FSM shows here.
        fsm = self.make()
        fsm.observe(obs(1_000_000, 0.72))  # Z-order, no history
        assert fsm.decide() == TEMPERATURE
        fsm.observe(obs(1_043_000, 0.725))
        assert fsm.decide() == TEMPERATURE
        fsm.observe(obs(1_043_000, 0.725))
        assert fsm.decide() == TEMPERATURE

    def test_noise_does_not_flap(self):
        fsm = self.make()
        fsm.observe(obs(1_000_000, 0.55))
        first = fsm.decide()
        flips = 0
        previous = first
        for i in range(20):
            jitter = 1.0 + (0.01 if i % 2 == 0 else -0.01)
            fsm.observe(obs(int(1_000_000 * jitter), 0.55 + 0.002 * (i % 3)))
            decision = fsm.decide()
            if decision != previous:
                flips += 1
            previous = decision
        assert flips == 0


class TestResizerScenarios:
    def make(self, threshold=0.0025):
        return SupertileResizer(SchedulerConfig(
            supertile_resize_threshold=threshold))

    def test_monotone_improvement_walks_to_max(self):
        r = self.make()
        cycles = 1_000_000
        sizes = []
        for _ in range(6):
            r.observe(cycles)
            sizes.append(r.size)
            cycles = int(cycles * 0.9)
        assert 16 in sizes  # reached the top of the ladder

    def test_converges_on_plateau(self):
        r = self.make()
        r.observe(1_000_000)
        r.observe(900_000)   # improvement -> move
        settled = r.size
        for _ in range(10):
            r.observe(900_000)  # flat: within hysteresis
        assert r.size == settled

    def test_oscillating_cost_bounded_walk(self):
        r = self.make()
        sizes = set()
        cycles = [1_000_000, 1_100_000] * 8
        for c in cycles:
            r.observe(c)
            sizes.add(r.size)
        assert sizes <= {2, 4, 8, 16}

    def test_zero_threshold_reacts_to_everything(self):
        r = self.make(threshold=0.0)
        r.observe(1_000_000)
        r.observe(999_999)  # any improvement moves
        assert r.size == 8
