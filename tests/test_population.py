"""Population substrate: hibernation is lossless, runs match goldens.

The headline claim of the scale refactor: a run whose devices are
materialized lazily, hibernated to the columnar store under a tiny
residency cap and rehydrated on their next event is *bit-identical* to
one that never hibernates.  Witnessed here through the strongest
channel available: records ride the simulated network into a real
server manager, and the docstore fingerprint plus the server-side
delivery order are compared across residency caps and against recorded
goldens.
"""

from __future__ import annotations

import pytest

from repro.scenarios import (
    SCENARIOS,
    HibernationStore,
    Population,
    ScenarioEngine,
    get_scenario,
    run_scenario,
)
from repro.scenarios.population import ActiveDevice, DeviceRng, splitmix64
from repro.simkit.errors import SimulationError


class TestDeviceRng:
    def test_sequence_depends_only_on_state(self):
        a, b = DeviceRng(12345), DeviceRng(12345)
        assert [a.random() for _ in range(20)] \
            == [b.random() for _ in range(20)]

    def test_state_roundtrip_resumes_sequence(self):
        rng = DeviceRng(999)
        rng.random()
        saved = rng.state
        tail = [rng.random() for _ in range(10)]
        resumed = DeviceRng(saved)
        assert [resumed.random() for _ in range(10)] == tail

    def test_splitmix_known_vector(self):
        # splitmix64(0) first output, per the reference implementation.
        _, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF

    def test_uniform_in_range(self):
        rng = DeviceRng(7)
        draws = [rng.uniform(2.0, 5.0) for _ in range(200)]
        assert all(2.0 <= value < 5.0 for value in draws)

    def test_expovariate_positive(self):
        rng = DeviceRng(8)
        assert all(rng.expovariate(10.0) >= 0.0 for _ in range(200))


class TestPopulationGraph:
    def test_friends_symmetric_and_irreflexive(self):
        population = Population(200, seed=5)
        for index in range(200):
            for friend in population.friends(index):
                assert index != friend
                assert index in population.friends(friend), \
                    f"edge {index}->{friend} not symmetric"

    def test_friends_deterministic_without_state(self):
        # Two independent Population objects agree edge-for-edge:
        # nothing about the graph is stored, everything is derived.
        a, b = Population(300, seed=9), Population(300, seed=9)
        for index in range(0, 300, 7):
            assert a.friends(index) == b.friends(index)

    def test_ring_keeps_every_member_connected(self):
        population = Population(64, seed=1)
        for index in range(64):
            assert population.friends(index), f"device {index} isolated"

    def test_initial_state_deterministic(self):
        a, b = Population(50, seed=3), Population(50, seed=3)
        assert [a.initial_state(i) for i in range(50)] \
            == [b.initial_state(i) for i in range(50)]

    def test_home_city_from_shared_registry(self):
        population = Population(40, seed=2)
        names = set(population.cities.names())
        assert {population.home_city(i).name for i in range(40)} <= names

    def test_rejects_bad_sizes(self):
        with pytest.raises(SimulationError):
            Population(0)
        with pytest.raises(SimulationError):
            Population(10, community_size=1)


class TestHibernationRoundtrip:
    def test_exact_scalar_roundtrip(self):
        store = HibernationStore()
        store.append_initial(0xDEADBEEF, 2.34567891234, 48.87654321)
        device = store.rehydrate(0)
        device.rng.random()
        device.lon += 0.0123456789
        device.online = False
        device.emitted, device.buffered, device.dropped = 17, 5, 2
        saved = (device.rng.state, device.lon, device.lat, device.online,
                 device.emitted, device.buffered, device.dropped)
        store.hibernate(device)
        back = store.rehydrate(0)
        assert (back.rng.state, back.lon, back.lat, back.online,
                back.emitted, back.buffered, back.dropped) == saved

    def test_rng_sequence_survives_hibernation(self):
        store = HibernationStore()
        store.append_initial(424242, 0.0, 0.0)
        straight = store.rehydrate(0)
        expected = [straight.rng.random() for _ in range(6)]
        churned = store.rehydrate(0)
        values = []
        for _ in range(6):
            values.append(churned.rng.random())
            store.writeback(churned)
            churned = store.rehydrate(0)
        assert values == expected

    def test_store_bytes_are_columnar(self):
        store = HibernationStore()
        for index in range(1000):
            store.append_initial(index, 0.0, 0.0)
        # 3x8B (rng/lon/lat) + 1B flag + 3x8B counters = 49 B/device.
        assert store.nbytes() == 1000 * 49

    def test_active_device_is_slotted(self):
        device = ActiveDevice(0, 1, 2.0, 3.0)
        with pytest.raises(AttributeError):
            device.surprise = 1


class TestSubstrateIdentity:
    """Residency caps never change a run, and runs match goldens.

    Two twins these tests once compared are gone: the eager substrate
    (every device resident from t=0, never hibernated) and the
    calendar-wheel event queue.  Each test keeps its name and checks
    the run against the tuple recorded while both sides still ran it
    and agreed.
    """

    #: ``(docstore fingerprint, delivery fingerprint, emitted,
    #: delivered, acks)`` for 50 devices at seed 9 on the server sink,
    #: keyed by ``(scenario, active cap)``.
    GOLDENS = {
        ("city-day", 8): ("084da4923ef085d8142263dc416188e4",
                          "260f6af11a29a115f96e34ea13710693", 303, 303, 303),
        ("flash-crowd", 8): ("32d1aa511ab5acf2f4cf6a5cae0d3f15",
                             "40a936222283d3f68267addd95388c6e",
                             317, 317, 317),
        ("dtn-partition", 4): ("d98762d777615febb03bc5ff521d14e1",
                               "81c254ca8e00558932c71ca0df09a5c4",
                               284, 249, 249),
        ("viral-cascade", 4): ("f36f3b4d1858cc68609bf2d0c86aee65",
                               "03ec1b908b4cfbf830e460883b3ab856",
                               153, 153, 153),
    }

    def _run(self, scenario, cap):
        report = run_scenario(scenario, 50, seed=9, sink="server",
                              active_cap=cap)
        assert report["verify_problems"] == []
        return report

    def _key(self, report):
        return (report["docstore_fingerprint"],
                report["delivery_fingerprint"], report["emitted"],
                report["delivered"], report["acks"])

    def _assert_golden(self, scenario, cap):
        report = self._run(scenario, cap)
        assert report["hibernations"] > 0  # the cap really bit
        assert self._key(report) == self.GOLDENS[scenario, cap]

    def test_city_day_eager_equals_streaming(self):
        self._assert_golden("city-day", 8)

    def test_streaming_identical_under_residency_pressure(self):
        # cap=2 hibernates on nearly every event; cap=50 holds all 50
        # devices and never hibernates.
        churned = self._run("city-day", cap=2)
        resident = self._run("city-day", cap=50)
        assert churned["hibernations"] > 0 == resident["hibernations"]
        assert self._key(churned) == self._key(resident)

    def test_wheel_equals_heap_on_scenario(self):
        self._assert_golden("flash-crowd", 8)

    def test_dtn_buffering_identical_across_substrates(self):
        self._assert_golden("dtn-partition", 4)

    def test_cascade_identical_across_substrates(self):
        self._assert_golden("viral-cascade", 4)


class TestScenarioLibrary:
    def test_four_named_scenarios_ship(self):
        assert {"city-day", "flash-crowd", "viral-cascade",
                "dtn-partition"} <= set(SCENARIOS)

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(SimulationError, match="city-day"):
            get_scenario("block-party")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_runs_clean(self, name):
        report = run_scenario(name, 150, seed=4, active_cap=32)
        assert report["verify_problems"] == []
        assert report["activated"] == 150
        assert report["emitted"] == report["delivered"] \
            + report["buffered_residual"] + report["dropped"]
        assert report["events"] > 150

    def test_arrival_times_monotone(self):
        for spec in SCENARIOS.values():
            times = [spec.arrival_time(i, 1000, spec.horizon_s)
                     for i in range(0, 1000, 13)]
            assert times == sorted(times)
            assert all(0.0 <= t <= spec.horizon_s for t in times)

    def test_flash_crowd_burst_raises_event_rate(self):
        flat = run_scenario("city-day", 200, seed=6, active_cap=64)
        crowd = run_scenario("flash-crowd", 200, seed=6, active_cap=64)
        # Same population; the burst window multiplies the crowd's
        # sensing rate, so flash-crowd emits measurably more per
        # horizon-hour than the diurnal day does.
        flat_rate = flat["emitted"] / flat["horizon_s"]
        crowd_rate = crowd["emitted"] / crowd["horizon_s"]
        assert crowd_rate > flat_rate

    def test_cascade_emits_osn_actions(self):
        report = run_scenario("viral-cascade", 400, seed=2, active_cap=64)
        assert report["cascade_actions"] > 0
        assert report["cascade_skipped"] == 0

    def test_dtn_partition_buffers_and_flushes(self):
        report = run_scenario("dtn-partition", 200, seed=8, active_cap=64)
        assert report["flushes"] > 0
        assert report["emitted"] == report["delivered"] \
            + report["buffered_residual"] + report["dropped"]

    def test_chaos_requires_an_episode(self):
        with pytest.raises(SimulationError, match="chaos"):
            ScenarioEngine(get_scenario("city-day"), 10, chaos=True)

    # Construction only: an infinite horizon or rate never finishes.

    @pytest.mark.parametrize("value", [0.0, -5.0, float("inf"),
                                       float("nan")])
    def test_horizon_must_be_finite_and_positive(self, value):
        with pytest.raises(SimulationError, match="horizon"):
            ScenarioEngine(get_scenario("city-day"), 10, sim_seconds=value)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("inf"),
                                       float("nan")])
    def test_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(SimulationError, match="events per device"):
            ScenarioEngine(get_scenario("city-day"), 10,
                           events_per_device=value)

    def test_omitted_horizon_and_rate_come_from_the_spec(self):
        spec = get_scenario("city-day")
        engine = ScenarioEngine(spec, 10)
        assert (engine.horizon, engine.events_per_device) \
            == (spec.horizon_s, spec.events_per_device)

    def test_flash_crowd_chaos_partitions_and_recovers(self):
        report = run_scenario("flash-crowd", 300, seed=1, active_cap=64,
                              chaos=True)
        assert report["verify_problems"] == []
        assert report["flushes"] > 0  # partitioned devices rejoined


class TestResidencyBounds:
    def test_streaming_respects_active_cap(self):
        engine = ScenarioEngine(get_scenario("city-day"), 300, seed=3,
                                active_cap=16)
        engine.run()
        assert engine.peak_active <= 16
        assert len(engine._active) <= 16
        assert engine.store.hibernations > 0
        assert engine.verify() == []

    def test_eager_keeps_everyone_resident(self):
        # What the eager substrate guaranteed, a cap at the population
        # size gives: every device resident, none ever hibernated, and
        # the delivery fingerprint the eager run recorded.
        engine = ScenarioEngine(get_scenario("city-day"), 100, seed=3,
                                active_cap=100)
        report = engine.run()
        assert len(engine._active) == 100
        assert engine.store.hibernations == 0
        assert report["delivery_fingerprint"] \
            == "dd8184c45fc955a2e28dd48988ca8f7e"
        assert engine.verify() == []

    def test_cold_bytes_per_device_constant(self):
        small = ScenarioEngine(get_scenario("city-day"), 100, seed=1)
        big = ScenarioEngine(get_scenario("city-day"), 1000, seed=1)
        small.run()
        big.run()
        assert small.report()["store_bytes_per_device"] \
            == big.report()["store_bytes_per_device"] == 49.0
