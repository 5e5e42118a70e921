"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.simkit import Scheduler, SchedulingError, World
from repro.simkit.scheduler import PeriodicTask


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Scheduler().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Scheduler(start_time=100.0).now == 100.0

    def test_event_fires_at_scheduled_time(self):
        scheduler = Scheduler()
        fired_at = []
        scheduler.schedule(5.0, lambda: fired_at.append(scheduler.now))
        scheduler.run()
        assert fired_at == [5.0]

    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.schedule(3.0, order.append, "c")
        scheduler.schedule(1.0, order.append, "a")
        scheduler.schedule(2.0, order.append, "b")
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        scheduler = Scheduler()
        order = []
        for label in ["first", "second", "third"]:
            scheduler.schedule(1.0, order.append, label)
        scheduler.run()
        assert order == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule(2.0, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulingError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        scheduler = Scheduler()
        seen = []

        def chain(depth):
            seen.append(scheduler.now)
            if depth > 0:
                scheduler.schedule(1.0, chain, depth - 1)

        scheduler.schedule(0.0, chain, 3)
        scheduler.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_advances_clock_even_when_idle(self):
        scheduler = Scheduler()
        scheduler.run_until(50.0)
        assert scheduler.now == 50.0

    def test_run_until_does_not_fire_later_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(10.0, fired.append, True)
        scheduler.run_until(5.0)
        assert fired == []
        scheduler.run_until(10.0)
        assert fired == [True]

    def test_run_until_fires_an_event_at_exactly_until(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule_at(10.0, fired.append, "at")
        scheduler.schedule_at(10.000001, fired.append, "after")
        scheduler.run_until(10.0)
        assert fired == ["at"]
        assert scheduler.now == 10.0
        assert scheduler.pending_count() == 1
        assert scheduler.peek_time() == 10.000001

    def test_run_until_drops_cancelled_heads_before_a_later_event(self):
        scheduler = Scheduler()
        fired = []
        doomed = [scheduler.schedule_at(float(t), fired.append, t)
                  for t in (1, 2, 3)]
        scheduler.schedule_at(20.0, fired.append, 20)
        for handle in doomed:
            handle.cancel()
        assert scheduler.pending_count() == 1
        scheduler.run_until(10.0)
        assert fired == []
        # The cancelled heads are gone; the live event stays queued.
        assert len(scheduler.queue._heap) == 1
        assert scheduler.pending_count() == 1
        scheduler.run_until(20.0)
        assert fired == [20]
        assert scheduler.pending_count() == 0

    def test_compaction_inside_run_until_fires_live_events_once(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        fired = []
        victims = []

        def cancel_most():
            # Cancelling every victim makes the dead entries a majority
            # of a queue past COMPACT_MIN, so the heap is rebuilt while
            # run_until is between two pops.
            for handle in victims:
                handle.cancel()
            scheduler.schedule_at(2.5, fired.append, (2.5, "late"))

        scheduler.schedule_at(1.0, cancel_most)
        live = [(float(2 + index % 5), index) for index in range(40)]
        for at, index in live:
            scheduler.schedule_at(at, fired.append, (at, index))
        # Victims interleave with the live events, so the sweep leaves
        # holes all through the heap.
        victims.extend(scheduler.schedule_at(1.5 + (index * 37) % 97 / 10,
                                             fired.append, ("victim", index))
                       for index in range(3 * queue.COMPACT_MIN))
        scheduler.run_until(100.0)
        assert queue.compactions >= 1
        # Ties fire in scheduling order: (time, seq) order is the order
        # the live events were scheduled within each instant.
        expected = sorted(live + [(2.5, "late")], key=lambda entry: entry[0])
        assert fired == expected
        assert scheduler.pending_count() == 0
        assert scheduler.events_processed == 1 + len(expected)

    def test_run_until_backwards_rejected(self):
        scheduler = Scheduler()
        scheduler.run_until(10.0)
        with pytest.raises(SchedulingError):
            scheduler.run_until(5.0)

    # A NaN compares false against every number, so a ``time < now``
    # check lets it through: it would fire first and set the clock to
    # NaN, after which every past-time schedule is accepted.

    def test_nan_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().schedule(float("nan"), lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().schedule_at(float("nan"), lambda: None)

    def test_run_until_nan_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(SchedulingError):
            scheduler.run_until(float("nan"))
        assert scheduler.now == 0.0

    def test_run_for_is_relative(self):
        scheduler = Scheduler()
        scheduler.run_for(3.0)
        scheduler.run_for(4.0)
        assert scheduler.now == 7.0

    def test_run_caps_events(self):
        scheduler = Scheduler()
        for _ in range(10):
            scheduler.schedule(1.0, lambda: None)
        assert scheduler.run(max_events=4) == 4
        assert scheduler.pending_count() == 6

    def test_events_processed_counter(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.schedule(1.0, fired.append, True)
        handle.cancel()
        scheduler.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        scheduler = Scheduler()
        handle = scheduler.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert scheduler.pending_count() == 0

    def test_pending_count_excludes_cancelled(self):
        scheduler = Scheduler()
        keep = scheduler.schedule(1.0, lambda: None)
        drop = scheduler.schedule(2.0, lambda: None)
        drop.cancel()
        assert scheduler.pending_count() == 1
        keep.cancel()
        assert scheduler.pending_count() == 0

    def test_peek_time_skips_cancelled(self):
        scheduler = Scheduler()
        early = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(5.0, lambda: None)
        early.cancel()
        assert scheduler.peek_time() == 5.0


class TestPeriodicTasks:
    def test_periodic_fires_repeatedly(self):
        scheduler = Scheduler()
        times = []
        scheduler.every(10.0, lambda: times.append(scheduler.now))
        scheduler.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_periodic_with_delay(self):
        scheduler = Scheduler()
        times = []
        scheduler.every(10.0, lambda: times.append(scheduler.now), delay=5.0)
        scheduler.run_until(30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_periodic_cancel_stops_firing(self):
        scheduler = Scheduler()
        times = []
        task = scheduler.every(10.0, lambda: times.append(scheduler.now))
        scheduler.run_until(15.0)
        task.cancel()
        scheduler.run_until(100.0)
        assert times == [0.0, 10.0]

    def test_periodic_cancel_from_inside_callback(self):
        scheduler = Scheduler()
        count = []

        def fire():
            count.append(1)
            if len(count) == 3:
                task.cancel()

        task = scheduler.every(1.0, fire)
        scheduler.run_until(100.0)
        assert len(count) == 3

    def test_fire_count(self):
        scheduler = Scheduler()
        task = scheduler.every(1.0, lambda: None, delay=1.0)
        scheduler.run_until(5.0)
        assert task.fire_count == 5

    def test_zero_interval_rejected(self):
        with pytest.raises(SchedulingError):
            PeriodicTask(Scheduler(), 0.0, lambda: None, ())

    def test_nan_interval_rejected(self):
        with pytest.raises(SchedulingError):
            PeriodicTask(Scheduler(), float("nan"), lambda: None, ())


class TestWorld:
    def test_component_registry_round_trip(self):
        world = World()
        component = object()
        world.attach("thing", component)
        assert world.component("thing") is component
        assert world.has_component("thing")

    def test_duplicate_attach_rejected(self):
        from repro.simkit import SimulationError
        world = World()
        world.attach("thing", object())
        with pytest.raises(SimulationError):
            world.attach("thing", object())

    def test_missing_component_rejected(self):
        from repro.simkit import SimulationError
        with pytest.raises(SimulationError):
            World().component("ghost")

    def test_detach_removes(self):
        world = World()
        world.attach("thing", object())
        world.detach("thing")
        assert not world.has_component("thing")

    def test_rng_streams_are_independent_of_creation_order(self):
        world_a = World(seed=9)
        first = world_a.rng("alpha").random()
        world_b = World(seed=9)
        world_b.rng("beta").random()  # extra consumer must not perturb alpha
        assert world_b.rng("alpha").random() == first

    def test_rng_streams_differ_by_name(self):
        world = World(seed=9)
        assert world.rng("a").random() != world.rng("b").random()

    def test_rng_streams_differ_by_seed(self):
        assert World(seed=1).rng("x").random() != World(seed=2).rng("x").random()

    def test_fork_produces_independent_streams(self):
        world = World(seed=5)
        forked = world.randoms.fork("child")
        assert forked.stream("x").random() != world.rng("x").random()
