"""Tests for client auto-reconnect: the watchdog, exponential backoff,
resubscription after session loss, QoS-1 replay, and the races between
broker-side expiry and client-side recovery."""

import pytest

from repro.mqtt import MqttBroker, MqttClient
from repro.net import FixedLatency, Network
from repro.simkit import World


@pytest.fixture
def stack():
    world = World(seed=29)
    network = Network(world, default_latency=FixedLatency(0.01))
    broker = MqttBroker(world, network)
    return world, network, broker


def make_client(world, network, name, **kwargs):
    kwargs.setdefault("keepalive", 20.0)
    return MqttClient(world, network, client_id=name,
                      address=f"host/{name}", **kwargs)


class TestWatchdog:
    def test_silence_declares_connection_lost(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect()
        world.run_for(1.0)
        network.set_down("host/c")
        world.run_for(45.0)  # > keepalive * 1.5 + one watchdog period
        assert not client.connected
        assert client.connection_losses == 1

    def test_healthy_connection_never_trips(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect()
        world.run_for(600.0)
        assert client.connected
        assert client.connection_losses == 0

    def test_auto_reconnect_off_stays_down(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c", auto_reconnect=False)
        client.connect()
        world.run_for(1.0)
        network.set_down("host/c")
        world.run_for(60.0)
        network.set_down("host/c", False)
        world.run_for(300.0)
        # No watchdog, no reconnect loop: the model behaves like the
        # pre-hardening client and only the broker notices.
        assert client.reconnects == 0


class TestPublishOrHold:
    def test_held_publishes_go_out_in_order_on_reconnect(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        watcher = make_client(world, network, "w")
        client.connect()
        watcher.connect()
        inbox = []
        watcher.subscribe("t/#", lambda topic, payload: inbox.append(
            (topic, payload, world.now)))
        world.run_for(1.0)
        network.set_down("host/c")
        world.run_for(45.0)
        assert not client.connected
        for index in range(3):
            client.publish_or_hold(f"t/{index}", index, qos=1)
        assert client.publishes_held == 3
        network.set_down("host/c", False)
        world.run_for(60.0)
        assert client.reconnects == 1
        assert client.publishes_held == 0
        assert client.publishes_deferred == 3
        assert [(topic, payload) for topic, payload, _ in inbox] == [
            ("t/0", 0), ("t/1", 1), ("t/2", 2)]
        assert all(at >= client.last_reconnected_at for *_, at in inbox)

    def test_connected_client_publishes_at_once(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect()
        client.publish_or_hold("t", 1, qos=1)
        assert client.publishes_held == 0
        assert client.publishes_sent == 1

    def test_discarded_publishes_never_go_out(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.publish_or_hold("t", 1)
        client.discard_held()
        client.connect()
        client._connection_lost()
        world.run_for(60.0)
        assert client.reconnects == 1
        assert client.publishes_sent == 0


class TestReconnect:
    def test_reconnects_after_partition(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect(clean_session=False)
        world.run_for(1.0)
        network.set_down("host/c")
        world.run_for(60.0)
        assert not client.connected
        network.set_down("host/c", False)
        world.run_for(60.0)
        assert client.connected
        assert client.reconnects == 1
        assert client.last_reconnected_at is not None

    def test_backoff_grows_and_caps(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect()
        world.run_for(1.0)
        network.set_down("host/c")
        world.run_for(600.0)  # a long outage: many failed attempts
        assert client._reconnect_backoff == client.RECONNECT_MAX_S
        network.set_down("host/c", False)
        world.run_for(60.0)  # worst gap is the 30 s cap (+25 % jitter)
        assert client.connected
        assert client._reconnect_backoff == client.RECONNECT_BASE_S

    def test_reconnect_delay_uses_dedicated_rng(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect()
        # Jitter draws come from a per-client stream, so two clients
        # (or a client plus unrelated code) never contend for draws.
        before = world.rng("network").getstate()
        client._schedule_reconnect()
        assert world.rng("network").getstate() == before

    def test_pending_qos1_replayed_on_reconnect(self, stack):
        world, network, broker = stack
        subscriber = make_client(world, network, "sub")
        subscriber.connect(clean_session=False)
        inbox = []
        publisher = make_client(world, network, "pub")
        publisher.connect(clean_session=False)
        world.run_for(1.0)
        subscriber.subscribe("q/x", lambda topic, payload: inbox.append(payload),
                             qos=1)
        world.run_for(1.0)
        network.set_down("host/pub")
        publisher.publish("q/x", "stranded", qos=1)
        # The publish and every retry die against the partition; the
        # watchdog gives up on the link, then connectivity returns.
        world.run_for(120.0)
        assert inbox == []
        network.set_down("host/pub", False)
        world.run_for(60.0)
        assert publisher.connected
        assert inbox == ["stranded"]
        assert publisher._pending == {}

    def test_resubscribes_when_broker_lost_session(self, stack):
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect(clean_session=False)
        inbox = []
        world.run_for(0.5)
        client.subscribe("news/#", lambda topic, payload: inbox.append(payload),
                         qos=1)
        other = make_client(world, network, "other")
        other.connect()
        world.run_for(1.0)
        network.set_down("host/c")
        broker.crash(preserve_persistent_sessions=False)  # amnesiac restart
        broker.restart()
        world.run_for(60.0)
        network.set_down("host/c", False)
        world.run_for(90.0)
        assert client.connected
        other.publish("news/today", "resubscribed", qos=1)
        world.run_for(5.0)
        assert inbox == ["resubscribed"]


class TestExpiryRaces:
    def test_keepalive_expiry_racing_reconnect(self, stack):
        """Satellite: the broker expires the session at ~1.5 keep-alives
        of silence while the client's watchdog fires on the same grace —
        whichever wins, the reconnect must restore a working session."""
        world, network, broker = stack
        client = make_client(world, network, "c")
        client.connect(clean_session=False)
        inbox = []
        world.run_for(0.5)
        client.subscribe("q/x", lambda topic, payload: inbox.append(payload),
                         qos=1)
        publisher = make_client(world, network, "pub", keepalive=60.0)
        publisher.connect()
        world.run_for(1.0)
        network.set_down("host/c")
        # Long enough for BOTH broker expiry and client watchdog to fire.
        world.run_for(120.0)
        assert broker.sessions_expired >= 0  # persistent: kept, not wiped
        assert not client.connected
        network.set_down("host/c", False)
        world.run_for(60.0)
        assert client.connected
        publisher.publish("q/x", "after-the-race", qos=1)
        world.run_for(5.0)
        assert inbox == ["after-the-race"]

    def test_qos1_retransmission_across_partition_window(self, stack):
        """Satellite: a QoS-1 publish sent into a short partition is
        retransmitted (same packet id, duplicate flag) and delivered
        exactly once when the window closes."""
        world, network, broker = stack
        subscriber = make_client(world, network, "sub")
        subscriber.connect(clean_session=False)
        inbox = []
        publisher = make_client(world, network, "pub")
        publisher.connect()
        world.run_for(1.0)
        subscriber.subscribe("q/x", lambda topic, payload: inbox.append(payload),
                             qos=1)
        world.run_for(1.0)
        # A window short enough that the watchdog never trips: pure
        # QoS-1 retransmission carries the message across.
        network.schedule_partition("host/pub", start=world.now, duration=12.0)
        world.run_for(0.5)
        publisher.publish("q/x", "through-the-window", qos=1)
        world.run_for(30.0)
        assert inbox == ["through-the-window"]
        assert publisher._pending == {}
        assert publisher.connection_losses == 0
