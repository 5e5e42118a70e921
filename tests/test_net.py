"""Unit tests for the network substrate."""

import pytest
from hypothesis import given, strategies as st

from repro.core.common import ModalityType
from repro.mqtt import packets
from repro.net import (
    DuplicateEndpointError,
    FixedLatency,
    GaussianLatency,
    Network,
    UniformLatency,
    UnknownEndpointError,
    estimate_size,
)
from repro.simkit import World


def make_network(seed=1, latency=None):
    world = World(seed=seed)
    return world, Network(world, default_latency=latency or FixedLatency(0.1))


def _reference_size(payload):
    """The plain recursive estimate: one ``isinstance`` chain per value."""
    if payload is None:
        return 4
    if isinstance(payload, bool):
        return 5
    if isinstance(payload, (int, float)):
        return len(repr(payload))
    if isinstance(payload, str):
        return len(payload.encode("utf-8")) + 2
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, dict):
        return 2 + sum(_reference_size(k) + _reference_size(v) + 2
                       for k, v in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 2 + sum(_reference_size(item) + 1 for item in payload)
    return len(repr(payload))


_KEYS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(max_size=12),
    st.text(st.characters(max_codepoint=127), max_size=12),
    st.binary(max_size=8),
    st.sampled_from(list(ModalityType)),
)
_PACKETS = st.one_of(
    st.builds(packets.Publish, topic=st.text(max_size=12),
              payload=_KEYS, qos=st.sampled_from([0, 1])),
    st.builds(packets.PubAck, st.integers(0, 2 ** 16)),
    st.builds(packets.Connect, client_id=st.text(max_size=8)),
    st.just(packets.PingReq()),
)
_SIZED_VALUES = st.recursive(
    st.one_of(_KEYS, _PACKETS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(_KEYS, max_size=4),
        st.frozensets(_KEYS, max_size=4),
        st.dictionaries(_KEYS, children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    ),
    max_leaves=24)


class TestLatencyModels:
    def test_fixed_latency_is_constant(self, world):
        model = FixedLatency(0.5)
        rng = world.rng("x")
        assert all(model.sample(rng) == 0.5 for _ in range(10))

    def test_fixed_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_uniform_latency_within_bounds(self, world):
        model = UniformLatency(0.1, 0.3)
        rng = world.rng("x")
        samples = [model.sample(rng) for _ in range(100)]
        assert all(0.1 <= sample <= 0.3 for sample in samples)
        assert model.mean() == pytest.approx(0.2)

    def test_uniform_latency_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.3, 0.1)

    def test_gaussian_latency_respects_floor(self, world):
        model = GaussianLatency(0.0, 10.0, floor=1.0)
        rng = world.rng("x")
        assert all(model.sample(rng) >= 1.0 for _ in range(100))

    def test_gaussian_latency_mean_is_mu(self):
        assert GaussianLatency(46.0, 2.8).mean() == 46.0

    def test_gaussian_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianLatency(1.0, -1.0)


class TestSizeEstimation:
    def test_string_size_tracks_length(self):
        assert estimate_size("abcd") > estimate_size("ab")

    def test_dict_size_includes_keys_and_values(self):
        assert estimate_size({"key": "value"}) > estimate_size("value")

    def test_list_size_sums_elements(self):
        assert estimate_size([1, 2, 3]) >= 3

    def test_none_has_small_size(self):
        assert estimate_size(None) == 4

    def test_bytes_size_is_length(self):
        assert estimate_size(b"12345") == 5

    @given(st.one_of(st.text(), st.text(st.characters(max_codepoint=127))))
    def test_string_size_is_utf8_length(self, text):
        assert estimate_size(text) == len(text.encode("utf-8")) + 2

    @given(_SIZED_VALUES)
    def test_size_equals_the_recursive_reference(self, value):
        """Every wire size, and so every radio charge and byte counter,
        is what the plain recursive estimate gives."""
        assert estimate_size(value) == _reference_size(value)


class TestDelivery:
    def test_message_arrives_after_latency(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.send("a", "b", {"hello": 1})
        assert inbox == []
        world.run_for(0.2)
        assert len(inbox) == 1
        assert inbox[0].payload == {"hello": 1}
        assert inbox[0].latency == pytest.approx(0.1)

    def test_unknown_destination_rejected(self):
        _, network = make_network()
        network.register("a", lambda message: None)
        with pytest.raises(UnknownEndpointError):
            network.send("a", "ghost", {})

    def test_duplicate_registration_rejected(self):
        _, network = make_network()
        network.register("a", lambda message: None)
        with pytest.raises(DuplicateEndpointError):
            network.register("a", lambda message: None)

    def test_unregister_then_reuse_address(self):
        _, network = make_network()
        network.register("a", lambda message: None)
        network.unregister("a")
        network.register("a", lambda message: None)

    def test_per_link_fifo_ordering(self):
        world = World(seed=3)
        network = Network(world, default_latency=UniformLatency(0.01, 0.5))
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", lambda message: inbox.append(message.payload))
        for index in range(50):
            network.send("a", "b", index)
        world.run_for(5.0)
        assert inbox == list(range(50))

    def test_link_latency_override(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.set_link_latency("a", "b", FixedLatency(2.0))
        network.send("a", "b", "x")
        world.run_for(1.0)
        assert inbox == []
        world.run_for(1.5)
        assert len(inbox) == 1

    def test_endpoint_latency_override(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.set_endpoint_latency("b", FixedLatency(3.0))
        network.send("a", "b", "x")
        world.run_for(2.9)
        assert inbox == []
        world.run_for(0.2)
        assert len(inbox) == 1

    def test_counters(self):
        world, network = make_network()
        network.register("a", lambda message: None)
        network.register("b", lambda message: None)
        network.send("a", "b", "xyz")
        assert network.messages_sent == 1
        assert network.bytes_sent > 0


class TestPartitions:
    def test_messages_to_down_endpoint_are_dropped(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.set_down("b")
        network.send("a", "b", "lost")
        world.run_for(1.0)
        assert inbox == []
        assert network.messages_dropped == 1
        assert network.partition_drops == 1
        assert network.drop_count("b") == 1

    def test_endpoint_recovers_after_partition(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.set_down("b")
        network.send("a", "b", "lost")
        network.set_down("b", False)
        network.send("a", "b", "found")
        world.run_for(1.0)
        assert [message.payload for message in inbox] == ["found"]

    def test_in_flight_message_dropped_if_destination_goes_down(self):
        world, network = make_network()
        inbox = []
        network.register("a", lambda message: None)
        network.register("b", inbox.append)
        network.send("a", "b", "in-flight")
        network.set_down("b")
        world.run_for(1.0)
        assert inbox == []
        assert network.messages_dropped == 1
        assert network.drop_count("b") == 1
