"""Tests for the implemented future-work extensions: topic mining and
collocation-following multicast streams."""

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.common.errors import MiddlewareError
from repro.core.server import MulticastQuery
from repro.osn import ContentGenerator, TopicClassifier
from repro.simkit import World


class TestTopicClassifier:
    def test_topic_name_wins(self):
        classifier = TopicClassifier()
        assert classifier.classify("talking about football today") == "football"

    def test_noun_evidence_accumulates(self):
        classifier = TopicClassifier()
        assert classifier.classify("the striker scored a goal in the derby") \
            == "football"

    def test_off_vocabulary_text_is_none(self):
        classifier = TopicClassifier()
        assert classifier.classify("xyzzy plugh quux") is None

    def test_empty_text_is_none(self):
        assert TopicClassifier().classify("") is None

    def test_scores_sorted_best_first(self):
        classifier = TopicClassifier()
        scores = classifier.scores("football match after a great dinner")
        assert scores[0].topic == "football"
        assert {score.topic for score in scores} >= {"football", "food"}

    def test_generated_content_is_classifiable(self):
        classifier = TopicClassifier()
        generator = ContentGenerator(World(seed=3).rng("c"))
        correct = 0
        for _ in range(40):
            topic = "music"
            text = generator.generate(topic=topic)
            if classifier.classify(text) == topic:
                correct += 1
        assert correct >= 36  # the vocabulary covers its own generator

    def test_custom_topics_extend_vocabulary(self):
        classifier = TopicClassifier()
        classifier.add_topic("health", ["doctor", "clinic", "checkup"])
        assert classifier.classify("booked a clinic checkup") == "health"
        assert "health" in classifier.topics()

    def test_constructor_vocabulary_merges(self):
        classifier = TopicClassifier({"football": ["var"],
                                      "cinema": ["movie"]})
        assert classifier.classify("watching a movie") == "cinema"
        assert classifier.classify("the var decision") == "football"


class TestCollocationMulticast:
    def test_near_user_membership_follows_the_person(self, testbed):
        """§3.2: every time the person moves, streams are recreated on
        the devices of the users currently nearby."""
        anchor = testbed.add_user("anchor", "Paris")
        nearby = testbed.add_user("nearby", "Paris")
        far = testbed.add_user("far", "Bordeaux")
        # Pin everyone at deterministic positions.
        for node in (anchor, nearby, far):
            node.mobility.stop()
        anchor.phone.environment.move_to(2.3522, 48.8566)
        nearby.phone.environment.move_to(2.3525, 48.8567)
        far.phone.environment.move_to(-0.5792, 44.8378)
        testbed.run(400.0)  # location updates reach the server

        multicast = testbed.server.create_multicast_stream(
            ModalityType.BLUETOOTH, Granularity.CLASSIFIED,
            MulticastQuery(near_user="anchor", near_user_km=1.0))
        assert multicast.members() == ["nearby"]

        # The anchor relocates to Bordeaux; membership follows.
        anchor.phone.environment.move_to(-0.5793, 44.8379)
        testbed.run(400.0)
        assert multicast.members() == ["far"]

    def test_near_user_with_unknown_location_selects_nobody(self, testbed):
        testbed.add_user("anchor", "Paris")
        testbed.add_user("other", "Paris")
        # No location updates have flowed yet.
        multicast = testbed.server.create_multicast_stream(
            ModalityType.WIFI, Granularity.RAW,
            MulticastQuery(near_user="anchor"))
        assert multicast.members() == []

    def test_near_user_excludes_the_person_themselves(self, testbed):
        anchor = testbed.add_user("anchor", "Paris")
        anchor.mobility.stop()
        testbed.run(400.0)
        multicast = testbed.server.create_multicast_stream(
            ModalityType.WIFI, Granularity.RAW,
            MulticastQuery(near_user="anchor", near_user_km=50.0))
        assert "anchor" not in multicast.members()

    def test_invalid_radius_rejected(self):
        with pytest.raises(MiddlewareError):
            MulticastQuery(near_user="x", near_user_km=0.0)

    @pytest.mark.parametrize("near_km", [0.0, -1.0])
    def test_invalid_near_point_radius_rejected(self, near_km):
        with pytest.raises(MiddlewareError, match="near_km must be > 0"):
            MulticastQuery(near_point=(2.35, 48.85), near_km=near_km)
