"""Multicast membership oracle.

For every query shape, the shared ``select_users`` must name exactly
the users a brute-force pass over full ``users.find()`` documents
names — the registered set included — on the monolith and on a
two-shard cluster, and both deployments must give the same answer.
The geo-clause shortcut (no registered-set scan when a geo clause is
present) is exact only because geo answers come from registered
documents; the unregistered-friend and mixed-clause shapes pin that.
"""

from __future__ import annotations

import pytest

from repro.core.server import MulticastQuery
from repro.core.server.multicast import select_users
from repro.docstore.geo import haversine_km
from repro.scenarios.testbed import SenSocialTestbed

PARIS = (2.3522, 48.8566)

#: user -> last fix ``(lon, lat, place)``; None = no fix yet.
FIXES = {
    "ana": (2.3522, 48.8566, "Paris"),
    "ben": (2.3530, 48.8570, "Paris"),
    "cy": (2.2950, 48.8738, "Paris"),      # ~4.6 km from ana
    "dee": (-0.5792, 44.8378, "Bordeaux"),
    "eve": (-0.5800, 44.8380, "Bordeaux"),
    "fay": None,
}
FRIENDSHIPS = [("ana", "ben"), ("ben", "dee"), ("dee", "eve"), ("cy", "fay")]

#: (query, expected members); the expectation is also derived by brute
#: force below, so a wrong literal and a wrong oracle cannot agree.
SHAPES = {
    "place": (MulticastQuery(place="Paris"), ["ana", "ben", "cy"]),
    "near_point": (MulticastQuery(near_point=PARIS, near_km=2.0),
                   ["ana", "ben"]),
    "near_user_known": (MulticastQuery(near_user="ana", near_user_km=1.0),
                        ["ben"]),
    "near_user_unknown": (MulticastQuery(near_user="fay"), []),
    "friends_hops_1": (MulticastQuery(friends_of="ana", hops=1), ["ben"]),
    "friends_hops_2": (MulticastQuery(friends_of="ana", hops=2),
                       ["ben", "dee"]),
    "user_ids_unregistered": (
        MulticastQuery(user_ids=("ana", "dee", "nobody")), ["ana", "dee"]),
    "place_and_friends": (
        MulticastQuery(place="Paris", friends_of="ana", hops=2), ["ben"]),
    "place_and_user_ids": (
        MulticastQuery(place="Paris", user_ids=("ana", "eve", "nobody")),
        ["ana"]),
}


def deploy(shards: int | None) -> SenSocialTestbed:
    """Registered users with pinned fixes and friendships, one of them
    with a friend (``ghost``) who never registered."""
    testbed = SenSocialTestbed(seed=3, location_update_period_s=None,
                               shards=shards)
    for user_id in FIXES:
        testbed.add_user(user_id, "Paris")
    database = testbed.server.database
    for user_id, fix in FIXES.items():
        if fix is not None:
            database.update_location(user_id, *fix, testbed.world.now)
    for a, b in FRIENDSHIPS:
        testbed.befriend(a, b)
    database.add_friend("ana", "ghost")
    return testbed


def user_documents(testbed: SenSocialTestbed) -> list[dict]:
    server = testbed.server
    workers = server.shard_workers() if testbed.shards else [server]
    return [document for worker in workers
            for document in worker.database.users.find()]


def brute_force(documents: list[dict], query: MulticastQuery) -> list[str]:
    by_id = {document["user_id"]: document for document in documents}

    def point(user_id):
        location = by_id[user_id]["location"] if user_id in by_id else None
        return location["point"] if location is not None else None

    def within(user_id, center, km):
        return point(user_id) is not None \
            and haversine_km(point(user_id), center) <= km

    members = set(by_id)  # every document is a registered user
    if query.place is not None:
        members = {user_id for user_id in members
                   if (by_id[user_id]["location"] or {}).get("place")
                   == query.place}
    if query.near_point is not None:
        members = {user_id for user_id in members
                   if within(user_id, query.near_point, query.near_km)}
    if query.near_user is not None:
        anchor = point(query.near_user)
        members = set() if anchor is None else {
            user_id for user_id in members if user_id != query.near_user
            and within(user_id, anchor, query.near_user_km)}
    if query.user_ids is not None:
        members &= set(query.user_ids)
    if query.friends_of is not None:
        reached: set[str] = set()
        frontier = {query.friends_of}
        for _ in range(query.hops):
            frontier = {friend for user_id in frontier if user_id in by_id
                        for friend in by_id[user_id]["friends"]}
            frontier -= reached | {query.friends_of}
            reached |= frontier
        members &= reached
    return sorted(members)


@pytest.fixture(scope="module")
def deployments() -> dict:
    return {"monolith": deploy(None), "shards=2": deploy(2)}


def test_the_cluster_spreads_users_over_both_shards(deployments):
    workers = deployments["shards=2"].server.shard_workers()
    assert all(worker.database.user_ids() for worker in workers)
    assert "ghost" in deployments["monolith"].server.database.friends_of("ana")


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_select_users_matches_brute_force(deployments, shape):
    query, expected = SHAPES[shape]
    answers = {}
    for name, testbed in deployments.items():
        answer = select_users(testbed.server.database, query)
        assert answer == brute_force(user_documents(testbed), query), name
        assert testbed.server.select_users(query) == answer, name
        answers[name] = answer
    assert answers["monolith"] == answers["shards=2"] == expected
