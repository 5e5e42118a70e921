"""Topic-level tries for broker routing and retained-message lookup.

The broker's original routing path scanned every session × subscription
per PUBLISH and re-split each topic filter inside ``topic_matches`` —
O(S·F·L) string work per message.  These tries replace that with work
proportional to the *topic's level count* plus the number of actual
matches:

* :class:`SubscriptionTrie` — one node per filter level; ``+`` is an
  ordinary child keyed ``"+"`` that the matcher always follows, and a
  filter ending in ``#`` registers its subscriber on the parent node's
  ``hash_subscribers`` table (MQTT 3.1.1: ``a/#`` matches ``a`` itself
  and everything below it).  ``add``/``discard`` maintain the structure
  incrementally as sessions subscribe, unsubscribe and tear down.
* :class:`RetainedTrie` — a plain topic trie (no wildcards in stored
  names) matched *against a filter*, used to deliver retained messages
  to a new subscription without scanning the whole retained table.

Both tries count the work they do (nodes visited + entries considered)
in ``checks``, which ``benchmarks/test_hotpath_perf.py`` reads to
prove routing work per publish is sublinear in the total subscription
count.
"""

from __future__ import annotations

from typing import Any, Iterator


class _SubNode:
    """One filter level.  ``subscribers`` holds filters terminating
    here; ``hash_subscribers`` holds filters whose next (final) level
    is ``#``."""

    __slots__ = ("children", "subscribers", "hash_subscribers")

    def __init__(self):
        self.children: dict[str, _SubNode] = {}
        self.subscribers: dict[str, int] = {}
        self.hash_subscribers: dict[str, int] = {}

    def is_empty(self) -> bool:
        return (not self.children and not self.subscribers
                and not self.hash_subscribers)


class SubscriptionTrie:
    """client-id → qos tables hung off a trie of filter levels."""

    def __init__(self):
        self._root = _SubNode()
        self._filters = 0
        #: Cumulative match work: nodes visited plus subscriber entries
        #: considered.  The hot-path gate diffs this across publishes.
        self.checks = 0

    def __len__(self) -> int:
        """Number of (client, filter) registrations currently held."""
        return self._filters

    # -- maintenance --------------------------------------------------

    def add(self, filter_levels: list[str], client_id: str, qos: int) -> None:
        """Register (or re-register with a new qos) one subscription.

        ``filter_levels`` must already be validated
        (:func:`repro.mqtt.topics.validate_filter`).
        """
        node, table = self._terminal(filter_levels, create=True)
        if client_id not in table:
            self._filters += 1
        table[client_id] = qos

    def discard(self, filter_levels: list[str], client_id: str) -> None:
        """Remove one subscription; prunes now-empty branches."""
        path: list[tuple[_SubNode, str]] = []
        node = self._root
        levels = filter_levels[:-1] if filter_levels[-1] == "#" else filter_levels
        for level in levels:
            child = node.children.get(level)
            if child is None:
                return
            path.append((node, level))
            node = child
        table = (node.hash_subscribers if filter_levels[-1] == "#"
                 else node.subscribers)
        if table.pop(client_id, None) is None:
            return
        self._filters -= 1
        for parent, level in reversed(path):
            if not node.is_empty():
                break
            del parent.children[level]
            node = parent

    def _terminal(self, filter_levels: list[str],
                  create: bool) -> tuple[_SubNode, dict[str, int]]:
        node = self._root
        hash_terminal = filter_levels[-1] == "#"
        levels = filter_levels[:-1] if hash_terminal else filter_levels
        for level in levels:
            child = node.children.get(level)
            if child is None:
                if not create:
                    raise KeyError(level)
                child = _SubNode()
                node.children[level] = child
            node = child
        return node, (node.hash_subscribers if hash_terminal
                      else node.subscribers)

    # -- matching -----------------------------------------------------

    def match(self, topic_levels: list[str]) -> dict[str, int]:
        """``client_id → max matching filter qos`` for a topic name.

        Work is proportional to the trie paths the topic touches, not
        to the total number of subscriptions.
        """
        matched: dict[str, int] = {}
        checks = self._collect(self._root, topic_levels, 0, matched)
        self.checks += checks
        return matched

    def _collect(self, node: _SubNode, levels: list[str], index: int,
                 matched: dict[str, int]) -> int:
        checks = 1  # this node
        # ``#`` at this depth matches the remaining levels — including
        # none of them (``a/#`` matches ``a``).
        if node.hash_subscribers:
            checks += len(node.hash_subscribers)
            _merge(matched, node.hash_subscribers)
        if index == len(levels):
            if node.subscribers:
                checks += len(node.subscribers)
                _merge(matched, node.subscribers)
            return checks
        level = levels[index]
        child = node.children.get(level)
        if child is not None:
            checks += self._collect(child, levels, index + 1, matched)
        plus = node.children.get("+")
        if plus is not None:
            checks += self._collect(plus, levels, index + 1, matched)
        return checks


def _merge(matched: dict[str, int], table: dict[str, int]) -> None:
    for client_id, qos in table.items():
        best = matched.get(client_id)
        if best is None or qos > best:
            matched[client_id] = qos


class _TopicNode:
    __slots__ = ("children", "value")

    def __init__(self):
        self.children: dict[str, _TopicNode] = {}
        self.value: Any = None  # None = no retained message here


class RetainedTrie:
    """Retained messages keyed by topic, matched against a filter."""

    def __init__(self):
        self._root = _TopicNode()
        self.checks = 0

    def set(self, topic_levels: list[str], value: Any) -> None:
        node = self._root
        for level in topic_levels:
            node = node.children.setdefault(level, _TopicNode())
        node.value = value

    def delete(self, topic_levels: list[str]) -> None:
        path: list[tuple[_TopicNode, str]] = []
        node = self._root
        for level in topic_levels:
            child = node.children.get(level)
            if child is None:
                return
            path.append((node, level))
            node = child
        node.value = None
        for parent, level in reversed(path):
            if node.children or node.value is not None:
                break
            del parent.children[level]
            node = parent

    def clear(self) -> None:
        self._root = _TopicNode()

    def match_filter(self, filter_levels: list[str]) -> list[tuple[str, Any]]:
        """``(topic, value)`` pairs matching a subscription filter,
        sorted by topic (the broker's historical delivery order)."""
        found: list[tuple[str, Any]] = []
        self._walk(self._root, filter_levels, 0, [], found)
        found.sort(key=lambda pair: pair[0])
        return found

    def _walk(self, node: _TopicNode, pattern: list[str], index: int,
              prefix: list[str], found: list[tuple[str, Any]]) -> None:
        self.checks += 1
        if index == len(pattern):
            if node.value is not None:
                found.append(("/".join(prefix), node.value))
            return
        level = pattern[index]
        if level == "#":
            # ``#`` matches the parent level itself and every child.
            self._subtree(node, prefix, found)
            return
        if level == "+":
            for child_level, child in node.children.items():
                prefix.append(child_level)
                self._walk(child, pattern, index + 1, prefix, found)
                prefix.pop()
            return
        child = node.children.get(level)
        if child is not None:
            prefix.append(level)
            self._walk(child, pattern, index + 1, prefix, found)
            prefix.pop()

    def _subtree(self, node: _TopicNode, prefix: list[str],
                 found: list[tuple[str, Any]]) -> None:
        self.checks += 1
        if node.value is not None:
            found.append(("/".join(prefix), node.value))
        for level, child in node.children.items():
            prefix.append(level)
            self._subtree(child, prefix, found)
            prefix.pop()

    def items(self) -> Iterator[tuple[str, Any]]:
        """All retained (topic, value) pairs, unordered."""
        stack: list[tuple[_TopicNode, list[str]]] = [(self._root, [])]
        while stack:
            node, prefix = stack.pop()
            if node.value is not None:
                yield "/".join(prefix), node.value
            for level, child in node.children.items():
                stack.append((child, prefix + [level]))
