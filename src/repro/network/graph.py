"""Directed social graph — the network substrate of §1.

The paper frames its problem on "the network graph structure modelling
the relationships between members of different social groups": nodes at
a group's center are *influencers*, nodes that like/retweet are
*spreaders*.  :class:`SocialGraph` is a lightweight directed graph
(follower -> followee edges) with the builders the reproduction needs:

* :meth:`from_population` — synthesize a follower graph consistent with a
  :class:`~repro.datagen.UserPopulation`'s follower counts and topic
  affinities (followers preferentially attach to high-count accounts and
  to accounts sharing their interests);
* plain ``add_node`` / ``add_edge`` construction for tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

import numpy as np


class SocialGraph:
    """Directed graph; an edge u -> v means *u follows v*.

    Reach flows opposite to follow edges: a message by ``v`` is seen by
    ``v``'s followers (the in-neighbourhood under this orientation is
    exposed via :meth:`followers_of`).
    """

    def __init__(self) -> None:
        self._following: Dict[str, Set[str]] = {}
        self._followers: Dict[str, Set[str]] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, node: str) -> None:
        """Ensure *node* exists in the graph."""
        self._following.setdefault(node, set())
        self._followers.setdefault(node, set())

    def add_edge(self, follower: str, followee: str) -> None:
        """Record that *follower* follows *followee*.

        Self-loops register the node but create no edge.
        """
        if follower == followee:
            self.add_node(follower)
            return
        self.add_node(follower)
        self.add_node(followee)
        self._following[follower].add(followee)
        self._followers[followee].add(follower)

    @classmethod
    def from_population(
        cls,
        population,
        max_following: int = 50,
        seed: int = 0,
    ) -> "SocialGraph":
        """Synthesize a follower graph from a user population.

        Each user follows up to *max_following* accounts, drawn with
        probability proportional to (follower_count)^0.8 *
        (1 + topic-affinity overlap) — preferential attachment shaped by
        shared interests, which concentrates in-degree on the designated
        influencers the way the paper's §1 describes.
        """
        rng = np.random.default_rng(seed)
        graph = cls()
        users = population.users
        for user in users:
            graph.add_node(user.handle)
        counts = np.array([u.followers for u in users], dtype=np.float64)
        base = counts ** 0.8
        base /= base.sum()
        # Affinity vectors for interest overlap.
        topics = sorted({t for u in users for t in u.topic_affinity})
        affinity = np.array(
            [[u.topic_affinity.get(t, 0.0) for t in topics] for u in users]
        )
        for i, user in enumerate(users):
            overlap = affinity @ affinity[i]
            weights = base * (1.0 + 5.0 * overlap)
            weights[i] = 0.0
            total = weights.sum()
            if total <= 0:
                continue
            weights /= total
            n_follow = int(
                rng.integers(1, max(2, min(max_following, len(users) - 1)))
            )
            followees = rng.choice(
                len(users), size=n_follow, replace=False, p=weights
            )
            for j in followees:
                graph.add_edge(user.handle, users[int(j)].handle)
        return graph

    # -- accessors ---------------------------------------------------------------

    def nodes(self) -> List[str]:
        """All node handles, in insertion order."""
        return list(self._following.keys())

    def __len__(self) -> int:
        return len(self._following)

    def __contains__(self, node: str) -> bool:
        return node in self._following

    def num_edges(self) -> int:
        """Total number of follow edges."""
        return sum(len(f) for f in self._following.values())

    def following_of(self, node: str) -> Set[str]:
        """Accounts *node* follows (out-neighbours)."""
        return set(self._following.get(node, ()))

    def followers_of(self, node: str) -> Set[str]:
        """Accounts following *node* (in-neighbours — the node's reach)."""
        return set(self._followers.get(node, ()))

    def in_degree(self, node: str) -> int:
        """Number of followers of *node*."""
        return len(self._followers.get(node, ()))

    def out_degree(self, node: str) -> int:
        """Number of accounts *node* follows."""
        return len(self._following.get(node, ()))

    def remove_node(self, node: str) -> None:
        """Delete a node and all incident edges (used by immunization)."""
        for followee in self._following.pop(node, set()):
            self._followers[followee].discard(node)
        for follower in self._followers.pop(node, set()):
            self._following[follower].discard(node)

    def copy(self) -> "SocialGraph":
        """Independent deep copy of the graph."""
        clone = SocialGraph()
        clone._following = {n: set(f) for n, f in self._following.items()}
        clone._followers = {n: set(f) for n, f in self._followers.items()}
        return clone

    def edges(self) -> Iterator[tuple]:
        """Iterate over (follower, followee) pairs."""
        for follower, followees in self._following.items():
            for followee in followees:
                yield follower, followee
