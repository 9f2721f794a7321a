"""Minimum-cost-flow topic↔event matching — the paper's §6 future work.

The deployed system matches each news topic to its single best-scoring
news event independently (greedy argmax, §4.5).  The conclusion proposes
Minimum Cost Flow as a global alternative: treat topics and events as two
node layers, similarities as negated edge costs, and solve for the
assignment that maximizes *total* similarity under capacity constraints.
Greedy matching can assign two topics to the same event while a slightly
worse pairing would cover more topics; the flow formulation trades those
off globally.

Implementation: integer min-cost flow on a bipartite network via
``networkx.max_flow_min_cost`` with costs scaled to integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

_COST_SCALE = 10_000  # similarity -> integer cost resolution


@dataclass
class Match:
    """One matched (left, right) pair with its similarity."""

    left: int
    right: int
    similarity: float


class MinCostFlowMatcher:
    """Globally optimal bipartite matching over a similarity matrix.

    Parameters
    ----------
    similarity_threshold:
        Edges below this similarity are not created at all.
    left_capacity / right_capacity:
        How many partners each left/right node may take (1 = matching;
        the paper's greedy scheme effectively uses left_capacity=1 with
        unbounded right capacity).
    """

    def __init__(
        self,
        similarity_threshold: float = 0.0,
        left_capacity: int = 1,
        right_capacity: int = 1,
    ) -> None:
        if left_capacity < 1 or right_capacity < 1:
            raise ValueError("capacities must be >= 1")
        self.similarity_threshold = similarity_threshold
        self.left_capacity = left_capacity
        self.right_capacity = right_capacity

    def match(
        self,
        similarities: np.ndarray,
        eligible: Optional[np.ndarray] = None,
    ) -> List[Match]:
        """Solve the assignment for a (n_left, n_right) similarity matrix.

        *eligible*, when given, is a boolean mask of allowed pairs (the
        correlation module uses it for the 5-day start-window rule).
        Returns matches sorted by descending similarity.
        """
        sims = np.asarray(similarities, dtype=np.float64)
        if sims.ndim != 2:
            raise ValueError("similarities must be a 2-D matrix")
        n_left, n_right = sims.shape
        if n_left == 0 or n_right == 0:
            return []
        if eligible is None:
            eligible = np.ones_like(sims, dtype=bool)
        eligible = np.asarray(eligible, dtype=bool)
        if eligible.shape != sims.shape:
            raise ValueError("eligibility mask shape mismatch")

        # networkx is a dev-only dependency: importing it here keeps
        # ``import repro`` working with just the declared dependencies.
        import networkx as nx

        graph = nx.DiGraph()
        source, sink = "s", "t"
        for i in range(n_left):
            graph.add_edge(source, ("L", i), capacity=self.left_capacity, weight=0)
        for j in range(n_right):
            graph.add_edge(("R", j), sink, capacity=self.right_capacity, weight=0)
        n_edges = 0
        for i in range(n_left):
            for j in range(n_right):
                if not eligible[i, j]:
                    continue
                sim = sims[i, j]
                if sim < self.similarity_threshold:
                    continue
                graph.add_edge(
                    ("L", i),
                    ("R", j),
                    capacity=1,
                    weight=-int(round(sim * _COST_SCALE)),
                )
                n_edges += 1
        if n_edges == 0:
            return []

        flow = nx.max_flow_min_cost(graph, source, sink)
        matches: List[Match] = []
        for i in range(n_left):
            for (kind, j), units in flow.get(("L", i), {}).items():
                if kind == "R" and units > 0:
                    matches.append(Match(left=i, right=j, similarity=float(sims[i, j])))
        matches.sort(key=lambda m: -m.similarity)
        return matches

    def total_similarity(self, matches: Sequence[Match]) -> float:
        """Objective value of a match set."""
        return float(sum(m.similarity for m in matches))


def greedy_matches(
    similarities: np.ndarray,
    similarity_threshold: float = 0.0,
    eligible: Optional[np.ndarray] = None,
) -> List[Match]:
    """The paper's per-topic argmax matching, for side-by-side comparison.

    Each left node independently takes its best eligible right node; right
    nodes may be reused (exactly the §4.5 behaviour).
    """
    sims = np.asarray(similarities, dtype=np.float64)
    n_left, n_right = sims.shape if sims.ndim == 2 else (0, 0)
    if n_left == 0 or n_right == 0:
        return []
    if eligible is None:
        eligible = np.ones_like(sims, dtype=bool)
    matches: List[Match] = []
    for i in range(n_left):
        masked = np.where(eligible[i], sims[i], -np.inf)
        j = int(np.argmax(masked))
        if np.isfinite(masked[j]) and masked[j] >= similarity_threshold:
            matches.append(Match(left=i, right=j, similarity=float(sims[i, j])))
    matches.sort(key=lambda m: -m.similarity)
    return matches


def coverage(matches: Sequence[Match], side: str = "right") -> int:
    """Distinct nodes covered on one side of a match set."""
    if side == "left":
        return len({m.left for m in matches})
    if side == "right":
        return len({m.right for m in matches})
    raise ValueError("side must be 'left' or 'right'")
