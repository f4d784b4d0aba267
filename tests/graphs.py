"""A test-only Graph builder: the package builds every graph it samples or reads through ``rmat.sanitize``."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from graphbargain.graph import Graph


def from_edge_list(edges: Iterable[tuple[int, int]], node_count: int | None = None) -> Graph:
    """The graph of simple undirected edges, each listed once in either orientation and in any order.

    ``node_count`` defaults to max node id + 1. A self-loop, a repeated edge or a node_count below
    max id + 1 raises ValueError, so a test cannot build a graph that breaks Graph's invariants.
    """
    if not isinstance(edges, (np.ndarray, Sequence)):
        edges = list(edges)
    pairs = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    n = int(pairs.max()) + 1 if len(pairs) else 0
    if node_count is not None:
        if node_count < n:
            raise ValueError("node_count smaller than max node id + 1")
        n = node_count
    unique = np.unique(pairs, axis=0)
    if len(unique) < len(pairs) or np.any(unique[:, 0] == unique[:, 1]):
        raise ValueError("self-loop or repeated edge")
    return Graph(n, unique)
