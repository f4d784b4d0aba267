"""Simple undirected graphs and the two metrics that define the metric projection."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

__all__ = [
    "Graph",
    "MetricPoint",
    "largest_connected_component",
    "mean_local_clustering",
    "metric_projection",
]


@dataclass(frozen=True)
class MetricPoint:
    """A graph's coordinates in metric space.

    clustering: mean local clustering coefficient, in [0, 1].
    dlog: log10 of the graph density 2E / (N(N-1)); <= 0 for any simple graph.
    """

    clustering: float
    dlog: float


# Largest n whose edge keys u * n + v (at most n * n - 1) fit in int64.
MAX_KEYED_NODES = 3_037_000_499


def _edge_keys(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Sorted int64 keys u * n + v and v * n + u; ValueError first if they would overflow."""
    if n > MAX_KEYED_NODES:
        raise ValueError(f"{n} nodes overflow the int64 edge keys (at most {MAX_KEYED_NODES})")
    keys = np.concatenate([u * n + v, v * n + u])
    keys.sort()
    return keys


class Graph:
    """Immutable simple undirected graph stored as sorted adjacency lists.

    Internally CSR-shaped: ``indptr`` (length n+1) and ``indices`` (sorted
    neighbor ids per node, each undirected edge appearing twice). Invariants
    (symmetry, no self-loops, no duplicates) are established by the
    constructors; instances are never mutated.
    """

    __slots__ = ("_indptr", "_indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = indptr
        self._indices = indices

    @classmethod
    def from_edge_list(
        cls, edges: Iterable[tuple[int, int]], node_count: int | None = None
    ) -> "Graph":
        """Build a graph from undirected edges, validating simplicity.

        Rejects self-loops and edges listed twice (in either orientation).
        ``node_count`` defaults to max node id + 1. Arrays and sequences are
        converted directly; other iterables are listed first.
        """
        if not isinstance(edges, (np.ndarray, Sequence)):
            edges = list(edges)
        arr = np.asarray(edges, dtype=np.int64)
        if arr.size == 0:
            if node_count is None:
                node_count = 0
            empty = np.zeros(0, dtype=np.int64)
            return cls(np.zeros(node_count + 1, dtype=np.int64), empty)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        if arr.min() < 0:
            raise ValueError("negative node id")
        u, v = arr[:, 0], arr[:, 1]
        if np.any(u == v):
            raise ValueError("self-loop in edge list")
        n = int(arr.max()) + 1
        if node_count is not None:
            if node_count < n:
                raise ValueError("node_count smaller than max node id + 1")
            n = node_count
        keys = _edge_keys(u, v, n)
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate edge in edge list")
        return cls._from_keys(keys, n)

    @classmethod
    def _from_keys(cls, keys: np.ndarray, n: int) -> "Graph":
        # keys: sorted, duplicate-free src * n + dst, both orientations of each edge.
        src, dst = np.divmod(keys, n)
        return cls(np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))), dst)

    @property
    def node_count(self) -> int:
        return len(self._indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self._indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u``."""
        return self._indices[self._indptr[u] : self._indptr[u + 1]]

    def edge_array(self) -> np.ndarray:
        """All (u, v) pairs with u < v as an (E, 2) array, lexicographically sorted."""
        src = np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees)
        mask = src < self._indices
        return np.column_stack([src[mask], self._indices[mask]])

    def to_csr(self) -> sparse.csr_matrix:
        data = np.ones(len(self._indices), dtype=np.float64)
        n = self.node_count
        return sparse.csr_matrix(
            (data, self._indices.copy(), self._indptr.copy()), shape=(n, n)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._indptr, other._indptr) and np.array_equal(
            self._indices, other._indices
        )

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, e={self.edge_count})"


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes relabeled to 0..k-1.

    Size ties are broken in favor of the component containing the smallest
    original node id. Relabeling preserves the original id order, so the
    kept CSR rows stay sorted as they are masked out.
    """
    if g.node_count == 0:
        raise ValueError("empty graph")
    n_comp, labels = csgraph.connected_components(g.to_csr(), directed=False)
    if n_comp == 1:
        return g
    sizes = np.bincount(labels, minlength=n_comp)
    # first node (= smallest id) whose component has maximal size
    winner = labels[np.argmax(sizes[labels] == sizes.max())]
    keep = labels == winner
    relabel = np.cumsum(keep) - 1
    deg = g.degrees
    indptr = np.concatenate(([0], np.cumsum(deg[keep])))
    return Graph(indptr, relabel[g._indices[np.repeat(keep, deg)]])


def mean_local_clustering(g: Graph) -> float:
    """Mean of local clustering coefficients.

    c_v = 2 T(v) / (deg(v) (deg(v)-1)) for deg(v) >= 2, else 0, where T(v)
    counts triangles through v. Edges point up the (degree, id) rank to form
    the DAG L; with P = (L @ L) * L and Q = (L.T @ L) * L, each triangle is
    counted at its lowest vertex by P's row sums, at its highest by P's column
    sums and at its middle one by Q's row sums. These oriented products cost
    O(m sqrt(m)), not the sum of squared degrees of A @ A, and their counts
    are exact integers, so the result is bit-identical to that of A @ A.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("empty graph")
    deg = g.degrees
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    src = np.repeat(np.arange(n), deg)
    up = rank[src] < rank[g._indices]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src[up], minlength=n))))
    dag = sparse.csr_matrix(
        (np.ones(int(indptr[-1]), dtype=np.int32), g._indices[up], indptr), shape=(n, n)
    )
    p = (dag @ dag).multiply(dag)
    q = (dag.T @ dag).multiply(dag)
    common = 2.0 * (p.sum(axis=1).A1 + p.sum(axis=0).A1 + q.sum(axis=1).A1)
    deg = deg.astype(np.float64)
    coeff = np.zeros(n, dtype=np.float64)
    mask = deg >= 2
    coeff[mask] = common[mask] / (deg[mask] * (deg[mask] - 1.0))
    return float(coeff.mean())


def metric_projection(g: Graph) -> MetricPoint:
    """Metric-space coordinates of a connected graph with at least 2 nodes."""
    n = g.node_count
    if n < 2:
        raise ValueError("degenerate graph")
    density = 2.0 * g.edge_count / (n * (n - 1.0))
    return MetricPoint(clustering=mean_local_clustering(g), dlog=math.log10(density))
