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


# Multiply-adds of the closing product L @ T per row block of L. A block's
# candidate entries, and so clustering's transient memory, stay below it
# however large the hubs; only a single row may exceed it.
_BLOCK_PRODUCTS = 1 << 22


def _row_sums(m: sparse.csr_matrix) -> np.ndarray:
    """Exact int64 row sums, read off the CSR arrays."""
    total = np.concatenate(([0], np.cumsum(m.data, dtype=np.int64)))
    return total[m.indptr[1:]] - total[m.indptr[:-1]]


def _forward_products(g: Graph) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """L, the edges pointing up the (degree, id) rank, and Q = (L.T @ L) * L.

    Both are int32 CSR; L.T is built as CSR from the edges pointing down.
    The edge-length temporaries (keys, masks) die on return, so they do not
    add to the memory of P's blocks.
    """
    n = g.node_count
    deg = g.degrees
    # (degree, id) order as one key: deg * n + id <= n * n - 1 fits in int64
    key = deg * n + np.arange(n)
    up = np.repeat(key, deg) < key[g._indices]

    def half(mask: np.ndarray) -> sparse.csr_matrix:
        indptr = np.concatenate(([0], np.cumsum(mask)))[g._indptr]
        data = np.ones(int(indptr[-1]), dtype=np.int32)
        return sparse.csr_matrix((data, g._indices[mask], indptr), shape=(n, n))

    dag = half(up)
    return dag, (half(~up) @ dag).multiply(dag)


def mean_local_clustering(g: Graph) -> float:
    """Mean of local clustering coefficients.

    c_v = 2 T(v) / (deg(v) (deg(v)-1)) for deg(v) >= 2, else 0, where T(v)
    counts triangles through v. Edges point up the (degree, id) rank to form
    the DAG L, so each triangle is a path low -> middle -> top closed by the
    edge low -> top. Q = (L.T @ L) * L counts, at each edge middle -> top,
    the low vertices closing it: its row sums count each triangle at its
    middle vertex and its column sums at its top one. P = (L @ L) * L counts,
    at each edge low -> top, the middle vertices between; its column sums
    count each triangle at its top vertex too, so colsum(P) = colsum(Q), and
    only rowsum(P), the count at the low vertex, needs P. The second step
    middle -> top of every such path is an edge where Q is nonzero, so its
    support T may replace the right factor: P = (L @ T) * L. Its rows are
    taken in blocks of at most _BLOCK_PRODUCTS multiply-adds, each reduced
    to row sums before the next, so the full L @ L is never built. The
    products cost O(m sqrt(m)), not the sum of squared degrees of A @ A, and
    their counts are exact integers, so the result is bit-identical to that
    of A @ A.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("empty graph")
    dag, q = _forward_products(g)
    middle = _row_sums(q)
    top = np.bincount(q.indices, weights=q.data, minlength=n)
    closing = sparse.csr_matrix((np.ones(q.nnz, dtype=np.int32), q.indices, q.indptr), shape=(n, n))
    # done[x]: multiply-adds of dag @ closing in the rows before x
    done = np.concatenate(([0], np.cumsum(dag @ np.diff(closing.indptr).astype(np.int64))))
    low = np.empty(n, dtype=np.int64)
    start = 0
    while start < n:
        stop = max(int(np.searchsorted(done, done[start] + _BLOCK_PRODUCTS, side="right")) - 1, start + 1)
        block = dag[start:stop]
        low[start:stop] = _row_sums((block @ closing).multiply(block))
        start = stop
    common = 2.0 * (low + top + middle)
    deg = g.degrees.astype(np.float64)
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
