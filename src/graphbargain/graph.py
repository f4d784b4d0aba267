"""Simple undirected graphs and the two metrics that define the metric projection."""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse and csgraph load in the functions that call them, so importing
# this module, as every command does, costs no scipy.
if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "Graph",
    "largest_connected_component",
    "mean_local_clustering",
    "metric_projection",
]


# Largest n for which n * n - 1, above every edge key u * n + v, fits in int64.
MAX_KEYED_NODES = math.isqrt(2**63)


class Graph:
    """Immutable simple undirected graph holding each edge once.

    ``pairs`` is an (E, 2) int64 array of (u, v) with u < v < n, sorted
    lexicographically with no repeats, and read-only. ``rmat.sanitize``
    establishes these invariants for every graph sampled or read, and the
    functions here keep them; instances are never mutated. Graphs compare
    by identity.
    """

    __slots__ = ("_n", "_pairs")

    def __init__(self, n: int, pairs: np.ndarray):
        pairs.flags.writeable = False
        self._n = n
        self._pairs = pairs

    @property
    def node_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._pairs)

    @property
    def degrees(self) -> np.ndarray:
        return np.bincount(self._pairs.ravel(), minlength=self._n)

    def edge_array(self) -> np.ndarray:
        """The stored (u, v) pairs with u < v as a read-only (E, 2) array, lexicographically sorted."""
        return self._pairs


def _upper_adjacency(g: Graph) -> sparse.csr_matrix:
    """Each edge once, in the CSR row of its smaller id; an undirected search follows both orientations.

    Built apart, so the matrix dies when the search returns, before the relabeling.
    """
    from scipy import sparse

    pairs = g.edge_array()
    n = g.node_count
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))))
    return sparse.csr_matrix((np.ones(len(pairs)), pairs[:, 1], indptr), shape=(n, n))


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, nodes relabeled to 0..k-1.

    Size ties are broken in favor of the component containing the smallest
    original node id. Relabeling preserves the original id order, so the
    kept pairs stay sorted. Memory follows the edge count, not the largest id.
    """
    from scipy.sparse import csgraph

    if g.node_count == 0:
        raise ValueError("empty graph")
    pairs = g.edge_array()
    if g.node_count > 2 * len(pairs) > 0:
        # Some ids touch no edge and cannot win. Relabeling onto the ids that
        # occur keeps their order, so the tie-break and the sorted pairs hold.
        ids = np.unique(pairs)
        g = Graph(len(ids), np.searchsorted(ids, pairs))
    n_comp, labels = csgraph.connected_components(_upper_adjacency(g), directed=False)
    if n_comp == 1:
        return g
    sizes = np.bincount(labels, minlength=n_comp)
    # first node (= smallest id) whose component has maximal size
    winner = labels[np.argmax(sizes[labels] == sizes.max())]
    keep = labels == winner
    relabel = np.cumsum(keep) - 1
    pairs = g.edge_array()
    return Graph(int(np.count_nonzero(keep)), relabel[pairs[keep[pairs[:, 0]]]])


# Multiply-adds of the closing product L @ T per row block of L. It bounds
# only P's row blocks (a single row may exceed it): the unmasked L.T @ L is
# built whole and sets clustering's transient memory peak.
_BLOCK_PRODUCTS = 1 << 22


def _row_sums(m: sparse.csr_matrix) -> np.ndarray:
    """Exact int64 row sums, read off the CSR arrays."""
    total = np.concatenate(([0], np.cumsum(m.data, dtype=np.int64)))
    return total[m.indptr[1:]] - total[m.indptr[:-1]]


def _forward_dag(g: Graph, deg: np.ndarray) -> sparse.csr_matrix:
    """L: each edge pointing up the (degree, id) rank, as int32 CSR with sorted rows.

    Built apart from the products, so its edge-length temporaries (keys,
    masks, endpoints) die before L.T @ L is formed.
    """
    from scipy import sparse

    n = g.node_count
    u, v = g.edge_array().T
    # (degree, id) order as one key: deg * n + id <= n * n - 1 fits in int64
    key = deg * n + np.arange(n)
    up = key[u] < key[v]
    # The conversion from (row, col) form is a stable sort by row, and the pairs
    # are sorted, so row x lists its lower ids, then its higher ones, each ascending.
    data = np.ones(len(up), dtype=np.int32)
    return sparse.csr_matrix((data, (np.where(up, u, v), np.where(up, v, u))), shape=(n, n))


def mean_local_clustering(g: Graph, sizes: Sequence[int]) -> np.ndarray:
    """Means of local clustering coefficients, one per block of consecutive nodes.

    ``sizes`` splits the nodes 0..n-1, in order, into blocks of those sizes
    (``[n]`` for one block of all n). c_v = 2 T(v) / (deg(v) (deg(v)-1)) for
    deg(v) >= 2, else 0, where T(v) counts triangles through v. A block that
    holds whole components, as one graph of a disjoint union does, gets the
    mean its graph alone would get, bit for bit: T(v) is an exact integer
    count inside v's component, and each mean is ``np.mean`` of its own
    slice of coefficients. Edges point up the (degree, id) rank to form
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
    from scipy import sparse

    n = g.node_count
    if n == 0:
        raise ValueError("empty graph")
    bounds = np.cumsum(sizes)
    if bounds[-1] != n or np.any(np.diff(bounds, prepend=0) < 1):
        raise ValueError(f"block sizes must be positive and sum to the {n} nodes")
    deg = g.degrees
    dag = _forward_dag(g, deg)
    q = (dag.T.tocsr() @ dag).multiply(dag)
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
    deg = deg.astype(np.float64)
    coeff = np.zeros(n, dtype=np.float64)
    mask = deg >= 2
    coeff[mask] = common[mask] / (deg[mask] * (deg[mask] - 1.0))
    return np.array([part.mean() for part in np.split(coeff, bounds[:-1])])


def _disjoint_union(graphs: Sequence[Graph]) -> Graph:
    """The graphs side by side: each one's ids shifted past the nodes of those before it.

    The shifted pairs of each graph lie above those of the graphs before, so
    their concatenation stays sorted.
    """
    if len(graphs) == 1:
        return graphs[0]
    offsets = np.cumsum([0] + [h.node_count for h in graphs[:-1]])
    pairs = np.concatenate([h.edge_array() + offset for h, offset in zip(graphs, offsets)])
    return Graph(int(offsets[-1]) + graphs[-1].node_count, pairs)


def metric_projection(*graphs: Graph) -> list[tuple[float, float]]:
    """Metric-space coordinates (clustering, dlog) of each connected graph with at least 2 nodes.

    clustering is the mean local clustering coefficient, in [0, 1]; dlog is
    log10 of the density 2E / (N(N-1)), <= 0 for any simple graph. All the
    graphs are measured by one clustering pass over their disjoint union,
    which gives each graph the coordinates it gets when measured alone.
    """
    if not graphs:
        raise ValueError("no graph to measure")
    sizes = [g.node_count for g in graphs]
    if min(sizes) < 2:
        raise ValueError("degenerate graph")
    clustering = mean_local_clustering(_disjoint_union(graphs), sizes)
    return [
        (float(c), math.log10(2.0 * g.edge_count / (n * (n - 1.0))))
        for c, g, n in zip(clustering, graphs, sizes)
    ]
