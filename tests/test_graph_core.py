"""Graph container, connected components, and the two metric computations."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import csgraph

import graphbargain.graph
from graphbargain.graph import (
    MAX_KEYED_NODES,
    Graph,
    largest_connected_component,
    mean_local_clustering,
    metric_projection,
)
from graphbargain.rmat import _edge_keys
from graphs import from_edge_list


def brute_force_mean_clustering(edges: list[tuple[int, int]], n: int) -> float:
    """Independent oracle: per-node triangle counting over adjacency sets."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    total = 0.0
    for v in range(n):
        neigh = sorted(adj[v])
        d = len(neigh)
        if d < 2:
            continue
        links = 0
        for i in range(d):
            for j in range(i + 1, d):
                if neigh[j] in adj[neigh[i]]:
                    links += 1
        total += 2.0 * links / (d * (d - 1))
    return total / n


def symmetric_adjacency(g: Graph) -> sparse.csr_matrix:
    """A: the graph's adjacency matrix, each edge in both orientations, as float ones."""
    pairs = g.edge_array()
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    n = g.node_count
    return sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def unoriented_mean_clustering(g: Graph) -> float:
    """Oracle: row sums of the unoriented (A @ A) * A, which count each triangle twice per node."""
    adj = symmetric_adjacency(g)
    common = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()
    deg = g.degrees.astype(np.float64)
    coeff = np.zeros(g.node_count, dtype=np.float64)
    mask = deg >= 2
    coeff[mask] = common[mask] / (deg[mask] * (deg[mask] - 1.0))
    return float(coeff.mean())


def forward_dag(g: Graph) -> sparse.csr_matrix:
    """L: each edge pointing up the (degree, id) rank, as int32 ones."""
    n = g.node_count
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(g.degrees, kind="stable")] = np.arange(n)
    u, v = g.edge_array().T
    up = rank[u] < rank[v]
    return sparse.csr_matrix(
        (np.ones(len(u), dtype=np.int32), (np.where(up, u, v), np.where(up, v, u))), shape=(n, n)
    )


def full_product_mean_clustering(g: Graph) -> float:
    """Oracle: the unblocked forward count, with P = (L @ L) * L and Q = (L.T @ L) * L in full."""
    dag = forward_dag(g)
    p = (dag @ dag).multiply(dag)
    q = (dag.T @ dag).multiply(dag)
    common = 2.0 * (p.sum(axis=1).A1 + p.sum(axis=0).A1 + q.sum(axis=1).A1)
    deg = g.degrees.astype(np.float64)
    coeff = np.zeros(g.node_count, dtype=np.float64)
    mask = deg >= 2
    coeff[mask] = common[mask] / (deg[mask] * (deg[mask] - 1.0))
    return float(coeff.mean())


def closing_products(g: Graph) -> np.ndarray:
    """Multiply-adds per row of L @ T, T the middle -> top edges of triangles, by set lookups."""
    dag = forward_dag(g)
    out = [set(dag.indices[dag.indptr[x] : dag.indptr[x + 1]].tolist()) for x in range(g.node_count)]
    closing = {(y, z) for x in range(g.node_count) for y in out[x] for z in out[y] if z in out[x]}
    t_out = np.bincount([y for y, _ in closing], minlength=g.node_count)
    return np.array([sum(t_out[y] for y in out[x]) for x in range(g.node_count)])


def planted_hub_graph(shortcut_every: int) -> Graph:
    """60000 leaves -> 4000 mids -> 200 hubs: many two-paths, few triangles.

    Each leaf joins 3 random mids and each mid 50 of the hubs, so L @ L holds
    6.9M entries; every `shortcut_every`-th leaf also joins 2 random hubs,
    which closes triangles leaf -> mid -> hub.
    """
    rng = np.random.default_rng(7)
    hubs, mids, leaves = 200, 4000, 60000
    mid = hubs + np.arange(mids)
    leaf = hubs + mids + np.arange(leaves)
    shortcut = np.repeat(leaf[::shortcut_every], 2)
    u = np.concatenate([np.repeat(mid, 50), np.repeat(leaf, 3), shortcut])
    v = np.concatenate([
        np.argsort(rng.random((mids, hubs)), axis=1)[:, :50].ravel(),
        hubs + rng.integers(0, mids, size=3 * leaves),
        rng.integers(0, hubs, size=len(shortcut)),
    ])
    n = hubs + mids + leaves
    keys = np.unique(np.minimum(u, v) * n + np.maximum(u, v))
    return from_edge_list(np.column_stack(np.divmod(keys, n)), node_count=n)


def clustering_peak_mib(g: Graph) -> float:
    tracemalloc.start()
    try:
        mean_local_clustering(g, [g.node_count])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def resorted_lcc(g: Graph) -> Graph:
    """Reference: keep the edges of the winning component and rebuild them with a fresh sort."""
    _, labels = csgraph.connected_components(symmetric_adjacency(g), directed=False)
    sizes = np.bincount(labels)
    winner = next(label for label in labels if sizes[label] == sizes.max())
    kept = [u for u in range(g.node_count) if labels[u] == winner]
    new_id = {u: i for i, u in enumerate(kept)}
    pairs = [(new_id[u], new_id[v]) for u, v in g.edge_array().tolist() if u in new_id]
    return from_edge_list(pairs[::-1], node_count=len(kept))


def hub_and_tie_edges(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A ring lattice (many equal degrees) plus a few hubs and random chords."""
    edges = {(min(u, (u + k) % n), max(u, (u + k) % n)) for u in range(n) for k in (1, 2)}
    for hub in rng.choice(n, size=int(rng.integers(1, 5)), replace=False):
        for v in rng.choice(n, size=int(rng.integers(n // 8, n // 2)), replace=False):
            if v != hub:
                edges.add((min(hub, v), max(hub, v)))
    for _ in range(int(rng.integers(0, n))):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((min(u, v), max(u, v)))
    return sorted((int(u), int(v)) for u, v in edges)


def random_edges(rng: np.random.Generator, n: int, p: float) -> list[tuple[int, int]]:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v))
    return edges


class TestGraphConstruction:
    def test_edge_list_round_trip_and_shape(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2), (2, 3)])
        assert g.node_count == 4
        assert g.edge_count == 4
        assert np.array_equal(g.edge_array(), [[0, 1], [0, 2], [1, 2], [2, 3]])
        assert list(g.degrees) == [2, 2, 3, 1]

    def test_node_count_override_adds_isolated_nodes(self):
        g = from_edge_list([(0, 1)], node_count=4)
        assert g.node_count == 4
        assert list(g.degrees) == [1, 1, 0, 0]

    def test_empty_graph(self):
        g = from_edge_list([], node_count=3)
        assert g.node_count == 3
        assert g.edge_count == 0

    def test_pairs_are_sorted_whatever_the_input_order(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            edges = random_edges(rng, n, 0.4)
            if not edges:
                continue
            # shuffled, each edge in a random orientation
            listed = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
            listed = [listed[i] for i in rng.permutation(len(listed))]
            pairs = from_edge_list(listed, node_count=n).edge_array()
            assert pairs.dtype == np.int64
            assert pairs.tolist() == [list(edge) for edge in edges]

    def test_edge_array_is_read_only(self):
        g = from_edge_list([(2, 0), (1, 2), (3, 4)])
        graphs = [g, largest_connected_component(g), from_edge_list([], node_count=2)]
        for pairs in (h.edge_array() for h in graphs):
            assert not pairs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                pairs[..., 0] = 1

    @staticmethod
    def _forms(pairs):
        """The same edges as a list of tuples, a generator and an (E, k) array."""
        return [list(pairs), (pair for pair in pairs), np.array(pairs, dtype=np.int64)]

    def test_generator_list_and_array_give_equal_graphs(self):
        rng = np.random.default_rng(11)
        for n in (2, 9, 40):
            pairs = random_edges(rng, n, 0.3) or [(0, 1)]
            graphs = [from_edge_list(form) for form in self._forms(pairs)]
            assert graphs[0] == graphs[1] == graphs[2]
            padded = [from_edge_list(form, node_count=n + 3) for form in self._forms(pairs)]
            assert padded[0] == padded[1] == padded[2]
            assert padded[0].node_count == n + 3

    def test_edge_keys_exact_at_the_largest_node_count(self):
        n = MAX_KEYED_NODES
        # one key per edge, whatever its orientation, decoded back exactly
        keys = _edge_keys(np.array([n - 1, 0, n - 1]), np.array([n - 2, n - 1, n - 3]), n)
        assert keys.tolist() == [n - 1, (n - 3) * n + n - 1, (n - 2) * n + n - 1]
        decoded = Graph(n, np.column_stack(np.divmod(keys, n))).edge_array()
        assert decoded.tolist() == [[0, n - 1], [n - 3, n - 1], [n - 2, n - 1]]
        with pytest.raises(ValueError, match="overflow"):
            _edge_keys(np.array([0]), np.array([1]), n + 1)

    def test_equality(self):
        a = from_edge_list([(0, 1), (1, 2)])
        b = from_edge_list([(1, 2), (0, 1)])
        c = from_edge_list([(0, 1)])
        assert a == b
        assert a != c

    def test_equality_needs_equal_node_counts(self):
        assert from_edge_list([(0, 1)]) != from_edge_list([(0, 1)], node_count=3)


class TestLargestConnectedComponent:
    def test_single_component_returned_unchanged(self):
        g = from_edge_list([(0, 1), (1, 2)])
        assert largest_connected_component(g) is g

    def test_larger_component_wins(self):
        g = from_edge_list([(0, 1), (3, 4), (4, 5)])
        lcc = largest_connected_component(g)
        assert lcc == from_edge_list([(0, 1), (1, 2)])

    def test_tie_breaks_to_smallest_node_id(self):
        # two components of size 2; the one containing node 0 must win
        g = from_edge_list([(1, 2), (0, 5)])
        lcc = largest_connected_component(g)
        assert lcc == from_edge_list([(0, 1)])

    def test_relabeling_preserves_id_order(self):
        g = from_edge_list([(0, 1), (4, 6), (6, 9), (4, 9)])
        lcc = largest_connected_component(g)
        # nodes 4, 6, 9 become 0, 1, 2 in that order
        assert lcc == from_edge_list([(0, 1), (0, 2), (1, 2)])

    def test_isolated_nodes_are_dropped(self):
        g = from_edge_list([(0, 1)], node_count=5)
        lcc = largest_connected_component(g)
        assert lcc.node_count == 2

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            largest_connected_component(from_edge_list([]))

    def test_random_graphs_lcc_is_connected_and_maximal(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            edges = random_edges(rng, n, 0.08)
            if not edges:
                continue
            g = from_edge_list(edges, node_count=n)
            lcc = largest_connected_component(g)
            n_comp, labels = csgraph.connected_components(symmetric_adjacency(g), directed=False)
            best = np.bincount(labels).max()
            assert lcc.node_count == best
            k, _ = csgraph.connected_components(symmetric_adjacency(lcc), directed=False)
            assert k == 1

    def test_matches_resorted_reference_on_multi_component_graphs(self):
        rng = np.random.default_rng(17)
        ties = 0
        for _ in range(40):
            # components of a few drawn sizes (so equal sizes recur), shuffled ids, isolated nodes
            sizes = rng.choice([2, 3, 5, 8], size=int(rng.integers(2, 7)))
            n = int(sizes.sum()) + int(rng.integers(0, 4))
            ids = rng.permutation(n)
            edges = []
            start = 0
            for size in sizes:
                members = ids[start : start + size]
                edges += [(int(members[i - 1]), int(members[i])) for i in range(1, size)]
                for i, j in rng.integers(0, size, size=(size, 2)):
                    if i != j:
                        edges.append((int(members[i]), int(members[j])))
                start += size
            edges = sorted({(min(u, v), max(u, v)) for u, v in edges})
            g = from_edge_list(edges, node_count=n)
            ties += int(np.sum(sizes == sizes.max()) > 1)
            assert largest_connected_component(g) == resorted_lcc(g)
        assert ties >= 10

    def test_sparse_ids_give_the_lcc_of_their_relabeled_form(self):
        # more ids than twice the edges: the search runs on the ids that occur
        rng = np.random.default_rng(23)
        for _ in range(60):
            k = int(rng.integers(2, 25))
            dense = random_edges(rng, k, 0.12)
            if not dense:
                continue
            spread = np.sort(rng.choice(5000, size=k, replace=False))
            n = int(spread[-1]) + 1 + int(rng.integers(0, 3))
            sparse_g = from_edge_list([(spread[u], spread[v]) for u, v in dense], node_count=n)
            assert sparse_g.node_count > 2 * sparse_g.edge_count
            occurring = sorted({x for edge in dense for x in edge})
            rank = {x: i for i, x in enumerate(occurring)}
            relabeled = from_edge_list([(rank[u], rank[v]) for u, v in dense], node_count=len(occurring))
            lcc = largest_connected_component(sparse_g)
            assert lcc == largest_connected_component(relabeled)
            assert lcc == resorted_lcc(sparse_g)


class TestMeanLocalClustering:
    def test_triangle_is_fully_clustered(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)])
        assert mean_local_clustering(g, [g.node_count]).tolist() == pytest.approx([1.0], abs=1e-12)

    def test_star_has_no_triangles(self):
        g = from_edge_list([(0, 1), (0, 2), (0, 3)])
        assert mean_local_clustering(g, [g.node_count]).tolist() == pytest.approx([0.0], abs=1e-12)

    def test_k4_minus_one_edge(self):
        g = from_edge_list([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert mean_local_clustering(g, [g.node_count]).tolist() == pytest.approx([5.0 / 6.0], abs=1e-12)

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            n = int(rng.integers(2, 9))
            edges = random_edges(rng, n, 0.4)
            g = from_edge_list(edges, node_count=n)
            expected = brute_force_mean_clustering(edges, n)
            assert mean_local_clustering(g, [g.node_count]).tolist() == pytest.approx([expected], abs=1e-12)

    def test_forward_counting_equals_unoriented_product(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(200, 400))
            g = from_edge_list(hub_and_tie_edges(rng, n), node_count=n)
            assert mean_local_clustering(g, [g.node_count]).tolist() == [unoriented_mean_clustering(g)]
        complete = [(u, v) for u in range(12) for v in range(u + 1, 12)]
        for edges, n in [(random_edges(rng, 60, 0.2), 60), (complete, 12)]:
            g = from_edge_list(edges, node_count=n)
            assert mean_local_clustering(g, [g.node_count]).tolist() == [unoriented_mean_clustering(g)]

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_local_clustering(from_edge_list([]), [0])

    @pytest.mark.parametrize("budget", [1, 2, 5, 9])
    def test_row_blocks_equal_full_products(self, monkeypatch, budget):
        monkeypatch.setattr(graphbargain.graph, "_BLOCK_PRODUCTS", budget)
        rng = np.random.default_rng(budget)
        over = empty = shared = last = 0
        for _ in range(8):
            n = int(rng.integers(60, 160))
            # shuffled ids, three of them isolated: empty rows of L anywhere
            perm = rng.permutation(n + 3)
            edges = [(int(perm[u]), int(perm[v])) for u, v in hub_and_tie_edges(rng, n)]
            g = from_edge_list(edges, node_count=n + 3)
            assert mean_local_clustering(g, [g.node_count]).tolist() == [full_product_mean_clustering(g)]
            work = closing_products(g)
            over += int(np.sum(work > budget))
            empty += int(np.sum(work == 0))
            shared += int(np.sum((work[1:] > 0) & (work[:-1] > 0) & (work[1:] + work[:-1] <= budget)))
            last += int(work[-1] > 0)
        assert over > 0 and empty > 0 and last > 0
        # a block of several non-empty rows, unless the budget is a single product
        assert shared > 0 or budget == 1

    def test_peak_memory_without_the_full_two_path_product(self):
        # L @ L holds 6.9M entries here: 17 MiB, where full_product_mean_clustering peaks at 112 MiB
        g = planted_hub_graph(shortcut_every=20)
        assert clustering_peak_mib(g) < 48

    def test_row_blocks_bound_the_closing_product(self, monkeypatch):
        # L @ T holds 3.0M entries here: 26 MiB, where one block takes 62 MiB and the oracle 115 MiB
        g = planted_hub_graph(shortcut_every=1)
        monkeypatch.setattr(graphbargain.graph, "_BLOCK_PRODUCTS", 1 << 18)
        assert clustering_peak_mib(g) < 48


class TestMetricProjection:
    def test_triangle_density_is_one(self):
        g = from_edge_list([(0, 1), (1, 2), (0, 2)])
        [(clustering, dlog)] = metric_projection(g)
        assert clustering == pytest.approx(1.0, abs=1e-12)
        assert dlog == pytest.approx(0.0, abs=1e-12)

    def test_path_density(self):
        g = from_edge_list([(0, 1), (1, 2)])
        [(_, dlog)] = metric_projection(g)
        assert dlog == pytest.approx(math.log10(2.0 / 3.0), abs=1e-12)

    def test_density_formula_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            edges = random_edges(rng, n, 0.5)
            if not edges:
                continue
            g = from_edge_list(edges, node_count=n)
            [(_, dlog)] = metric_projection(g)
            expected = math.log10(2.0 * len(edges) / (n * (n - 1)))
            assert dlog == pytest.approx(expected, abs=1e-12)

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            metric_projection(from_edge_list([], node_count=1))


def batch_member(rng: np.random.Generator, kind: str) -> tuple[list[tuple[int, int]], int]:
    """(edges, node count) of one graph of the given kind, for the batched projection tests."""
    n = int(rng.integers(2, 40))
    if kind == "complete":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif kind == "single-edge":
        edges = [(0, 1)]
        n = 2
    elif kind == "star":
        n = int(rng.integers(2, 300))  # past numpy's 128-term blocks of pairwise summation
        edges = [(0, v) for v in range(1, n)]
    elif kind == "triangle-free":
        # a random bipartite graph: every cycle is even
        half = n // 2
        edges = [(u, v) for u in range(half) for v in range(half, n) if rng.random() < 0.3] or [(0, n - 1)]
    elif kind == "small-world":
        # a ring lattice with random shortcuts: hundreds of distinct nonzero coefficients
        n = int(rng.integers(100, 1000))
        ring = {(min(u, (u + k) % n), max(u, (u + k) % n)) for u in range(n) for k in (1, 2, 3)}
        shortcuts = {(min(u, v), max(u, v)) for u, v in rng.integers(0, n, size=(n // 10, 2)) if u != v}
        edges = sorted((int(u), int(v)) for u, v in ring | shortcuts)
    elif kind == "tied":
        # two copies of one component, so the pair holds tied degrees, sizes and triangle counts
        size = n // 2 + 1
        shape = random_edges(rng, size, 0.5) or [(0, 1)]
        edges = shape + [(u + size, v + size) for u, v in shape]
        n = 2 * size
    else:
        # ids that touch no edge: shuffled labels, and spare nodes past the largest id
        n = int(rng.integers(2, 300))
        labels = rng.permutation(n)
        drawn = random_edges(rng, n, min(0.5, 4.0 / n))
        edges = sorted((min(labels[u], labels[v]), max(labels[u], labels[v])) for u, v in drawn)
        edges = [(int(u), int(v)) for u, v in edges] or [(0, 1)]
        n += int(rng.integers(0, 4))
    return edges, n


BATCH_KINDS = ["complete", "single-edge", "star", "triangle-free", "small-world", "tied", "sparse-ids"]


class TestBatchedProjection:
    def test_a_batch_equals_its_graphs_measured_alone(self):
        rng = np.random.default_rng(2005)
        seen = set()
        for _ in range(60):
            kinds = rng.choice(BATCH_KINDS, size=int(rng.integers(1, 9)))
            members = [batch_member(rng, str(kind)) for kind in kinds]
            graphs = [from_edge_list(edges, node_count=n) for edges, n in members]
            batch = metric_projection(*graphs)
            # bit for bit, as each graph measured alone
            assert batch == [point for g in graphs for point in metric_projection(g)]
            for (edges, n), (clustering, dlog) in zip(members, batch):
                assert clustering == pytest.approx(brute_force_mean_clustering(edges, n), abs=1e-12)
                assert dlog == math.log10(2.0 * len(edges) / (n * (n - 1.0)))
            seen.update(str(kind) for kind in kinds)
        assert seen == set(BATCH_KINDS)

    def test_block_means_split_the_coefficients(self):
        # a triangle beside a star: coefficients 1, 1, 1 and 0, 0, 0, 0
        g = from_edge_list([(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (3, 6)])
        assert mean_local_clustering(g, [3, 4]).tolist() == [1.0, 0.0]
        assert mean_local_clustering(g, [g.node_count]).tolist() == [3.0 / 7.0]
        for sizes in ([3, 3], [3, 5], [0, 7], [7, -1, 1]):
            with pytest.raises(ValueError, match="block sizes must be positive and sum to the 7 nodes"):
                mean_local_clustering(g, sizes)

    def test_nothing_to_measure_rejected(self):
        with pytest.raises(ValueError, match="no graph"):
            metric_projection()
        with pytest.raises(ValueError, match="degenerate"):
            metric_projection(from_edge_list([(0, 1)]), from_edge_list([], node_count=1))
