"""Recursive-matrix edge sampling, sanitization, and generation statistics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse, stats
from scipy.sparse import csgraph

from graphbargain.rmat import (
    MAX_ATTEMPTS,
    DegenerateParametersError,
    RmatParams,
    VanishedGraphError,
    generate_graph,
    generate_raw_edges,
    sanitize,
)
from graphs import from_edge_list, same_graph

UNIFORM = dict(a=0.25, b=0.25, c=0.25, d=0.25)


def reference_sanitize(edges: np.ndarray, n_param: int) -> tuple[list[list[int]], list[int]]:
    """Pure-Python sanitize: normalize, dedup, keep the largest component, relabel in id order.

    Returns the kept edges and the sizes of all components with an edge.
    """
    pairs = {(min(u, v), max(u, v)) for u, v in edges.tolist() if u != v and max(u, v) < n_param}
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    sizes = []
    best: set[int] = set()
    seen: set[int] = set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            for w in adj[frontier.pop()] - comp:
                comp.add(w)
                frontier.append(w)
        seen |= comp
        sizes.append(len(comp))
        if len(comp) > len(best):  # ties go to the component holding the smallest id
            best = comp
    new_id = {u: i for i, u in enumerate(sorted(best))}
    kept = sorted([new_id[u], new_id[v]] for u, v in pairs if u in new_id)
    return kept, sizes


def searchsorted_raw_edges(p: RmatParams, seed: int) -> np.ndarray:
    """The sampler as first written: one searchsorted over the cuts per level, int64 throughout."""
    rng = np.random.default_rng(seed)
    cuts = np.cumsum([p.a, p.b, p.c])
    e = p.e_param
    u = np.zeros(e, dtype=np.int64)
    v = np.zeros(e, dtype=np.int64)
    for _ in range(p.scale):
        quad = np.searchsorted(cuts, rng.random(e), side="right")
        u = (u << 1) | (quad >> 1)
        v = (v << 1) | (quad & 1)
    return np.column_stack([u, v])


def unchecked_params(n_param: int, e_param: int, a: float, b: float, c: float, d: float) -> RmatParams:
    """RmatParams without validation, for a scale whose e_param >= n_param - 1 would not fit in memory."""
    p = object.__new__(RmatParams)
    for name, value in zip(("n_param", "e_param", "a", "b", "c", "d"), (n_param, e_param, a, b, c, d)):
        object.__setattr__(p, name, value)
    return p


# Scale 1, the degenerate a=1, tied cuts (b=0, c=0, b=d=0, c=d=0), odd edge
# counts, the skewed validate draw's vector and one 3e5-edge draw.
STREAM_CASES = [
    RmatParams(n_param=2, e_param=7, a=0.4, b=0.3, c=0.2, d=0.1),
    RmatParams(n_param=2, e_param=1, **UNIFORM),
    RmatParams(n_param=1024, e_param=1025, a=1.0, b=0.0, c=0.0, d=0.0),
    RmatParams(n_param=300, e_param=1001, a=0.5, b=0.0, c=0.3, d=0.2),
    RmatParams(n_param=300, e_param=1001, a=0.5, b=0.3, c=0.0, d=0.2),
    RmatParams(n_param=300, e_param=999, a=0.6, b=0.0, c=0.4, d=0.0),
    RmatParams(n_param=300, e_param=999, a=0.5, b=0.5, c=0.0, d=0.0),
    RmatParams(n_param=4097, e_param=9999, **UNIFORM),
    RmatParams(n_param=41601, e_param=100_001, a=0.625, b=0.125, c=0.125, d=0.125),
    RmatParams(n_param=100_000, e_param=300_000, a=0.45, b=0.2, c=0.2, d=0.15),
]


class TestRmatParams:
    def test_scale_is_ceil_log2(self):
        for n, scale in [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (1024, 10), (1025, 11)]:
            p = RmatParams(n_param=n, e_param=2 * n, **UNIFORM)
            assert p.scale == scale

    def test_rejects_tiny_node_count(self):
        with pytest.raises(ValueError, match="n_param"):
            RmatParams(n_param=1, e_param=5, **UNIFORM)

    def test_rejects_too_few_edges(self):
        with pytest.raises(ValueError, match="e_param"):
            RmatParams(n_param=10, e_param=8, **UNIFORM)

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="non-negative"):
            RmatParams(n_param=4, e_param=8, a=0.7, b=0.4, c=-0.05, d=-0.05)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RmatParams(n_param=4, e_param=8, a=0.4, b=0.3, c=0.2, d=0.2)

    def test_rejects_non_dominant_a(self):
        with pytest.raises(ValueError, match="dominate"):
            RmatParams(n_param=4, e_param=8, a=0.3, b=0.4, c=0.2, d=0.1)

    def test_equal_probabilities_are_dominant(self):
        RmatParams(n_param=4, e_param=8, **UNIFORM)


class TestGenerateRawEdges:
    @pytest.mark.parametrize("seed", [0, 1, 2026, 2**32 - 1])
    @pytest.mark.parametrize("p", STREAM_CASES, ids=lambda p: f"n{p.n_param}-e{p.e_param}-{p.a}-{p.b}-{p.c}-{p.d}")
    def test_equals_searchsorted_reference(self, p, seed):
        edges = generate_raw_edges(p, seed)
        expected = searchsorted_raw_edges(p, seed)
        assert edges.dtype == expected.dtype == np.int64
        assert edges.shape == expected.shape == (p.e_param, 2)
        assert np.all(edges == expected)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_ids_beyond_int32_equal_reference(self, seed):
        # scale 33 accumulates in int64; valid params would need 2^32 edges
        p = unchecked_params(2**33, 101, 0.45, 0.2, 0.2, 0.15)
        assert p.scale == 33
        edges = generate_raw_edges(p, seed)
        assert edges.max() >= 2**31
        assert edges.dtype == np.int64
        assert np.all(edges == searchsorted_raw_edges(p, seed))

    def test_shape_and_bounds(self):
        p = RmatParams(n_param=100, e_param=500, a=0.5, b=0.2, c=0.2, d=0.1)
        edges = generate_raw_edges(p, seed=1)
        assert edges.shape == (500, 2)
        assert edges.dtype == np.int64
        assert edges.min() >= 0
        assert edges.max() < 2**p.scale

    def test_deterministic_per_seed(self):
        p = RmatParams(n_param=64, e_param=300, a=0.45, b=0.25, c=0.2, d=0.1)
        assert np.array_equal(generate_raw_edges(p, 9), generate_raw_edges(p, 9))
        assert not np.array_equal(generate_raw_edges(p, 9), generate_raw_edges(p, 10))

    def test_degenerate_vector_pins_origin(self):
        p = RmatParams(n_param=64, e_param=200, a=1.0, b=0.0, c=0.0, d=0.0)
        edges = generate_raw_edges(p, seed=3)
        assert np.all(edges == 0)

    def test_top_level_quadrant_frequencies(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            a = float(rng.uniform(0.3, 0.6))
            b = float(rng.uniform(0.0, min(a, 1.0 - a)))
            c = float(rng.uniform(0.0, min(a, 1.0 - a - b)))
            d = 1.0 - a - b - c
            if d > a:
                continue
            p = RmatParams(n_param=256, e_param=20000, a=a, b=b, c=c, d=d)
            edges = generate_raw_edges(p, seed=int(rng.integers(2**32)))
            top = (edges >> (p.scale - 1)) & 1
            quad = top[:, 0] * 2 + top[:, 1]
            counts = np.bincount(quad, minlength=4)
            expected = p.e_param * np.array([p.a, p.b, p.c, p.d])
            keep = expected > 0
            res = stats.chisquare(counts[keep], expected[keep])
            assert res.pvalue > 1e-3

    def test_marginal_bit_rate_matches_parameters(self):
        # P(u bit set) = c + d and P(v bit set) = b + d at every level
        p = RmatParams(n_param=256, e_param=40000, a=0.5, b=0.3, c=0.15, d=0.05)
        edges = generate_raw_edges(p, seed=23)
        for level in range(p.scale):
            u_bits = (edges[:, 0] >> level) & 1
            v_bits = (edges[:, 1] >> level) & 1
            sigma = np.sqrt(0.25 / p.e_param)
            assert abs(u_bits.mean() - (p.c + p.d)) < 5 * sigma
            assert abs(v_bits.mean() - (p.b + p.d)) < 5 * sigma


class TestSanitize:
    def test_drops_loops_merges_directions_and_keeps_lcc(self):
        edges = np.array([[0, 0], [0, 1], [1, 0], [2, 5], [5, 2], [1, 7]])
        g = sanitize(edges, n_param=6)
        # (1, 7) is outside the requested node range, (0, 0) is a loop;
        # the surviving components {0, 1} and {2, 5} tie, smallest id wins
        assert same_graph(g, from_edge_list([(0, 1)]))

    def test_out_of_range_endpoints_are_padding(self):
        edges = np.array([[0, 3], [3, 1], [6, 7]])
        g = sanitize(edges, n_param=4)
        # nodes {0, 1, 3} survive and relabel order-preservingly to {0, 1, 2}
        assert same_graph(g, from_edge_list([(0, 2), (1, 2)]))

    def test_vanished_graph_raises(self):
        with pytest.raises(VanishedGraphError):
            sanitize(np.array([[1, 1], [2, 2]]), n_param=4)
        with pytest.raises(VanishedGraphError):
            sanitize(np.array([[5, 6]]), n_param=4)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            sanitize(np.zeros((0, 2), dtype=np.int64), n_param=4)

    def test_ids_that_overflow_edge_keys_rejected(self):
        edges = np.array([[4_000_000_001, 4_000_000_000]])
        with pytest.raises(ValueError, match="overflow"):
            sanitize(edges, n_param=4_000_000_002)

    @pytest.mark.parametrize(
        ("edges", "low"),
        [
            ([[-2**62, 3], [0, 3]], -2**62),  # its key would wrap onto that of (0, 3)
            ([[-1, 2], [0, 1], [1, 2]], -1),
            ([[-3, -5]], -5),
        ],
    )
    def test_a_negative_id_is_refused_by_name(self, edges, low):
        with pytest.raises(ValueError, match=f"^negative node id {low}$"):
            sanitize(np.array(edges), n_param=5)

    def test_the_largest_int64_id_lies_inside_n_param_2_63(self):
        # 2**63 does not fit int64; the id 2**63 - 1 below it is kept and overflows the keys, on numpy 1.x too
        with pytest.raises(ValueError, match="^9223372036854775808 nodes overflow the int64 edge keys"):
            sanitize(np.array([[0, 2**63 - 1], [0, 1]]), n_param=2**63)

    def test_result_is_simple_and_connected(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            p = RmatParams(n_param=50, e_param=120, a=0.45, b=0.2, c=0.25, d=0.1)
            edges = generate_raw_edges(p, int(rng.integers(2**32)))
            g = sanitize(edges, p.n_param)
            assert g.node_count <= p.n_param
            assert g.edge_count <= p.e_param
            pairs = g.edge_array()
            assert np.all(pairs[:, 0] < pairs[:, 1])
            adj = sparse.coo_matrix((np.ones(len(pairs)), pairs.T), shape=(g.node_count, g.node_count))
            k, _ = csgraph.connected_components(adj, directed=False)
            assert k == 1

    def test_matches_pure_python_reference(self):
        rng = np.random.default_rng(37)
        vanished = cut = ties = 0
        for _ in range(300):
            n_param = int(rng.integers(2, 40))
            e = int(rng.integers(1, 50))
            # ids up to a quarter past n_param, one edge in eight a self-loop
            edges = rng.integers(0, n_param + n_param // 4 + 1, size=(e, 2))
            loops = rng.random(e) < 0.125
            edges[loops, 1] = edges[loops, 0]
            # repeats in the listed and in the other orientation, all shuffled
            again = rng.integers(0, e, size=e // 2)
            edges = np.concatenate([edges, edges[again[::2]], edges[again[1::2], ::-1]])
            edges = edges[rng.permutation(len(edges))]
            expected, sizes = reference_sanitize(edges, n_param)
            if not expected:
                with pytest.raises(VanishedGraphError):
                    sanitize(edges, n_param)
                vanished += 1
                continue
            g = sanitize(edges, n_param)
            assert g.edge_array().tolist() == expected
            assert g.node_count == max(max(pair) for pair in expected) + 1
            cut += int(len(sizes) > 1)
            ties += int(sizes.count(max(sizes)) > 1)
        assert vanished > 0 and cut > 100 and ties > 10


class TestGenerateGraph:
    def test_deterministic(self):
        p = RmatParams(n_param=200, e_param=900, a=0.5, b=0.2, c=0.2, d=0.1)
        g1 = generate_graph(p, seed=4)
        g2 = generate_graph(p, seed=4)
        assert same_graph(g1, g2)
        assert same_graph(g1, sanitize(generate_raw_edges(p, 4), p.n_param))

    def test_degenerate_parameters_raise_after_retries(self):
        p = RmatParams(n_param=2, e_param=10, a=1.0, b=0.0, c=0.0, d=0.0)
        with pytest.raises(DegenerateParametersError):
            generate_graph(p, seed=0)

    def test_retry_window_is_bounded(self):
        assert MAX_ATTEMPTS == 16

    def test_self_loops_never_survive(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            p = RmatParams(n_param=64, e_param=256, a=0.6, b=0.15, c=0.15, d=0.1)
            g = generate_graph(p, int(rng.integers(2**32)))
            pairs = g.edge_array()
            assert np.all(pairs[:, 0] != pairs[:, 1])
