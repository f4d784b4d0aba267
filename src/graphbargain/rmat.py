"""Recursive-matrix edge sampling and sanitization into simple connected graphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _edge_keys, largest_connected_component, metric_projection

__all__ = [
    "RmatParams",
    "VanishedGraphError",
    "DegenerateParametersError",
    "generate_raw_edges",
    "sanitize",
    "generate_graph",
    # Nothing here measures a graph any more (the CLI measures each batch of
    # graphs in one call), but perfbench/tracing.py still patches this name.
    "metric_projection",
]

MAX_ATTEMPTS = 16


class VanishedGraphError(ValueError):
    """Sanitization removed every edge; the caller should resample."""


class DegenerateParametersError(ValueError):
    """MAX_ATTEMPTS consecutive samples vanished for one parameter set."""


@dataclass(frozen=True)
class RmatParams:
    """One generator configuration: requested sizes plus the quadrant vector.

    The quadrant probabilities (a, b, c, d) select (top-left, top-right,
    bottom-left, bottom-right) at every recursion level; a must dominate.
    """

    n_param: int
    e_param: int
    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if self.n_param < 2:
            raise ValueError("n_param must be at least 2")
        if self.e_param < self.n_param - 1:
            raise ValueError("e_param must be at least n_param - 1")
        comps = (self.a, self.b, self.c, self.d)
        if min(comps) < 0.0:
            raise ValueError("quadrant probabilities must be non-negative")
        if abs(sum(comps) - 1.0) > 1e-9:
            raise ValueError("quadrant probabilities must sum to 1")
        if self.a < max(self.b, self.c, self.d):
            raise ValueError("a must dominate b, c and d")

    @property
    def scale(self) -> int:
        """Recursion depth: ceil(log2(n_param))."""
        return (self.n_param - 1).bit_length()


def generate_raw_edges(p: RmatParams, seed: int) -> np.ndarray:
    """Sample e_param directed edges over the padded 2^scale matrix.

    Each edge is placed by ``scale`` independent quadrant draws from
    (a, b, c, d); the quadrant fixes one bit of each endpoint per level.
    A level draws e uniforms x in one ``rng.random`` call and compares them
    with the cuts a, a+b, a+b+c: the u bit is ``x >= a+b`` and the v bit is
    the parity of the three comparisons (quadrants 1 and 3). Ids accumulate
    in int32 while they fit (scale <= 31), in int64 above.
    Returns an (e_param, 2) int64 array; deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    cut_a, cut_ab, cut_abc = np.cumsum([p.a, p.b, p.c])
    e = p.e_param
    ids = np.int32 if p.scale <= 31 else np.int64
    u = np.zeros(e, dtype=ids)
    v = np.zeros(e, dtype=ids)
    x = np.empty(e)
    v_bit = np.empty(e, dtype=bool)
    u_bit = np.empty(e, dtype=bool)
    past_abc = np.empty(e, dtype=bool)
    for _ in range(p.scale):
        rng.random(out=x)
        np.greater_equal(x, cut_a, out=v_bit)
        np.greater_equal(x, cut_ab, out=u_bit)
        np.greater_equal(x, cut_abc, out=past_abc)
        v_bit ^= u_bit
        v_bit ^= past_abc
        u <<= 1
        u |= u_bit
        v <<= 1
        v |= v_bit
    out = np.empty((e, 2), dtype=np.int64)
    out[:, 0] = u
    out[:, 1] = v
    return out


def sanitize(edges: np.ndarray, n_param: int) -> Graph:
    """Raw directed edges -> simple connected undirected graph.

    Drops self-loops and endpoints outside [0, n_param) (the padding part of
    the power-of-two matrix), merges (u,v)/(v,u) and deduplicates by one sort
    of int64 keys, one per edge, then keeps the largest connected component.
    Raises ValueError when the ids are too large for int64 keys.
    """
    arr = np.asarray(edges, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("no edges to sanitize")
    arr = arr.reshape(-1, 2)
    u, v = arr[:, 0], arr[:, 1]
    keep = (u != v) & (u < n_param) & (v < n_param)
    u, v = u[keep], v[keep]
    if u.size == 0:
        raise VanishedGraphError("vanished graph")
    n = int(max(u.max(), v.max())) + 1
    keys = _edge_keys(u, v, n)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    g = Graph._from_keys(keys[first], n)
    return largest_connected_component(g)


def generate_graph(p: RmatParams, seed: int) -> Graph:
    """The sanitized graph of one parameter set and seed.

    Resamples with seed+1, seed+2, ... when sanitization vanishes; gives up
    after MAX_ATTEMPTS consecutive vanished graphs.
    """
    for attempt in range(MAX_ATTEMPTS):
        edges = generate_raw_edges(p, seed + attempt)
        try:
            g = sanitize(edges, p.n_param)
        except VanishedGraphError:
            continue
        return g
    raise DegenerateParametersError("degenerate parameters")
