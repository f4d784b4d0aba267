"""Feasible parameter region, unit normalization, baseline and Beta sampling.

All downstream machinery (grids, CDF products) works on unit-normalized
coordinates: each raw parameter is mapped affinely from its feasible interval
onto [0, 1], in the fixed order (N, a, b, c). Because the feasible intervals
are nested (b's depends on a, c's on a and b), sampling each coordinate
uniformly on its interval makes the unit coordinates independently uniform on
the hypercube, which is what turns the per-dimension CDF product into an
exact cell probability.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .graph import MAX_KEYED_NODES
from .rmat import RmatParams

__all__ = [
    "Q_KEYS",
    "node_range",
    "b_range",
    "c_range",
    "check_shapes",
    "check_edge_interval",
    "sample_baseline",
    "sample_from_q",
    "unit_point",
    "params_from_unit",
]

A_MIN = 0.25
A_MAX = 1.0

# The smallest edge count with a feasible node count (see node_range).
E_MIN = 19

# The largest Beta shape parameter (alpha or beta) a q vector may hold.
SHAPE_MAX = 100.0

# The names of q's eight Beta shapes, in the order of its arrays and files.
Q_KEYS = ("alpha_n", "beta_n", "alpha_a", "beta_a", "alpha_b", "beta_b", "alpha_c", "beta_c")
_EXPECTED_SHAPES = f"expected {len(Q_KEYS)} Beta shapes in (0, {SHAPE_MAX:g}]"


def node_range(e_param: int) -> tuple[int, int]:
    """The feasible node counts (n_min, n_max) for E edges.

    n_min is the exact smallest N with density 2E/(N(N-1)) <= 1/10; n_max is
    the largest N that can still be connected (E+1 nodes). The two bounds
    cross for E < E_MIN, so such edge counts are rejected.
    """
    if e_param < 1:
        raise ValueError("edge count must be positive")
    n_min = (1 + math.isqrt(1 + 80 * e_param)) // 2
    while n_min * (n_min - 1) < 20 * e_param:
        n_min += 1
    n_max = e_param + 1
    if n_min > n_max:
        raise ValueError(
            f"no feasible node count for E={e_param}: density bound needs "
            f"N >= {n_min} but connectivity needs N <= {n_max} (E >= {E_MIN} required)"
        )
    return n_min, n_max


def b_range(a: float) -> tuple[float, float]:
    """The feasible interval of b given a."""
    hi = min(a, 1.0 - a)
    # Exact arithmetic guarantees lo <= hi on the feasible a interval;
    # rounding can invert the pair by an ulp, so clamp.
    return (min(max(0.0, 1.0 - 3.0 * a), hi), hi)


def c_range(a: float, b: float) -> tuple[float, float]:
    """The feasible interval of c given a and b."""
    hi = min(a, 1.0 - a - b)
    return (min(max(0.0, 1.0 - 2.0 * a - b), hi), hi)


def check_shapes(values: object) -> np.ndarray:
    """The eight Beta shapes as a float64 (8,) array in ``Q_KEYS`` order.

    A wrong shape raises ValueError naming it; a nan or a shape outside
    (0, SHAPE_MAX] raises one naming the first bad key.
    """
    shapes = np.asarray(values, dtype=np.float64)
    if shapes.shape != (len(Q_KEYS),):
        raise ValueError(f"{_EXPECTED_SHAPES}, got shape {shapes.shape}")
    # min and max are nan when any shape is, so nan fails the check
    if not (0.0 < shapes.min() and shapes.max() <= SHAPE_MAX):
        first = int(np.argmin((shapes > 0.0) & (shapes <= SHAPE_MAX)))
        raise ValueError(f"{_EXPECTED_SHAPES}, got {Q_KEYS[first]} = {float(shapes[first])!r}")
    return shapes


def _affine(u: float, lo: float, hi: float) -> float:
    return min(lo + u * (hi - lo), hi)


def _to_unit(raw: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return (raw - lo) / (hi - lo)


def unit_point(p: RmatParams) -> tuple[float, float, float, float]:
    """Map a raw configuration onto its unit-hypercube coordinates (u_n, u_a, u_b, u_c)."""
    n_min, n_max = node_range(p.e_param)
    b_lo, b_hi = b_range(p.a)
    c_lo, c_hi = c_range(p.a, p.b)
    return (
        _to_unit(float(p.n_param), float(n_min), float(n_max)),
        _to_unit(p.a, A_MIN, A_MAX),
        _to_unit(p.b, b_lo, b_hi),
        _to_unit(p.c, c_lo, c_hi),
    )


def _probabilities(u_a: float, u_b: float, u_c: float) -> tuple[float, float, float, float]:
    """The quadrant probabilities (a, b, c, d) at unit coordinates (u_a, u_b, u_c)."""
    a = _affine(u_a, A_MIN, A_MAX)
    b = _affine(u_b, *b_range(a))
    c = _affine(u_c, *c_range(a, b))
    return a, b, c, min(max(1.0 - a - b - c, 0.0), a)


def params_from_unit(e_param: int, u: Sequence[float]) -> RmatParams:
    """Recover a raw configuration from unit coordinates (u_n, u_a, u_b, u_c); N is rounded to int."""
    u_n, *u_abc = u
    n_min, n_max = node_range(e_param)
    n = round(_affine(u_n, float(n_min), float(n_max)))
    return RmatParams(min(max(n, n_min), n_max), e_param, *_probabilities(*u_abc))


def check_edge_interval(e_min: int, e_max: int) -> None:
    """Raise ValueError unless E_MIN <= e_min < e_max < MAX_KEYED_NODES."""
    if e_min < E_MIN:
        raise ValueError(f"e_min must be at least {E_MIN}; smaller edge targets leave no feasible node count")
    if e_max <= e_min:
        raise ValueError("e_max must exceed e_min")
    if e_max >= MAX_KEYED_NODES:
        raise ValueError(f"e_max must be below {MAX_KEYED_NODES}, where a draw's e_max + 1 nodes fit the int64 edge keys")


def sample_baseline(e_min: int, e_max: int, rng: np.random.Generator) -> RmatParams:
    """One naive draw: uniform E and N, then a, b, c uniform on their nested intervals, by params_from_unit's map."""
    check_edge_interval(e_min, e_max)
    e = int(rng.integers(e_min, e_max + 1))
    n_min, n_max = node_range(e)
    n = int(rng.integers(n_min, n_max + 1))
    return RmatParams(n, e, *_probabilities(*rng.random(3).tolist()))


def sample_from_q(q: np.ndarray, e_min: int, e_max: int, rng: np.random.Generator) -> RmatParams:
    """One draw with Beta-distributed unit coordinates; E stays uniform.

    ``q`` holds the eight Beta shapes in ``Q_KEYS`` order. The four
    coordinates come from one ``rng.beta`` call, which draws the same values
    from the stream as four calls in (N, a, b, c) order.
    """
    shapes = check_shapes(q)
    check_edge_interval(e_min, e_max)
    e = int(rng.integers(e_min, e_max + 1))
    return params_from_unit(e, rng.beta(shapes[0::2], shapes[1::2]).tolist())

