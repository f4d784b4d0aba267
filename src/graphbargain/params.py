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
from dataclasses import dataclass

import numpy as np

from .rmat import RmatParams

__all__ = [
    "Q_KEYS",
    "ParamBounds",
    "check_shapes",
    "sample_baseline",
    "sample_from_q",
    "unit_point",
    "params_from_unit",
]

A_MIN = 0.25
A_MAX = 1.0

# The smallest edge count with a feasible node count (see ParamBounds).
E_MIN = 19

# The largest Beta shape parameter (alpha or beta) a q vector may hold.
SHAPE_MAX = 100.0

# The names of q's eight Beta shapes, in the order of its arrays and files.
Q_KEYS = ("alpha_n", "beta_n", "alpha_a", "beta_a", "alpha_b", "beta_b", "alpha_c", "beta_c")
_EXPECTED_SHAPES = f"expected {len(Q_KEYS)} Beta shapes in (0, {SHAPE_MAX:g}]"


@dataclass(frozen=True)
class ParamBounds:
    """Feasible intervals for (N, a, b, c) at a given edge count.

    n_min is the exact smallest N with density 2E/(N(N-1)) <= 1/10; n_max is
    the largest N that can still be connected (E+1 nodes). The two bounds
    cross for E < E_MIN, so such edge counts are rejected.
    """

    e_param: int
    n_min: int
    n_max: int

    @classmethod
    def for_edges(cls, e_param: int) -> "ParamBounds":
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
        return cls(e_param=e_param, n_min=n_min, n_max=n_max)

    @staticmethod
    def b_range(a: float) -> tuple[float, float]:
        hi = min(a, 1.0 - a)
        # Exact arithmetic guarantees lo <= hi on the feasible a interval;
        # rounding can invert the pair by an ulp, so clamp.
        return (min(max(0.0, 1.0 - 3.0 * a), hi), hi)

    @staticmethod
    def c_range(a: float, b: float) -> tuple[float, float]:
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
    if hi <= lo:
        return lo
    return min(lo + u * (hi - lo), hi)


def _to_unit(raw: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return (raw - lo) / (hi - lo)


def unit_point(p: RmatParams) -> tuple[float, float, float, float]:
    """Map a raw configuration onto its unit-hypercube coordinates (u_n, u_a, u_b, u_c)."""
    bounds = ParamBounds.for_edges(p.e_param)
    b_lo, b_hi = ParamBounds.b_range(p.a)
    c_lo, c_hi = ParamBounds.c_range(p.a, p.b)
    return (
        _to_unit(float(p.n_param), float(bounds.n_min), float(bounds.n_max)),
        _to_unit(p.a, A_MIN, A_MAX),
        _to_unit(p.b, b_lo, b_hi),
        _to_unit(p.c, c_lo, c_hi),
    )


def params_from_unit(e_param: int, u: Sequence[float]) -> RmatParams:
    """Recover a raw configuration from unit coordinates (u_n, u_a, u_b, u_c); N is rounded to int."""
    u_n, u_a, u_b, u_c = u
    bounds = ParamBounds.for_edges(e_param)
    n = round(_affine(u_n, float(bounds.n_min), float(bounds.n_max)))
    n = min(max(n, bounds.n_min), bounds.n_max)
    a = _affine(u_a, A_MIN, A_MAX)
    b = _affine(u_b, *ParamBounds.b_range(a))
    c = _affine(u_c, *ParamBounds.c_range(a, b))
    d = min(max(1.0 - a - b - c, 0.0), a)
    return RmatParams(n_param=n, e_param=e_param, a=a, b=b, c=c, d=d)


def _check_edge_interval(e_min: int, e_max: int) -> None:
    if e_min < E_MIN:
        raise ValueError(f"e_min must be at least {E_MIN}")
    if e_max <= e_min:
        raise ValueError("e_max must exceed e_min")


def sample_baseline(e_min: int, e_max: int, rng: np.random.Generator) -> RmatParams:
    """One naive draw: uniform E and N, then uniform a, b, c on their nested intervals."""
    _check_edge_interval(e_min, e_max)
    e = int(rng.integers(e_min, e_max + 1))
    bounds = ParamBounds.for_edges(e)
    n = int(rng.integers(bounds.n_min, bounds.n_max + 1))
    a = float(rng.uniform(A_MIN, A_MAX))
    b_lo, b_hi = ParamBounds.b_range(a)
    b = min(float(rng.uniform(b_lo, b_hi)), b_hi)
    c_lo, c_hi = ParamBounds.c_range(a, b)
    c = min(float(rng.uniform(c_lo, c_hi)), c_hi)
    d = min(max(1.0 - a - b - c, 0.0), a)
    return RmatParams(n_param=n, e_param=e, a=a, b=b, c=c, d=d)


def sample_from_q(q: np.ndarray, e_min: int, e_max: int, rng: np.random.Generator) -> RmatParams:
    """One draw with Beta-distributed unit coordinates; E stays uniform.

    ``q`` holds the eight Beta shapes in ``Q_KEYS`` order. The four
    coordinates come from one ``rng.beta`` call, which draws the same values
    from the stream as four calls in (N, a, b, c) order.
    """
    shapes = check_shapes(q)
    _check_edge_interval(e_min, e_max)
    e = int(rng.integers(e_min, e_max + 1))
    return params_from_unit(e, rng.beta(shapes[0::2], shapes[1::2]).tolist())

