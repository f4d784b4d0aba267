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
from dataclasses import dataclass

import numpy as np

from .rmat import RmatParams

__all__ = [
    "ParamBounds",
    "UnitPoint",
    "BetaSpec",
    "QVector",
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


@dataclass(frozen=True)
class UnitPoint:
    """Unit-hypercube coordinates of one parameter configuration."""

    u_n: float
    u_a: float
    u_b: float
    u_c: float


@dataclass(frozen=True)
class BetaSpec:
    """Shape parameters of one shifted-scaled Beta distribution."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not 0.0 < value <= SHAPE_MAX:
                raise ValueError(f"{name} must lie in (0, {SHAPE_MAX:g}], got {value}")


UNIFORM_SPEC = BetaSpec(1.0, 1.0)


@dataclass(frozen=True)
class QVector:
    """The optimization variables: one BetaSpec per optimized parameter."""

    q_n: BetaSpec
    q_a: BetaSpec
    q_b: BetaSpec
    q_c: BetaSpec

    @property
    def specs(self) -> tuple[BetaSpec, BetaSpec, BetaSpec, BetaSpec]:
        """Per-dimension specs in the canonical (N, a, b, c) order."""
        return (self.q_n, self.q_a, self.q_b, self.q_c)

    def as_array(self) -> np.ndarray:
        return np.array([v for s in self.specs for v in (s.alpha, s.beta)])

    @classmethod
    def from_array(cls, values: np.ndarray) -> "QVector":
        flat = np.asarray(values, dtype=np.float64).ravel()
        if flat.shape != (8,):
            raise ValueError("expected 8 values (alpha, beta per dimension)")
        specs = [BetaSpec(flat[2 * i], flat[2 * i + 1]) for i in range(4)]
        return cls(*specs)

    @classmethod
    def all_ones(cls) -> "QVector":
        return cls(UNIFORM_SPEC, UNIFORM_SPEC, UNIFORM_SPEC, UNIFORM_SPEC)


def _affine(u: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return lo
    return min(lo + u * (hi - lo), hi)


def _to_unit(raw: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    return (raw - lo) / (hi - lo)


def unit_point(p: RmatParams) -> UnitPoint:
    """Map a raw configuration onto its unit-hypercube coordinates."""
    bounds = ParamBounds.for_edges(p.e_param)
    b_lo, b_hi = ParamBounds.b_range(p.a)
    c_lo, c_hi = ParamBounds.c_range(p.a, p.b)
    return UnitPoint(
        u_n=_to_unit(float(p.n_param), float(bounds.n_min), float(bounds.n_max)),
        u_a=_to_unit(p.a, A_MIN, A_MAX),
        u_b=_to_unit(p.b, b_lo, b_hi),
        u_c=_to_unit(p.c, c_lo, c_hi),
    )


def params_from_unit(e_param: int, u: UnitPoint) -> RmatParams:
    """Recover a raw configuration from unit coordinates (N rounded to int)."""
    bounds = ParamBounds.for_edges(e_param)
    n = round(_affine(u.u_n, float(bounds.n_min), float(bounds.n_max)))
    n = min(max(n, bounds.n_min), bounds.n_max)
    a = _affine(u.u_a, A_MIN, A_MAX)
    b = _affine(u.u_b, *ParamBounds.b_range(a))
    c = _affine(u.u_c, *ParamBounds.c_range(a, b))
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


def sample_from_q(
    q: QVector, e_min: int, e_max: int, rng: np.random.Generator
) -> RmatParams:
    """One draw with Beta-distributed unit coordinates; E stays uniform."""
    _check_edge_interval(e_min, e_max)
    e = int(rng.integers(e_min, e_max + 1))
    coords = [float(rng.beta(s.alpha, s.beta)) for s in q.specs]
    return params_from_unit(e, UnitPoint(*coords))

