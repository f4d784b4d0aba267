"""Cooperative bargaining objective over a metric-cell distribution.

Each of the M metric cells is treated as a player whose utility is the
probability mass it receives.  The fitness is the negated mean log2 payoff

    f(p) = -(1/M) * sum_j log2(1 + (M - 1) * p_j)

Lower is better.  The perfectly even split scores f_min, all mass in one
cell scores f_max.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bargaining_fitness", "fitness_bounds"]

_SUM_TOL = 1e-6


def bargaining_fitness(probabilities: np.ndarray, cells: int | None = None) -> float:
    """Fitness of a probability vector over M >= 2 metric cells.

    M is ``cells`` if given, else the vector's length; the cells the vector leaves out hold no mass.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    m = p.size if cells is None else cells
    if p.ndim != 1 or m < 2:
        raise ValueError("invalid distribution: need a 1-d vector with at least 2 cells")
    if p.size > m:
        raise ValueError(f"invalid distribution: lists {p.size} cells, more than its {m}")
    if np.any(p < 0.0):
        raise ValueError("invalid distribution: negative probability")
    total = float(p.sum())
    # written so that a nan total fails too
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ValueError(f"invalid distribution: sums to {total!r}, not 1")
    p = p / total
    return float(-(np.sum(np.log2(1.0 + (m - 1) * p)) / m))


def fitness_bounds(m: int) -> tuple[float, float]:
    """(f_min, f_max) attainable fitness for an M-cell distribution.

    The uniform spread attains f_min, a single loaded cell f_max; every
    valid distribution scores inside the closed interval.
    """
    if m < 2:
        raise ValueError("need at least 2 cells")
    f_min = -math.log2(2.0 - 1.0 / m)
    f_max = -math.log2(m) / m
    return f_min, f_max
