"""Search for the Beta parameter vector q that evens out the metric spread.

The eight Beta parameters are evolved in log space with a plain differential
evolution scheme (rand/1/bin).  Selection uses fitness on the train model;
the holdout model decides what gets reported and when to stop.  Candidates
whose pushed mass (coverage) falls below a floor relative to the uniform
candidate are assigned the worst possible fitness, which keeps the search
away from regions the baseline sample never visited.

Every random draw comes from a generator seeded with (seed, generation,
candidate index), so runs are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import CoverageCollapseError
from .grids import ConditionalModel, conditional_from_pairs, predicted_mass
from .objective import Fitness, bargaining_fitness, fitness_bounds
from .params import SHAPE_MAX

__all__ = [
    "GenerationStats",
    "OptimizationResult",
    "split_model",
    "optimize",
]

logger = logging.getLogger(__name__)

# Initial population jitter range in log space.
_JITTER_LOW = float(np.log(0.25))
_JITTER_HIGH = float(np.log(4.0))

# Bounds on every Beta shape parameter, in linear space.
_BOUND_LOW = 1e-3
_BOUND_HIGH = SHAPE_MAX
_Z_LOW = float(np.log(_BOUND_LOW))
_Z_HIGH = float(np.log(_BOUND_HIGH))

# A candidate keeping less than this share of the uniform candidate's
# coverage gets the worst fitness.
_COVERAGE_FLOOR_RATIO = 0.5

# rand/1/bin mutation factor and crossover rate, the textbook settings of
# Storn & Price (1997).
_MUTATION_FACTOR = 0.7
_CROSSOVER_RATE = 0.9

# The run stops once this many consecutive generations each improve the best
# holdout fitness by less than the tolerance.  A single stagnant generation is
# common long before the search is done, so the window keeps one quiet
# generation from ending the run.
_PATIENCE = 15


@dataclass(frozen=True)
class GenerationStats:
    """Progress snapshot after a generation; best_holdout is best seen so far."""

    generation: int
    best_train: Fitness
    best_holdout: Fitness
    coverage: float


@dataclass(frozen=True)
class OptimizationResult:
    best_q: np.ndarray  # the eight Beta shapes in params.Q_KEYS order
    best_holdout_fitness: Fitness
    best_coverage: float
    generations_run: int
    trace: tuple[GenerationStats, ...] = field(repr=False)


def split_model(
    model: ConditionalModel,
    holdout_fraction: float,
    seed: int,
) -> tuple[ConditionalModel, ConditionalModel]:
    """Split a serialized model's counts without access to the raw records.

    Draws the holdout side uniformly over the model's record tokens (a
    multivariate hypergeometric over the (cell, metric) pair counts), which
    matches a record-level split in distribution at the grid's resolution.
    A fraction outside (0, 1), or one that rounds a side to no records,
    raises ValueError.
    """
    if model.total < 10:
        raise ValueError("need at least 10 records to split")
    n_hold = int(round(model.total * holdout_fraction))
    if not 0 < n_hold < model.total:
        raise ValueError("degenerate split: one side would be empty")
    rng = np.random.default_rng(seed)
    hold_counts = rng.multivariate_hypergeometric(model.pair_counts, n_hold)
    train_counts = model.pair_counts - hold_counts
    flat = model.cell_flat[model.pair_cell]
    train = conditional_from_pairs(model.metric_grid, model.param_grid, flat, model.pair_metric, train_counts)
    hold = conditional_from_pairs(model.metric_grid, model.param_grid, flat, model.pair_metric, hold_counts)
    return train, hold


def _shapes_from_log(z: np.ndarray) -> np.ndarray:
    # exp(log(bound)) can overshoot by an ulp; clip in linear space
    return np.clip(np.exp(z), _BOUND_LOW, _BOUND_HIGH)


def _make_evaluator(model: ConditionalModel) -> tuple[Callable[[np.ndarray], tuple[Fitness, float]], float]:
    """Fitness of a log-space vector on one model, with its coverage floor."""
    _, f_max = fitness_bounds(model.metric_grid.cell_count)
    _, uniform_cov = predicted_mass(model, np.ones(8))
    floor = _COVERAGE_FLOOR_RATIO * uniform_cov

    def evaluate(z: np.ndarray) -> tuple[Fitness, float]:
        raw, cov = predicted_mass(model, _shapes_from_log(z))
        if not np.isfinite(cov) or cov < floor or cov <= 0.0:
            return f_max, cov
        return bargaining_fitness(raw / raw.sum()), cov

    return evaluate, floor


def optimize(
    train: ConditionalModel,
    holdout: ConditionalModel,
    *,
    pop: int,
    max_gen: int,
    tol: float,
    seed: int,
) -> OptimizationResult:
    """Evolve ``pop`` candidates for at most ``max_gen`` generations.

    The run stops early once the best holdout fitness gains less than ``tol``
    for ``_PATIENCE`` generations in a row; RunConfig checks the settings.
    """
    if train.metric_grid != holdout.metric_grid or train.param_grid != holdout.param_grid:
        raise ValueError("train and holdout models use different grids")

    eval_train, _ = _make_evaluator(train)
    eval_hold, floor_hold = _make_evaluator(holdout)

    # Candidate 0 is the uniform vector; the rest jitter around it.
    z = np.zeros((pop, 8))
    for i in range(1, pop):
        rng = np.random.default_rng([seed, 0, i])
        z[i] = rng.uniform(_JITTER_LOW, _JITTER_HIGH, size=8)
    np.clip(z, _Z_LOW, _Z_HIGH, out=z)

    f_train = np.empty(pop)
    f_hold = np.empty(pop)
    cov_hold = np.empty(pop)
    for i in range(pop):
        f_train[i], _ = eval_train(z[i])
        f_hold[i], cov_hold[i] = eval_hold(z[i])

    best_i = int(np.argmin(f_hold))
    best_z = z[best_i].copy()
    best_fitness = float(f_hold[best_i])
    best_coverage = float(cov_hold[best_i])

    trace = [GenerationStats(0, float(f_train.min()), best_fitness, best_coverage)]
    logger.info("generation 0: train %.6f holdout %.6f coverage %.4g", trace[0].best_train, best_fitness, best_coverage)

    generations_run = 0
    stagnant = 0
    for gen in range(1, max_gen + 1):
        new_z = z.copy()
        new_f = f_train.copy()
        accepted = []
        for i in range(pop):
            rng = np.random.default_rng([seed, gen, i])
            picks = rng.choice(pop - 1, size=3, replace=False)
            # skip over i so the three partners are distinct from the target
            r1, r2, r3 = (int(j) if j < i else int(j) + 1 for j in picks)
            mutant = z[r1] + _MUTATION_FACTOR * (z[r2] - z[r3])
            mask = rng.random(8) < _CROSSOVER_RATE
            mask[rng.integers(8)] = True
            trial = np.where(mask, mutant, z[i])
            np.clip(trial, _Z_LOW, _Z_HIGH, out=trial)
            ft, _ = eval_train(trial)
            if ft <= f_train[i]:
                new_z[i] = trial
                new_f[i] = ft
                accepted.append(i)
        z, f_train = new_z, new_f
        for i in accepted:
            f_hold[i], cov_hold[i] = eval_hold(z[i])

        generations_run = gen
        prev_best = best_fitness
        cand = int(np.argmin(f_hold))
        if f_hold[cand] < best_fitness:
            best_fitness = float(f_hold[cand])
            best_coverage = float(cov_hold[cand])
            best_z = z[cand].copy()
        trace.append(GenerationStats(gen, float(f_train.min()), best_fitness, best_coverage))
        logger.info(
            "generation %d: train %.6f holdout %.6f coverage %.4g",
            gen, trace[-1].best_train, best_fitness, best_coverage,
        )
        if prev_best - best_fitness < tol:
            stagnant += 1
            if stagnant >= _PATIENCE:
                break
        else:
            stagnant = 0

    if best_coverage < floor_hold:
        raise CoverageCollapseError(
            f"best candidate keeps only {best_coverage:.3g} mass on the holdout model (floor {floor_hold:.3g})"
        )
    return OptimizationResult(
        best_q=_shapes_from_log(best_z),
        best_holdout_fitness=best_fitness,
        best_coverage=best_coverage,
        generations_run=generations_run,
        trace=tuple(trace),
    )
