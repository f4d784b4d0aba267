"""Search for the Beta parameter vector q that evens out the metric spread.

The eight Beta parameters are evolved in log space by rand/1/bin differential
evolution.  Each generation builds all its trials from the previous population,
then scores them in member order: the train model selects, and the holdout
model picks the one best and when to stop.  Candidates whose pushed mass
(coverage) falls below a floor relative to the uniform candidate get the worst
fitness, which keeps the search away from regions the baseline sample never
visited.  The uniform candidate is the first trial, and only a strictly better
fitness replaces the best, so the best keeps at least the floor's coverage.

Every random draw comes from a generator seeded with (seed, generation,
candidate index), so runs are reproducible regardless of evaluation order.
"""

from __future__ import annotations

import logging
from typing import Callable

import numpy as np

from .grids import ConditionalModel, predicted_mass
from .objective import bargaining_fitness, fitness_bounds
from .params import SHAPE_MAX

__all__ = ["TRACE_DTYPE", "optimize"]

logger = logging.getLogger(__name__)

# One row per generation: the best train fitness in the population, then the
# best holdout fitness seen so far and that candidate's holdout coverage. The
# field names are trace.csv's header.
TRACE_DTYPE = np.dtype(
    [("generation", np.int64), ("best_train", np.float64), ("best_holdout", np.float64), ("coverage", np.float64)]
)

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

# Candidates per generation.
_POPULATION = 32

# The run stops once _PATIENCE consecutive generations each improve the best
# holdout fitness by less than _TOLERANCE.  A single stagnant generation is
# common long before the search is done, so the window keeps one quiet
# generation from ending the run.
_TOLERANCE = 1e-3
_PATIENCE = 15


def _shapes_from_log(z: np.ndarray) -> np.ndarray:
    # exp(log(bound)) can overshoot by an ulp; clip in linear space
    return np.clip(np.exp(z), _BOUND_LOW, _BOUND_HIGH)


def _make_evaluator(model: ConditionalModel) -> Callable[[np.ndarray], tuple[float, float]]:
    """Fitness and coverage of a log-space vector on one model; f_max below the (positive) coverage floor."""
    _, f_max = fitness_bounds(model.counts.shape[0])
    floor = _COVERAGE_FLOOR_RATIO * predicted_mass(model, np.ones(8))[1]

    def evaluate(z: np.ndarray) -> tuple[float, float]:
        raw, cov = predicted_mass(model, _shapes_from_log(z))
        if not np.isfinite(cov) or cov < floor:
            return f_max, cov
        return bargaining_fitness(raw / raw.sum()), cov

    return evaluate


def optimize(
    train: ConditionalModel, holdout: ConditionalModel, *, max_gen: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve ``_POPULATION`` candidates for at most ``max_gen`` generations.

    Returns the best q (the eight Beta shapes in ``params.Q_KEYS`` order)
    and the per-generation trace, a ``TRACE_DTYPE`` array whose last row
    holds the best q's holdout fitness and coverage and the generation the
    run ended on. The run stops early once the best holdout fitness gains
    less than ``_TOLERANCE`` for ``_PATIENCE`` generations in a row;
    RunConfig checks ``max_gen`` and ``seed``.
    """
    eval_train = _make_evaluator(train)
    eval_hold = _make_evaluator(holdout)

    # Generation 0's trials, which beat the infinite fitness they start from,
    # are the uniform vector and candidates jittered around it.
    z = np.zeros((_POPULATION, 8))
    f_train = np.full(_POPULATION, np.inf)
    best_z, best_fitness, best_coverage = np.zeros(8), np.inf, 0.0
    trace = []
    stagnant = 0
    for gen in range(max_gen + 1):
        # Pass 1: every trial of the generation mutates the previous population.
        trials = np.zeros((_POPULATION, 8))
        for i in range(_POPULATION):
            rng = np.random.default_rng([seed, gen, i])
            if gen == 0 and i:
                trials[i] = rng.uniform(_JITTER_LOW, _JITTER_HIGH, size=8)
            elif gen > 0:
                picks = rng.choice(_POPULATION - 1, size=3, replace=False)
                # skip over i so the three partners are distinct from the target
                r1, r2, r3 = (int(j) if j < i else int(j) + 1 for j in picks)
                mask = rng.random(8) < _CROSSOVER_RATE
                mask[rng.integers(8)] = True
                trials[i] = np.where(mask, z[r1] + _MUTATION_FACTOR * (z[r2] - z[r3]), z[i])
        np.clip(trials, _Z_LOW, _Z_HIGH, out=trials)
        # Pass 2: a trial no worse on the train model replaces its member, and
        # the best if its holdout fitness is strictly lower, so ties keep the first.
        prev_best = best_fitness
        for i, trial in enumerate(trials):
            ft, _ = eval_train(trial)
            if ft <= f_train[i]:
                z[i], f_train[i] = trial, ft
                fh, cov = eval_hold(trial)
                if fh < best_fitness:
                    best_z, best_fitness, best_coverage = trial, fh, cov
        trace.append((gen, float(f_train.min()), best_fitness, best_coverage))
        logger.info("generation %d: train %.6f holdout %.6f coverage %.4g", *trace[-1])
        if prev_best - best_fitness < _TOLERANCE:
            stagnant += 1
            if stagnant >= _PATIENCE:
                break
        else:
            stagnant = 0

    return _shapes_from_log(best_z), np.array(trace, dtype=TRACE_DTYPE)
