"""Differential evolution search and model splitting."""

from __future__ import annotations

import numpy as np
import pytest

import graphbargain.optimizer
from graphbargain.graph import MetricPoint
from graphbargain.grids import MetricGrid, ParamGrid, build_conditional, predicted_mass
from graphbargain.objective import bargaining_fitness, fitness_bounds
from graphbargain.optimizer import optimize, split_model
from graphbargain.params import QVector, UnitPoint


def random_records(rng: np.random.Generator, count: int) -> list[tuple[UnitPoint, MetricPoint]]:
    records = []
    for _ in range(count):
        u = UnitPoint(*(float(x) for x in rng.random(4)))
        point = MetricPoint(float(rng.random()), float(rng.uniform(-6.0, 0.0)))
        records.append((u, point))
    return records


def skewed_records(rng: np.random.Generator) -> list[tuple[UnitPoint, MetricPoint]]:
    """Two metric cells decided by u_n, with 7 parameter cells on one side and 1 on the other.

    The uniform q weights every observed parameter cell equally, so it
    predicts (7/8, 1/8); a right-skewed Beta on u_n can even that out.
    """
    records = []
    for _ in range(350):
        u = UnitPoint(float(rng.uniform(0.0, 0.875)), 0.5, 0.5, 0.5)
        records.append((u, MetricPoint(0.25, -3.0)))
    for _ in range(50):
        u = UnitPoint(float(rng.uniform(0.875, 1.0)), 0.5, 0.5, 0.5)
        records.append((u, MetricPoint(0.75, -3.0)))
    return records


@pytest.fixture(scope="module")
def skewed_split():
    records = skewed_records(np.random.default_rng(23))
    return split_model(build_conditional(records, MetricGrid(2, 1), ParamGrid(8)), 0.2, 3)


def pair_dict(model) -> dict[tuple[int, int], int]:
    flat = model.cell_flat[model.pair_cell]
    return {
        (int(i), int(j)): int(c)
        for i, j, c in zip(flat, model.pair_metric, model.pair_counts)
    }


class TestSplitModel:
    def test_partition_totals_and_conservation(self):
        records = random_records(np.random.default_rng(9), 60)
        full = build_conditional(records, MetricGrid(10, 10), ParamGrid(5))
        train, hold = split_model(full, 0.25, 13)
        assert hold.total == 15
        assert train.total == 45
        assert train.metric_grid == full.metric_grid
        assert train.param_grid == full.param_grid
        combined: dict[tuple[int, int], int] = {}
        for side in (train, hold):
            for key, count in pair_dict(side).items():
                combined[key] = combined.get(key, 0) + count
        assert combined == pair_dict(full)

    def test_deterministic(self):
        records = random_records(np.random.default_rng(15), 60)
        full = build_conditional(records, MetricGrid(10, 10), ParamGrid(5))
        a = split_model(full, 0.2, 21)
        b = split_model(full, 0.2, 21)
        assert pair_dict(a[0]) == pair_dict(b[0]) and pair_dict(a[1]) == pair_dict(b[1])
        c = split_model(full, 0.2, 22)
        assert pair_dict(a[0]) != pair_dict(c[0]) or pair_dict(a[1]) != pair_dict(c[1])

    def test_too_few_records(self):
        records = random_records(np.random.default_rng(17), 12)
        full = build_conditional(records, MetricGrid(10, 10), ParamGrid(5))
        # one range check on the rounded holdout size refuses every bad fraction
        for fraction in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="degenerate split"):
                split_model(full, fraction, 0)
        with pytest.raises(ValueError):
            split_model(full, float("nan"), 0)
        small = build_conditional(random_records(np.random.default_rng(18), 9), MetricGrid(10, 10), ParamGrid(5))
        with pytest.raises(ValueError, match="at least 10 records"):
            split_model(small, 0.2, 0)


class TestOptimize:
    def test_improves_over_uniform_q(self, skewed_split):
        train, hold = skewed_split
        result = optimize(train, hold, pop=16, max_gen=30, tol=1e-3, seed=3)
        raw, _ = predicted_mass(hold, QVector.all_ones().as_array())
        ones = bargaining_fitness(raw / raw.sum())
        assert result.best_holdout_fitness <= ones
        assert result.best_holdout_fitness < ones - 0.025
        f_min, f_max = fitness_bounds(train.metric_grid.cell_count)
        assert f_min - 1e-9 <= result.best_holdout_fitness <= f_max + 1e-9

    def test_result_shape_and_bounds(self, skewed_split):
        train, hold = skewed_split
        result = optimize(train, hold, pop=8, max_gen=5, tol=1e-3, seed=1)
        assert result.trace[0].generation == 0
        assert result.trace[-1].generation == result.generations_run
        assert len(result.trace) == result.generations_run + 1
        best = [t.best_holdout for t in result.trace]
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))
        low, high = graphbargain.optimizer._BOUND_LOW, graphbargain.optimizer._BOUND_HIGH
        for spec in result.best_q.specs:
            assert low <= spec.alpha <= high
            assert low <= spec.beta <= high
        assert 0.0 < result.best_coverage <= 1.0 + 1e-12

    def test_deterministic(self, skewed_split):
        train, hold = skewed_split
        settings = {"pop": 8, "max_gen": 6, "tol": 1e-3, "seed": 5}
        a = optimize(train, hold, **settings)
        b = optimize(train, hold, **settings)
        assert a.best_q == b.best_q
        assert a.best_holdout_fitness == b.best_holdout_fitness
        assert a.trace == b.trace

    def test_patience_stops_stagnant_run(self, skewed_split, monkeypatch):
        train, hold = skewed_split
        for patience in (1, 3):
            monkeypatch.setattr(graphbargain.optimizer, "_PATIENCE", patience)
            assert optimize(train, hold, pop=8, max_gen=40, tol=10.0, seed=0).generations_run == patience

    def test_max_generations_cap(self, skewed_split):
        train, hold = skewed_split
        result = optimize(train, hold, pop=8, max_gen=4, tol=1e-12, seed=2)
        assert result.generations_run == 4

    def test_mismatched_grids_rejected(self):
        records = skewed_records(np.random.default_rng(29))
        a = build_conditional(records, MetricGrid(2, 1), ParamGrid(4))
        b = build_conditional(records, MetricGrid(2, 1), ParamGrid(5))
        c = build_conditional(records, MetricGrid(2, 2), ParamGrid(4))
        settings = {"pop": 8, "max_gen": 4, "tol": 1e-3, "seed": 0}
        with pytest.raises(ValueError, match="different grids"):
            optimize(a, b, **settings)
        with pytest.raises(ValueError, match="different grids"):
            optimize(a, c, **settings)
