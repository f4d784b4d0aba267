"""Differential evolution search, model splitting, and configuration checks."""

from __future__ import annotations

import numpy as np
import pytest

import graphbargain.optimizer
from graphbargain.errors import ConfigError
from graphbargain.graph import MetricPoint
from graphbargain.grids import MetricGrid, ParamGrid, build_conditional, predicted_mass
from graphbargain.objective import bargaining_fitness, fitness_bounds
from graphbargain.optimizer import OptimizerConfig, optimize, split_model
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


class TestOptimizerConfig:
    def test_defaults_are_valid(self):
        config = OptimizerConfig()
        assert config.population_size == 32
        assert config.max_generations == 50
        assert config.tolerance == 1e-3
        assert config.seed == 0

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"population_size": 3}, "population_size"),
            ({"max_generations": 0}, "max_generations"),
            ({"tolerance": 0.0}, "tolerance"),
            ({"tolerance": -1.0}, "tolerance"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            OptimizerConfig(**kwargs)


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
        assert a[0] == b[0] and a[1] == b[1]
        c = split_model(full, 0.2, 22)
        assert a[0] != c[0] or a[1] != c[1]

    def test_too_few_records(self):
        records = random_records(np.random.default_rng(17), 12)
        full = build_conditional(records, MetricGrid(10, 10), ParamGrid(5))
        with pytest.raises(ValueError, match="holdout fraction"):
            split_model(full, 1.5, 0)
        small = build_conditional(random_records(np.random.default_rng(18), 9), MetricGrid(10, 10), ParamGrid(5))
        with pytest.raises(ValueError, match="at least 10 records"):
            split_model(small, 0.2, 0)


class TestOptimize:
    def test_improves_over_uniform_q(self, skewed_split):
        train, hold = skewed_split
        config = OptimizerConfig(population_size=16, max_generations=30, seed=3)
        result = optimize(train, hold, config)
        raw, _ = predicted_mass(hold, QVector.all_ones())
        ones = bargaining_fitness(raw / raw.sum())
        assert result.best_holdout_fitness <= ones
        assert result.best_holdout_fitness < ones - 0.025
        f_min, f_max = fitness_bounds(train.metric_grid.cell_count)
        assert f_min - 1e-9 <= result.best_holdout_fitness <= f_max + 1e-9

    def test_result_shape_and_bounds(self, skewed_split):
        train, hold = skewed_split
        config = OptimizerConfig(population_size=8, max_generations=5, seed=1)
        result = optimize(train, hold, config)
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
        config = OptimizerConfig(population_size=8, max_generations=6, seed=5)
        a = optimize(train, hold, config)
        b = optimize(train, hold, config)
        assert a.best_q == b.best_q
        assert a.best_holdout_fitness == b.best_holdout_fitness
        assert a.trace == b.trace

    def test_patience_stops_stagnant_run(self, skewed_split, monkeypatch):
        train, hold = skewed_split
        config = OptimizerConfig(population_size=8, max_generations=40, tolerance=10.0, seed=0)
        for patience in (1, 3):
            monkeypatch.setattr(graphbargain.optimizer, "_PATIENCE", patience)
            assert optimize(train, hold, config).generations_run == patience

    def test_max_generations_cap(self, skewed_split):
        train, hold = skewed_split
        config = OptimizerConfig(population_size=8, max_generations=4, tolerance=1e-12, seed=2)
        result = optimize(train, hold, config)
        assert result.generations_run == 4

    def test_mismatched_grids_rejected(self):
        records = skewed_records(np.random.default_rng(29))
        a = build_conditional(records, MetricGrid(2, 1), ParamGrid(4))
        b = build_conditional(records, MetricGrid(2, 1), ParamGrid(5))
        c = build_conditional(records, MetricGrid(2, 2), ParamGrid(4))
        with pytest.raises(ValueError, match="different grids"):
            optimize(a, b)
        with pytest.raises(ValueError, match="different grids"):
            optimize(a, c)
