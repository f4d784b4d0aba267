"""Bargaining fitness: closed-form values, bounds, and input validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from graphbargain.objective import bargaining_fitness, fitness_bounds


class TestKnownValues:
    def test_uniform_hundred_cells(self):
        p = np.full(100, 0.01)
        assert bargaining_fitness(p) == pytest.approx(-math.log2(1.99), abs=1e-12)

    def test_uniform_two_cells(self):
        assert bargaining_fitness(np.array([0.5, 0.5])) == pytest.approx(-math.log2(1.5), abs=1e-12)

    def test_one_hot(self):
        for m in (2, 10, 100):
            p = np.zeros(m)
            p[0] = 1.0
            assert bargaining_fitness(p) == pytest.approx(-math.log2(m) / m, abs=1e-12)

    def test_hand_computed_three_cells(self):
        p = np.array([0.5, 0.3, 0.2])
        expected = -(math.log2(2.0) + math.log2(1.6) + math.log2(1.4)) / 3.0
        assert bargaining_fitness(p) == pytest.approx(expected, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.dirichlet(np.ones(20))
        assert bargaining_fitness(p) == pytest.approx(bargaining_fitness(p[::-1]), abs=1e-12)

    def test_uniform_is_strictly_best_nearby(self):
        m = 50
        uniform = np.full(m, 1.0 / m)
        tilted = uniform.copy()
        tilted[0] += 0.004
        tilted[1] -= 0.004
        assert bargaining_fitness(uniform) < bargaining_fitness(tilted)


class TestListedCells:
    def test_dense_score_is_the_negated_mean_bit_for_bit(self):
        # The optimizer scores dense vectors, and best_q.txt pins its fitness to the last bit.
        p = np.random.default_rng(11).dirichlet(np.ones(400))
        assert bargaining_fitness(p) == float(-np.mean(np.log2(1.0 + 399 * (p / p.sum()))))

    def test_listing_the_occupied_cells_scores_as_the_dense_vector(self):
        rng = np.random.default_rng(7)
        dense = np.zeros(400)
        dense[rng.choice(400, size=30, replace=False)] = rng.dirichlet(np.ones(30))
        listed = dense[dense > 0.0]
        assert abs(bargaining_fitness(listed, cells=400) - bargaining_fitness(dense)) <= 1e-15
        assert bargaining_fitness(dense, cells=400) == bargaining_fitness(dense)

    def test_one_listed_cell_is_the_one_hot_bound(self):
        assert bargaining_fitness(np.array([1.0]), cells=10) == pytest.approx(fitness_bounds(10)[1], abs=1e-15)

    def test_cells_below_two_or_below_the_listing_rejected(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            bargaining_fitness(np.array([1.0]), cells=1)
        with pytest.raises(ValueError, match="at least 2 cells"):
            bargaining_fitness(np.array([0.5, 0.5]), cells=0)
        with pytest.raises(ValueError, match="lists 3 cells, more than its 2"):
            bargaining_fitness(np.full(3, 1.0 / 3.0), cells=2)


class TestBounds:
    def test_bounds_formulae(self):
        f_min, f_max = fitness_bounds(100)
        assert f_min == pytest.approx(-math.log2(1.99), abs=1e-12)
        assert f_max == pytest.approx(-math.log2(100) / 100, abs=1e-12)
        assert f_min < f_max

    def test_random_distributions_stay_inside(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            m = int(rng.integers(2, 40))
            alpha = float(rng.uniform(0.05, 5.0))
            p = rng.dirichlet(np.full(m, alpha))
            f_min, f_max = fitness_bounds(m)
            f = bargaining_fitness(p)
            assert f_min - 1e-12 <= f <= f_max + 1e-12

    def test_bounds_attained(self):
        for m in (2, 7, 100):
            f_min, f_max = fitness_bounds(m)
            assert bargaining_fitness(np.full(m, 1.0 / m)) == pytest.approx(f_min, abs=1e-12)
            one_hot = np.zeros(m)
            one_hot[-1] = 1.0
            assert bargaining_fitness(one_hot) == pytest.approx(f_max, abs=1e-12)

    def test_single_cell_rejected(self):
        with pytest.raises(ValueError, match="at least 2 cells"):
            fitness_bounds(1)


class TestValidation:
    def test_accepts_tiny_normalization_slack(self):
        p = np.full(4, 0.25)
        p[0] += 5e-7
        assert math.isfinite(bargaining_fitness(p))

    def test_rejects_larger_normalization_error(self):
        p = np.full(4, 0.25)
        p[0] += 2e-6
        with pytest.raises(ValueError, match="sums to"):
            bargaining_fitness(p)

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError, match=r"sums to nan, not 1$"):
            bargaining_fitness(np.array([math.nan, 0.5, 0.5]))

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="negative"):
            bargaining_fitness(np.array([1.1, -0.1]))

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="1-d"):
            bargaining_fitness(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="at least 2"):
            bargaining_fitness(np.array([1.0]))

    def test_renormalizes_before_scoring(self):
        p = np.full(10, 0.1)
        q = p * (1.0 + 9e-7)
        assert bargaining_fitness(q) == pytest.approx(bargaining_fitness(p), abs=1e-9)
