"""Differential evolution search and model splitting."""

from __future__ import annotations

import numpy as np
import pytest

import graphbargain.optimizer
from graphbargain import grids
from graphbargain.grids import build_conditional, conditional_from_pairs, predicted_mass, split_model
from graphbargain.objective import bargaining_fitness, fitness_bounds
from graphbargain.optimizer import TRACE_DTYPE, optimize


def random_records(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (K, 4) unit points, clustering and dlog of ``count`` random records, drawn record by record."""
    rows = [[*rng.random(4), rng.random(), rng.uniform(-6.0, 0.0)] for _ in range(count)]
    table = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return table[:, :4], table[:, 4], table[:, 5]


def skewed_records(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two metric cells decided by u_n, with 7 parameter cells on one side and 1 on the other.

    The uniform q weights every observed parameter cell equally, so it
    predicts (7/8, 1/8); a right-skewed Beta on u_n can even that out.
    """
    units = np.full((400, 4), 0.5)
    units[:350, 0] = rng.uniform(0.0, 0.875, 350)
    units[350:, 0] = rng.uniform(0.875, 1.0, 50)
    return units, np.repeat([0.25, 0.75], [350, 50]), np.full(400, -3.0)


@pytest.fixture
def skewed_split(grid_bins):
    """The split of the skewed records on a 2 x 2 metric grid and an 8-bin parameter grid, which stay set for the test."""
    grid_bins(metric_bins=2, param_bins=8)
    records = skewed_records(np.random.default_rng(23))
    return split_model(build_conditional(*records), 3)


def pair_dict(model) -> dict[tuple[int, int], int]:
    """{(flat cell id, metric cell id): count} over the model's stored counts."""
    coo = model.counts.tocoo()
    return {
        (int(model.cell_flat[i]), int(j)): int(c)
        for j, i, c in zip(coo.row, coo.col, coo.data)
    }


class TestSplitModel:
    def test_partition_totals_and_conservation(self, search_constants):
        search_constants(holdout=0.25)
        records = random_records(np.random.default_rng(9), 60)
        full = build_conditional(*records)
        train, hold = split_model(full, 13)
        assert hold.total == 15
        assert train.total == 45
        combined: dict[tuple[int, int], int] = {}
        for side in (train, hold):
            for key, count in pair_dict(side).items():
                combined[key] = combined.get(key, 0) + count
        assert combined == pair_dict(full)

    def test_deterministic(self):
        records = random_records(np.random.default_rng(15), 60)
        full = build_conditional(*records)
        a = split_model(full, 21)
        b = split_model(full, 21)
        assert pair_dict(a[0]) == pair_dict(b[0]) and pair_dict(a[1]) == pair_dict(b[1])
        c = split_model(full, 22)
        assert pair_dict(a[0]) != pair_dict(c[0]) or pair_dict(a[1]) != pair_dict(c[1])

    def test_too_few_records(self):
        small = build_conditional(*random_records(np.random.default_rng(18), 9))
        with pytest.raises(ValueError, match="at least 10 records"):
            split_model(small, 0)
        # at the smallest size split, the holdout share leaves neither side empty
        train, hold = split_model(build_conditional(*random_records(np.random.default_rng(18), 10)), 0)
        assert (train.total, hold.total) == (8, 2)

    def test_neither_side_is_empty_from_ten_records_up(self):
        # the holdout share is a constant, so no split of a model split_model accepts comes out empty
        rng = np.random.default_rng(19)
        for total in range(10, 61):
            train, hold = split_model(build_conditional(*random_records(rng, total)), total)
            assert hold.total == round(total / 5)
            assert train.total + hold.total == total and min(train.total, hold.total) > 0


class TestOptimize:
    def test_improves_over_uniform_q(self, skewed_split, search_constants):
        train, hold = skewed_split
        search_constants(pop=16)
        _, trace = optimize(train, hold, max_gen=30, seed=3)
        best = trace["best_holdout"][-1]
        raw, _ = predicted_mass(hold, np.ones(8))
        ones = bargaining_fitness(raw / raw.sum())
        assert best <= ones
        assert best < ones - 0.025
        f_min, f_max = fitness_bounds(4)
        assert f_min - 1e-9 <= best <= f_max + 1e-9

    def test_result_shape_and_bounds(self, skewed_split, search_constants):
        train, hold = skewed_split
        search_constants(pop=8)
        best_q, trace = optimize(train, hold, max_gen=5, seed=1)
        assert trace.dtype == TRACE_DTYPE
        assert trace.dtype.names == ("generation", "best_train", "best_holdout", "coverage")
        assert trace["generation"].tolist() == list(range(len(trace)))
        best = trace["best_holdout"].tolist()
        assert all(b2 <= b1 + 1e-15 for b1, b2 in zip(best, best[1:]))
        low, high = graphbargain.optimizer._BOUND_LOW, graphbargain.optimizer._BOUND_HIGH
        assert best_q.shape == (8,)
        assert np.all((low <= best_q) & (best_q <= high))
        assert 0.0 < trace["coverage"][-1] <= 1.0 + 1e-12

    @pytest.mark.parametrize("seed", [1, 3, 5])
    def test_last_trace_row_scores_the_best_q_on_the_holdout(self, skewed_split, search_constants, seed):
        train, hold = skewed_split
        search_constants(pop=8)
        best_q, trace = optimize(train, hold, max_gen=6, seed=seed)
        raw, coverage = predicted_mass(hold, best_q)
        assert bargaining_fitness(raw / raw.sum()) == trace["best_holdout"][-1]
        assert coverage == trace["coverage"][-1]

    def test_deterministic(self, skewed_split, search_constants):
        train, hold = skewed_split
        search_constants(pop=8)
        settings = {"max_gen": 6, "seed": 5}
        q_a, trace_a = optimize(train, hold, **settings)
        q_b, trace_b = optimize(train, hold, **settings)
        assert q_a.tolist() == q_b.tolist()
        assert trace_a.tolist() == trace_b.tolist()

    def test_patience_stops_stagnant_run(self, skewed_split, monkeypatch, search_constants):
        train, hold = skewed_split
        search_constants(pop=8, tol=10.0)
        for patience in (1, 3):
            monkeypatch.setattr(graphbargain.optimizer, "_PATIENCE", patience)
            _, trace = optimize(train, hold, max_gen=40, seed=0)
            assert trace["generation"][-1] == patience

    def test_max_generations_cap(self, skewed_split, search_constants):
        train, hold = skewed_split
        search_constants(pop=8, tol=1e-12)
        _, trace = optimize(train, hold, max_gen=4, seed=2)
        assert trace["generation"].tolist() == [0, 1, 2, 3, 4]


def reference_optimize(train, hold, *, pop, max_gen, tol, seed):
    """The synchronous rand/1/bin loop that ``optimize`` must reproduce byte for byte.

    Every trial of a generation mutates the previous generation's population,
    and accepted trials are scored on the holdout after the generation. Also
    returns how many trials fell below the train coverage floor.
    """
    opt = graphbargain.optimizer
    below_floor = 0

    def scorer(model, count_floor):
        _, f_max = fitness_bounds(grids.METRIC_BINS**2)
        floor = opt._COVERAGE_FLOOR_RATIO * predicted_mass(model, np.ones(8))[1]

        def score(z):
            nonlocal below_floor
            raw, cov = predicted_mass(model, np.clip(np.exp(z), opt._BOUND_LOW, opt._BOUND_HIGH))
            if not np.isfinite(cov) or cov < floor or cov <= 0.0:
                below_floor += count_floor
                return f_max, cov
            return bargaining_fitness(raw / raw.sum()), cov

        return score, floor

    score_train, _ = scorer(train, 1)
    score_hold, floor_hold = scorer(hold, 0)
    z_low, z_high = np.log(opt._BOUND_LOW), np.log(opt._BOUND_HIGH)
    z = np.zeros((pop, 8))
    for i in range(1, pop):
        z[i] = np.random.default_rng([seed, 0, i]).uniform(opt._JITTER_LOW, opt._JITTER_HIGH, size=8)
    z = np.clip(z, z_low, z_high)
    f_train = np.array([score_train(row)[0] for row in z])
    hold_scores = [score_hold(row) for row in z]
    f_hold = np.array([f for f, _ in hold_scores])
    cov_hold = np.array([c for _, c in hold_scores])

    best_z, best, best_cov, stagnant, trace = z[0], np.inf, 0.0, 0, []
    for gen in range(max_gen + 1):
        if gen > 0:
            new_z, new_f, accepted = z.copy(), f_train.copy(), []
            for i in range(pop):
                rng = np.random.default_rng([seed, gen, i])
                r1, r2, r3 = (int(j) + (j >= i) for j in rng.choice(pop - 1, size=3, replace=False))
                mutant = z[r1] + opt._MUTATION_FACTOR * (z[r2] - z[r3])
                mask = rng.random(8) < opt._CROSSOVER_RATE
                mask[rng.integers(8)] = True
                trial = np.clip(np.where(mask, mutant, z[i]), z_low, z_high)
                ft, _ = score_train(trial)
                if ft <= f_train[i]:
                    new_z[i], new_f[i] = trial, ft
                    accepted.append(i)
            z, f_train = new_z, new_f
            for i in accepted:
                f_hold[i], cov_hold[i] = score_hold(z[i])
        previous = best
        cand = int(np.argmin(f_hold))
        if f_hold[cand] < best:
            best, best_cov, best_z = float(f_hold[cand]), float(cov_hold[cand]), z[cand].copy()
        trace.append((gen, float(f_train.min()), best, best_cov))
        stagnant = stagnant + 1 if previous - best < tol else 0
        if stagnant >= opt._PATIENCE:
            break
    assert best_cov >= floor_hold
    best_q = np.clip(np.exp(best_z), opt._BOUND_LOW, opt._BOUND_HIGH)
    return best_q, np.array(trace, dtype=TRACE_DTYPE), below_floor


@pytest.mark.parametrize(
    "records_seed, count, metric_bins, param_bins, pop, max_gen, tol, seed, last_gen",
    [
        (41, 200, 4, 3, 8, 8, 1e-3, 0, 8),
        (42, 400, 5, 4, 6, 12, 1e-3, 7, 12),
        (43, 120, 3, 2, 10, 6, 1e-3, 2, 6),
        (44, 300, 6, 5, 5, 10, 1e-4, 11, 10),
        (45, 250, 4, 6, 12, 40, 10.0, 3, 15),  # stagnant from generation 1: patience ends the run
        (46, 500, 8, 8, 8, 10, 1e-3, 5, 10),
    ],
)
def test_optimize_matches_the_synchronous_reference(
    search_constants, grid_bins, records_seed, count, metric_bins, param_bins, pop, max_gen, tol, seed, last_gen
):
    search_constants(pop=pop, tol=tol, holdout=0.25)
    grid_bins(metric_bins=metric_bins, param_bins=param_bins)
    model = build_conditional(*random_records(np.random.default_rng(records_seed), count))
    train, hold = split_model(model, records_seed)
    best_q, trace = optimize(train, hold, max_gen=max_gen, seed=seed)
    ref_q, ref_trace, _ = reference_optimize(train, hold, pop=pop, max_gen=max_gen, tol=tol, seed=seed)
    assert trace["generation"][-1] == last_gen
    assert best_q.tobytes() == ref_q.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def test_optimize_matches_the_reference_at_its_own_population_and_tolerance(skewed_split):
    # 32 candidates and a tolerance of 1e-3 without any patch: the pinned outputs rest on these constants
    train, hold = skewed_split
    best_q, trace = optimize(train, hold, max_gen=3, seed=2)
    ref_q, ref_trace, _ = reference_optimize(train, hold, pop=32, max_gen=3, tol=1e-3, seed=2)
    assert best_q.tobytes() == ref_q.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def test_optimize_matches_the_reference_at_the_run_grids(search_constants):
    # no grid patched: 100 metric cells, and 20 parameter bins per axis with most cells unobserved
    search_constants(pop=8)
    train, hold = split_model(build_conditional(*random_records(np.random.default_rng(47), 400)), 47)
    assert train.counts.shape[0] == 100 and train.cell_flat.max() < 20**4
    best_q, trace = optimize(train, hold, max_gen=6, seed=8)
    ref_q, ref_trace, _ = reference_optimize(train, hold, pop=8, max_gen=6, tol=1e-3, seed=8)
    assert best_q.tobytes() == ref_q.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def test_optimize_matches_the_reference_with_trials_below_the_coverage_floor(skewed_split, search_constants):
    train, hold = skewed_split
    search_constants(pop=12)
    best_q, trace = optimize(train, hold, max_gen=10, seed=4)
    ref_q, ref_trace, below_floor = reference_optimize(train, hold, pop=12, max_gen=10, tol=1e-3, seed=4)
    assert below_floor > 0
    assert best_q.tobytes() == ref_q.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def test_optimize_matches_the_reference_when_holdout_scores_tie(search_constants, grid_bins):
    # every holdout record in one metric cell: each candidate above the holdout floor predicts all mass there
    grid_bins(metric_bins=4, param_bins=3)
    train = build_conditional(*random_records(np.random.default_rng(48), 300))
    flat = np.arange(0, 3**4, 2)
    hold = conditional_from_pairs(flat, np.zeros_like(flat), np.ones_like(flat))
    search_constants(pop=8)
    best_q, trace = optimize(train, hold, max_gen=8, seed=6)
    ref_q, ref_trace, _ = reference_optimize(train, hold, pop=8, max_gen=8, tol=1e-3, seed=6)
    assert trace["best_holdout"].tolist() == [fitness_bounds(16)[1]] * 9
    assert trace["best_train"][-1] < trace["best_train"][0]
    # the first of the tied trials, generation 0's uniform vector, stays the best
    assert best_q.tolist() == [1.0] * 8
    assert best_q.tobytes() == ref_q.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def holdout_floor(hold) -> float:
    return graphbargain.optimizer._COVERAGE_FLOOR_RATIO * predicted_mass(hold, np.ones(8))[1]


@pytest.mark.parametrize("seed", [0, 1, 4])
def test_the_best_keeps_the_coverage_floor_while_holdout_trials_fall_below_it(
    skewed_split, monkeypatch, search_constants, seed
):
    train, hold = skewed_split
    floor = holdout_floor(hold)
    holdout_coverages = []

    def recording(model, shapes):
        raw, coverage = predicted_mass(model, shapes)
        if model is hold:
            holdout_coverages.append(coverage)
        return raw, coverage

    monkeypatch.setattr(graphbargain.optimizer, "predicted_mass", recording)
    search_constants(pop=12)
    _, trace = optimize(train, hold, max_gen=10, seed=seed)
    assert min(holdout_coverages) < floor
    assert trace["coverage"][-1] >= floor
    assert trace["coverage"].min() >= floor


def test_the_uniform_q_stays_best_when_every_candidate_scores_the_worst_fitness(search_constants, grid_bins):
    # every record in one metric cell: each candidate above the floor predicts all mass there
    grid_bins(metric_bins=2, param_bins=5)
    units = np.random.default_rng(5).random((300, 4))
    train, hold = split_model(build_conditional(units, np.full(300, 0.25), np.full(300, -3.0)), 1)
    _, f_max = fitness_bounds(4)
    search_constants(pop=8)
    best_q, trace = optimize(train, hold, max_gen=6, seed=0)
    assert trace["best_train"].tolist() == trace["best_holdout"].tolist() == [f_max] * len(trace)
    assert best_q.tolist() == [1.0] * 8
    assert trace["coverage"].tolist() == [predicted_mass(hold, np.ones(8))[1]] * len(trace)
    assert trace["coverage"][-1] >= holdout_floor(hold)
