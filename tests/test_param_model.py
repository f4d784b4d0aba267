"""Feasible region, unit normalization, Beta sampling, and CDF machinery."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from graphbargain.params import (
    A_MAX,
    A_MIN,
    E_MIN,
    Q_KEYS,
    SHAPE_MAX,
    ParamBounds,
    check_shapes,
    params_from_unit,
    sample_baseline,
    sample_from_q,
    unit_point,
)


class TestParamBounds:
    def test_n_min_is_exact_density_threshold(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            e = int(rng.integers(19, 1_000_000))
            bounds = ParamBounds.for_edges(e)
            assert bounds.n_min * (bounds.n_min - 1) >= 20 * e
            assert (bounds.n_min - 1) * (bounds.n_min - 2) < 20 * e
            assert bounds.n_max == e + 1

    def test_smallest_feasible_edge_count(self):
        assert E_MIN == 19
        bounds = ParamBounds.for_edges(E_MIN)
        assert bounds.n_min == 20
        assert bounds.n_max == 20
        with pytest.raises(ValueError, match=f"no feasible node count for E={E_MIN - 1}"):
            ParamBounds.for_edges(E_MIN - 1)

    def test_infeasible_edge_counts_rejected(self):
        for e in (1, 5, 18):
            with pytest.raises(ValueError, match="feasible"):
                ParamBounds.for_edges(e)
        with pytest.raises(ValueError, match="positive"):
            ParamBounds.for_edges(0)

    def test_nested_intervals_are_consistent(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            a = float(rng.uniform(A_MIN, A_MAX))
            b_lo, b_hi = ParamBounds.b_range(a)
            assert 0.0 <= b_lo <= b_hi <= min(a, 1.0 - a) + 1e-15
            b = float(rng.uniform(b_lo, b_hi))
            c_lo, c_hi = ParamBounds.c_range(a, b)
            assert 0.0 <= c_lo <= c_hi <= min(a, 1.0 - a - b) + 1e-15
            c = float(rng.uniform(c_lo, c_hi))
            d = 1.0 - a - b - c
            # any point drawn inside the nested intervals is a valid vector
            assert d <= a + 1e-12
            assert d >= -1e-12

    def test_interval_lower_bounds_are_active(self):
        # for small a the sum constraint forces b and c strictly positive
        b_lo, _ = ParamBounds.b_range(0.26)
        assert b_lo == pytest.approx(1.0 - 3 * 0.26)
        c_lo, _ = ParamBounds.c_range(0.3, 0.3)
        assert c_lo == pytest.approx(1.0 - 2 * 0.3 - 0.3)


class TestUnitNormalization:
    def test_round_trip_through_unit_coordinates(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            p = sample_baseline(100, 5000, rng)
            u = unit_point(p)
            for coord in u:
                assert -1e-12 <= coord <= 1.0 + 1e-12
            q = params_from_unit(p.e_param, u)
            assert q.n_param == p.n_param
            assert q.a == pytest.approx(p.a, abs=1e-9)
            assert q.b == pytest.approx(p.b, abs=1e-9)
            assert q.c == pytest.approx(p.c, abs=1e-9)
            assert q.d == pytest.approx(p.d, abs=1e-9)

    def test_corner_coordinates_always_produce_valid_params(self):
        rng = np.random.default_rng(19)
        corners = [0.0, 1e-13, 3.2e-7, 0.5, 1.0 - 1e-16, 1.0]
        for _ in range(400):
            u = [float(rng.choice(corners)) for _ in range(4)]
            e = int(rng.integers(19, 20000))
            p = params_from_unit(e, u)
            assert p.e_param == e

    def test_rounding_inversion_regression(self):
        # coordinates observed to invert the c interval by one ulp
        u = (0.9999989721431102, 8.494593471030542e-13, 3.1696722737229873e-07, 1.7320543629898558e-26)
        p = params_from_unit(3799, u)
        assert p.a >= max(p.b, p.c, p.d)

    def test_extreme_unit_values_map_to_interval_ends(self):
        e = 1000
        bounds = ParamBounds.for_edges(e)
        lo = params_from_unit(e, (0.0, 0.0, 0.0, 0.0))
        hi = params_from_unit(e, (1.0, 1.0, 1.0, 1.0))
        assert lo.n_param == bounds.n_min
        assert hi.n_param == bounds.n_max
        assert lo.a == A_MIN
        assert hi.a == A_MAX


class TestSampling:
    def test_baseline_unit_coordinates_are_uniform(self):
        rng = np.random.default_rng(23)
        coords = np.array([unit_point(sample_baseline(50, 4000, rng)) for _ in range(4000)])
        for k in range(4):
            res = stats.kstest(coords[:, k], "uniform")
            assert res.pvalue > 1e-3, f"coordinate {k} not uniform (p={res.pvalue})"
        corr = np.corrcoef(coords, rowvar=False)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) < 0.06

    def test_all_ones_q_matches_baseline_distribution(self):
        rng = np.random.default_rng(29)
        coords = np.array([unit_point(sample_from_q(np.ones(8), 50, 4000, rng)) for _ in range(2000)])
        for k in range(4):
            res = stats.kstest(coords[:, k], "uniform")
            assert res.pvalue > 1e-3

    def test_concentrated_q_concentrates_coordinates(self):
        rng = np.random.default_rng(31)
        q = np.full(8, 100.0)
        for _ in range(100):
            _, u_a, _, _ = unit_point(sample_from_q(q, 100, 2000, rng))
            assert abs(u_a - 0.5) < 0.35

    def test_edge_interval_validation(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="e_min"):
            sample_baseline(5, 100, rng)
        with pytest.raises(ValueError, match="e_max"):
            sample_baseline(100, 100, rng)

    def test_edge_floor_is_checked_before_drawing(self):
        # e_min = 18 fails here, not later on a draw of E = 18 with no feasible node count
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="e_min must be at least 19"):
            sample_baseline(18, 100, rng)
        with pytest.raises(ValueError, match="e_min must be at least 19"):
            sample_from_q(np.ones(8), 18, 100, rng)
        assert sample_baseline(E_MIN, E_MIN + 1, rng).e_param >= E_MIN
        assert sample_from_q(np.ones(8), E_MIN, E_MIN + 1, rng).e_param >= E_MIN

    def test_baseline_respects_bounds(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = sample_baseline(19, 400, rng)
            assert 19 <= p.e_param <= 400
            bounds = ParamBounds.for_edges(p.e_param)
            assert bounds.n_min <= p.n_param <= bounds.n_max

    def test_sampling_is_deterministic_per_rng_state(self):
        a = sample_baseline(50, 500, np.random.default_rng(5))
        b = sample_baseline(50, 500, np.random.default_rng(5))
        assert a == b


    def test_one_beta_call_draws_what_four_scalar_calls_drew(self):
        # sample_from_q draws its four coordinates in one call; the stream,
        # and so every generated dataset, is the one four calls in (N, a, b, c) order gave
        shapes_rng = np.random.default_rng(43)
        for seed in range(50):
            q = np.exp(shapes_rng.uniform(np.log(1e-3), np.log(SHAPE_MAX), 8))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                e = int(twin.integers(50, 4001))
                coords = [float(twin.beta(q[2 * k], q[2 * k + 1])) for k in range(4)]
                assert sample_from_q(q, 50, 4000, rng) == params_from_unit(e, coords)
            assert rng.random() == twin.random()


class TestCheckShapes:
    def test_returns_the_float64_array_in_key_order(self):
        assert Q_KEYS == ("alpha_n", "beta_n", "alpha_a", "beta_a", "alpha_b", "beta_b", "alpha_c", "beta_c")
        shapes = check_shapes([1, 2.0, 3, 4, 5, 6, 7, SHAPE_MAX])
        assert shapes.dtype == np.float64
        assert shapes.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 100.0]
        assert check_shapes(np.full(8, 1e-9)).tolist() == [1e-9] * 8
        array = np.ones(8)
        assert check_shapes(array) is array

    @pytest.mark.parametrize(
        "index,value,shown",
        [(0, 0.0, "0.0"), (1, -1.0, "-1.0"), (3, 100.0001, "100.0001"), (6, np.nan, "nan"), (7, np.inf, "inf")],
    )
    def test_names_the_first_bad_key(self, index, value, shown):
        shapes = np.ones(8)
        shapes[index] = value
        if index < 7:
            shapes[7] = 101.0  # a later bad key is not the one named
        with pytest.raises(ValueError, match=rf"^expected 8 Beta shapes in \(0, 100\], got {Q_KEYS[index]} = {shown}$"):
            check_shapes(shapes)

    @pytest.mark.parametrize(
        "values,shape", [(np.ones(7), r"\(7,\)"), (np.ones(9), r"\(9,\)"), (np.ones((2, 4)), r"\(2, 4\)"), ([], r"\(0,\)")]
    )
    def test_rejects_a_wrong_shape(self, values, shape):
        with pytest.raises(ValueError, match=rf"^expected 8 Beta shapes in \(0, 100\], got shape {shape}$"):
            check_shapes(values)
