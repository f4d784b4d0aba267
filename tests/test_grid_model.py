"""Metric and parameter grids, the conditional model, and its file format."""

from __future__ import annotations

import logging
import math

import numpy as np
import pytest
from scipy.special import betainc

from graphbargain.errors import DataError
from graphbargain.grids import (
    ConditionalModel,
    MetricGrid,
    ParamGrid,
    _dim_masses,
    build_conditional,
    conditional_from_pairs,
    load_conditional,
    predicted_mass,
    save_conditional,
)


def random_records(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (K, 4) unit points, clustering and dlog of ``count`` random records, drawn record by record."""
    rows = [[*rng.random(4), rng.random(), rng.uniform(-6.0, 0.0)] for _ in range(count)]
    table = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return table[:, :4], table[:, 4], table[:, 5]


def random_model(rng: np.random.Generator, count: int = 200, metric_bins: int = 10, param_bins: int = 5) -> ConditionalModel:
    return build_conditional(
        *random_records(rng, count),
        MetricGrid(metric_bins, metric_bins),
        ParamGrid(param_bins),
    )


def cell_digits(model: ConditionalModel) -> np.ndarray:
    """Per observed cell, its (N, a, b, c) bins, read off ``cell_flat``."""
    return np.column_stack(np.unravel_index(model.cell_flat, (model.param_grid.bins,) * 4))


def same_model(a: ConditionalModel, b: ConditionalModel) -> bool:
    """Equal grids, totals and count arrays; models themselves compare by identity."""
    return (
        a.metric_grid == b.metric_grid
        and a.param_grid == b.param_grid
        and a.total == b.total
        and all(
            np.array_equal(getattr(a, name), getattr(b, name))
            for name in ("cell_flat", "cell_counts", "pair_cell", "pair_metric", "pair_counts")
        )
    )


def scalar_metric_cell(grid: MetricGrid, clustering: float, dlog: float) -> int:
    """Per-point metric cell, as the grid once located each point; the array locate's reference."""
    c_bin = min(int(clustering * grid.clustering_bins), grid.clustering_bins - 1)
    d = max(dlog, grid.dlog_min)
    width = (grid.dlog_max - grid.dlog_min) / grid.dlog_bins
    d_bin = max(min(int((d - grid.dlog_min) / width), grid.dlog_bins - 1), 0)
    return c_bin * grid.dlog_bins + d_bin


def scalar_param_cell(grid: ParamGrid, u: list[float]) -> int:
    """Per-point parameter cell id, row-major over (N, a, b, c); the array locate's reference."""
    flat = 0
    for x in u:
        flat = flat * grid.bins + min(int(x * grid.bins), grid.bins - 1)
    return flat


def per_spec_predicted_mass(model: ConditionalModel, q: np.ndarray) -> tuple[np.ndarray, float]:
    """predicted_mass as first written: one betainc per spec, vstack, four gathers and a bincount push.

    The exact oracle for predicted_mass's outer product and sparse push: a
    matrix-vector product that fused its multiply-add would differ in the
    last bit and fail the == tests.
    """
    edges = np.linspace(0.0, 1.0, model.param_grid.bins + 1)
    dim = np.vstack([np.diff(betainc(alpha, beta, edges)) for alpha, beta in zip(q[0::2], q[1::2])])
    cb = cell_digits(model)
    cellmass = dim[0][cb[:, 0]] * dim[1][cb[:, 1]] * dim[2][cb[:, 2]] * dim[3][cb[:, 3]]
    coverage = float(cellmass.sum())
    weights = (model.pair_counts / model.cell_counts[model.pair_cell]) * cellmass[model.pair_cell]
    raw = np.bincount(model.pair_metric, weights=weights, minlength=model.metric_grid.cell_count)
    return raw, coverage


def bound_qs(rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """Every alpha/beta alone at 1e-3 and at 100, both extremes everywhere, then log-uniform draws."""
    qs = []
    for value in (1e-3, 100.0):
        qs.append(np.full(8, value))
        for k in range(8):
            z = np.ones(8)
            z[k] = value
            qs.append(z)
    qs.append(np.array([1e-3, 100.0] * 4))
    qs.append(np.array([100.0, 1e-3] * 4))
    while len(qs) < count:
        qs.append(np.exp(rng.uniform(np.log(1e-3), np.log(100.0), 8)))
    return qs


class TestMetricGrid:
    def test_known_cells(self):
        grid = MetricGrid(10, 10)
        assert grid.cell_count == 100
        cells = grid.locate([0.25, 0.0, 0.05, 0.999], [-3.0, -6.0, -5.95, -0.001])
        assert cells.dtype == np.int64
        assert cells.tolist() == [25, 0, 0, 99]

    def test_upper_edges_fold_into_last_bins(self):
        grid = MetricGrid(10, 10)
        assert grid.locate([1.0, 0.25, 1.0], [-3.0, 0.0, 0.0]).tolist() == [95, 29, 99]

    def test_low_dlog_is_clamped_with_one_counting_warning(self, caplog):
        grid = MetricGrid(10, 10)
        with caplog.at_level(logging.WARNING, logger="graphbargain.grids"):
            assert grid.locate([0.5, 0.5, 0.5], [-7.5, -3.0, -1e9]).tolist() == [50, 55, 50]
        clamped = [r.getMessage() for r in caplog.records if "clamped into first bin" in r.getMessage()]
        assert len(clamped) == 1 and clamped[0].startswith("2 dlog values")

    def test_out_of_range_raises(self):
        grid = MetricGrid(10, 10)
        with pytest.raises(ValueError, match="outside"):
            grid.locate([0.5, -0.01], [-3.0, -3.0])
        with pytest.raises(ValueError, match="outside"):
            grid.locate([1.01], [-3.0])
        with pytest.raises(ValueError, match="outside"):
            grid.locate([math.nan], [-3.0])
        with pytest.raises(ValueError, match="nan"):
            grid.locate([0.5], [math.nan])

    def test_empty_input(self):
        assert MetricGrid(10, 10).locate([], []).tolist() == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="at least one bin"):
            MetricGrid(0, 5)
        with pytest.raises(ValueError, match="dlog_min"):
            MetricGrid(5, 5, dlog_min=0.0, dlog_max=0.0)

    def test_bins_partition_the_plane(self):
        grid = MetricGrid(7, 9)
        rng = np.random.default_rng(3)
        cells = grid.locate(rng.random(500), rng.uniform(-6.0, 0.0, 500))
        assert cells.min() >= 0 and cells.max() < grid.cell_count


def with_bin_edges(rng: np.random.Generator, edges: np.ndarray, lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` values: every bin edge plus uniform draws on [lo, hi], shuffled."""
    return rng.permutation(np.concatenate([edges, rng.uniform(lo, hi, count - edges.size)]))


def test_array_locates_match_the_scalar_reference():
    # bin edges, upper edges and dlog below (and above) the grid included
    rng = np.random.default_rng(17)
    for _ in range(200):
        mgrid = MetricGrid(
            int(rng.integers(1, 13)), int(rng.integers(1, 13)),
            dlog_min=float(rng.uniform(-8.0, -3.0)), dlog_max=float(rng.uniform(-2.0, 0.0)),
        )
        width = (mgrid.dlog_max - mgrid.dlog_min) / mgrid.dlog_bins
        c = with_bin_edges(rng, np.arange(mgrid.clustering_bins + 1) / mgrid.clustering_bins, 0.0, 1.0, 500)
        d_edges = mgrid.dlog_min + np.arange(mgrid.dlog_bins + 1) * width
        d = with_bin_edges(rng, d_edges, mgrid.dlog_min - 2.0, mgrid.dlog_max + 0.5, 500)
        expected = [scalar_metric_cell(mgrid, float(x), float(y)) for x, y in zip(c, d)]
        assert mgrid.locate(c, d).tolist() == expected

        pgrid = ParamGrid(int(rng.integers(1, 25)))
        edges = np.arange(pgrid.bins + 1) / pgrid.bins
        units = np.column_stack([with_bin_edges(rng, edges, 0.0, 1.0, 500) for _ in range(4)])
        expected = [scalar_param_cell(pgrid, list(map(float, row))) for row in units]
        assert pgrid.locate(units).tolist() == expected


class TestParamGrid:
    def test_locate_and_upper_edge_folding(self):
        grid = ParamGrid(20)
        cells = grid.locate([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.05, 0.049999, 0.5, 0.951]])
        assert cells.dtype == np.int64
        assert cells.tolist() == [0, grid.cell_count - 1, ((1 * 20 + 0) * 20 + 10) * 20 + 19]

    def test_locate_out_of_range(self):
        grid = ParamGrid(20)
        with pytest.raises(ValueError, match="outside"):
            grid.locate([[0.5, -0.01, 0.5, 0.5]])
        with pytest.raises(ValueError, match="outside"):
            grid.locate([[0.5, 0.5, 1.01, 0.5]])
        with pytest.raises(ValueError, match=r"\(K, 4\)"):
            grid.locate([0.5, 0.5, 0.5, 0.5])

    def test_cell_count(self):
        assert ParamGrid(20).cell_count == 160000
        assert ParamGrid(1).cell_count == 1


class TestConditionalConstruction:
    def test_build_matches_manual_pair_assembly(self):
        rng = np.random.default_rng(7)
        units, clustering, dlog = random_records(rng, 400)
        metric_grid = MetricGrid(10, 10)
        param_grid = ParamGrid(5)
        built = build_conditional(units, clustering, dlog, metric_grid, param_grid)

        counts: dict[tuple[int, int], int] = {}
        for u, c, d in zip(units.tolist(), clustering.tolist(), dlog.tolist()):
            key = (scalar_param_cell(param_grid, u), scalar_metric_cell(metric_grid, c, d))
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(counts)
        manual = conditional_from_pairs(
            metric_grid,
            param_grid,
            np.array([k[0] for k in keys]),
            np.array([k[1] for k in keys]),
            np.array([counts[k] for k in keys]),
        )
        assert same_model(built, manual)
        assert built.total == 400

    def test_duplicate_pairs_merge(self):
        model = conditional_from_pairs(
            MetricGrid(10, 10), ParamGrid(5),
            np.array([5, 5, 3]), np.array([2, 2, 7]), np.array([1, 2, 4]),
        )
        assert model.total == 7
        assert model.cell_flat.tolist() == [3, 5]
        assert model.cell_counts.tolist() == [4, 3]
        assert model.pair_metric.tolist() == [7, 2]
        assert model.pair_counts.tolist() == [4, 3]
        assert model.pair_cell.tolist() == [0, 1]
        assert cell_digits(model).tolist() == [[0, 0, 0, 3], [0, 0, 1, 0]]

    def test_zero_counts_dropped(self):
        model = conditional_from_pairs(
            MetricGrid(10, 10), ParamGrid(5),
            np.array([1, 2]), np.array([0, 1]), np.array([0, 3]),
        )
        assert model.total == 3
        assert model.cell_flat.tolist() == [2]

    def test_validation_errors(self):
        mg, pg = MetricGrid(10, 10), ParamGrid(5)
        one = np.array([1])
        with pytest.raises(ValueError, match="1-d"):
            conditional_from_pairs(mg, pg, np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-d"):
            conditional_from_pairs(mg, pg, np.array([1, 2]), one, one)
        with pytest.raises(ValueError, match="negative"):
            conditional_from_pairs(mg, pg, one, one, np.array([-1]))
        with pytest.raises(ValueError, match="no records"):
            conditional_from_pairs(mg, pg, one, one, np.array([0]))
        with pytest.raises(ValueError, match="parameter cell id"):
            conditional_from_pairs(mg, pg, np.array([pg.cell_count]), one, one)
        with pytest.raises(ValueError, match="metric cell id"):
            conditional_from_pairs(mg, pg, one, np.array([mg.cell_count]), one)
        with pytest.raises(ValueError, match="no records"):
            build_conditional(np.zeros((0, 4)), [], [], mg, pg)

    def test_equality(self):
        a = random_model(np.random.default_rng(9))
        b = random_model(np.random.default_rng(9))
        c = random_model(np.random.default_rng(10))
        assert same_model(a, b) and same_model(b, a)
        assert not same_model(a, c)
        assert a != b


def unit_edges(bins: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, bins + 1)


class TestPrediction:
    def test_all_ones_coverage_is_cell_fraction(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, count=300, param_bins=4)
        raw, coverage = predicted_mass(model, np.ones(8))
        expected = model.cell_flat.size / model.param_grid.cell_count
        assert coverage == pytest.approx(expected, abs=1e-12)
        assert raw.sum() == pytest.approx(coverage, abs=1e-12)
        assert raw.shape == (model.metric_grid.cell_count,)

    def test_raw_mass_sums_to_coverage(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, count=250, param_bins=5)
        q = np.array([2.0, 1.0, 0.5, 0.5, 3.0, 4.0, 1.0, 2.0])
        raw, coverage = predicted_mass(model, q)
        assert raw.sum() == pytest.approx(coverage, abs=1e-12)
        assert np.all(raw >= 0.0)

    def test_single_cell_mass_is_the_box_probability(self):
        u = [[0.31, 0.62, 0.11, 0.87]]
        model = build_conditional(u, [0.5], [-2.0], MetricGrid(10, 10), ParamGrid(5))
        q = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        _, coverage = predicted_mass(model, q)
        # the box [0.2, 0.4) x [0.6, 0.8) x [0.0, 0.2) x [0.8, 1.0]
        lower = np.array([0.2, 0.6, 0.0, 0.8])
        expected = math.prod(
            betainc(alpha, beta, hi) - betainc(alpha, beta, lo)
            for alpha, beta, lo, hi in zip(q[0::2], q[1::2], lower, lower + 0.2)
        )
        assert coverage == pytest.approx(expected, abs=1e-12)

    def test_single_cell_mass_matches_monte_carlo(self):
        rng = np.random.default_rng(41)
        q = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        u = [[0.5, 0.1, 0.7, 0.3]]
        param_grid = ParamGrid(4)
        model = build_conditional(u, [0.5], [-2.0], MetricGrid(10, 10), param_grid)
        _, coverage = predicted_mass(model, q)
        n = 200_000
        draws = np.column_stack([rng.beta(alpha, beta, n) for alpha, beta in zip(q[0::2], q[1::2])])
        estimate = float(np.mean(param_grid.locate(draws) == model.cell_flat[0]))
        sigma = math.sqrt(estimate * (1 - estimate) / n)
        assert coverage == pytest.approx(estimate, abs=5 * sigma)

    def test_dim_masses_are_bin_probabilities(self):
        uniform = _dim_masses(np.ones(8), unit_edges(8))
        assert uniform.shape == (4, 8)
        assert np.allclose(uniform, 1.0 / 8, atol=1e-15)
        rng = np.random.default_rng(45)
        for q in bound_qs(rng, 40):
            dim = _dim_masses(q, unit_edges(20))
            assert np.all(dim >= 0.0)
            assert np.allclose(dim.sum(axis=1), 1.0, atol=1e-12)
        for shape in (0.3, 1.0, 7.0, 50.0):
            dim = _dim_masses(np.full(8, shape), unit_edges(10))
            assert np.allclose(dim, dim[:, ::-1], atol=1e-12)

    def test_equals_per_spec_reference(self):
        rng = np.random.default_rng(41)
        models = [random_model(rng, count=1500, param_bins=bins) for bins in (1, 2, 7, 20, 33)]
        # most of a 30 x 30 metric grid stays empty under 60 records
        models.append(random_model(rng, count=60, metric_bins=30, param_bins=20))
        # single-pair models: one record, and one pair holding many records
        models.append(random_model(rng, count=1, param_bins=20))
        models.append(conditional_from_pairs(MetricGrid(10, 10), ParamGrid(20), [77_777], [42], [9]))
        assert np.unique(models[5].pair_metric).size < models[5].metric_grid.cell_count // 10
        assert models[6].pair_counts.size == models[7].pair_counts.size == 1
        qs = bound_qs(rng, 240)
        for model in models:
            for q in qs:
                raw, coverage = predicted_mass(model, q)
                expected_raw, expected_coverage = per_spec_predicted_mass(model, q)
                assert np.all(raw == expected_raw)
                assert coverage == expected_coverage

    def test_rejects_bad_shapes(self):
        model = random_model(np.random.default_rng(47), count=50)
        predicted_mass(model, np.full(8, 100.0))
        bad = [np.ones(7), np.ones((2, 8))]
        for value in (0.0, -1.0, 100.5, np.inf, np.nan):
            shapes = np.ones(8)
            shapes[3] = value
            bad.append(shapes)
        for shapes in bad:
            with pytest.raises(ValueError, match=r"expected 8 Beta shapes in \(0, 100\]"):
                predicted_mass(model, shapes)

    def test_cached_arrays_leave_equality_and_file_unchanged(self, tmp_path):
        model = random_model(np.random.default_rng(43), count=400)
        twin = random_model(np.random.default_rng(43), count=400)
        before, after = tmp_path / "before.txt", tmp_path / "after.txt"
        save_conditional(model, before)
        predicted_mass(model, np.ones(8))
        cached = ("param_edges", "cell_index", "push")
        assert all(name in vars(model) and name not in vars(twin) for name in cached)
        push = model.push
        assert push.shape == (model.metric_grid.cell_count, model.cell_flat.size)
        assert push.nnz == model.pair_counts.size
        assert np.all(push.toarray()[model.pair_metric, model.pair_cell] == model.pair_counts / model.cell_counts[model.pair_cell])
        b01, b2, b3 = model.cell_index
        bins = model.param_grid.bins
        assert np.array_equal(b01 * bins**2 + b2 * bins + b3, model.cell_flat)
        assert same_model(model, twin) and same_model(twin, model)
        save_conditional(model, after)
        assert after.read_bytes() == before.read_bytes()


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = random_model(np.random.default_rng(31), count=350)
        path = tmp_path / "model.txt"
        save_conditional(model, path)
        assert same_model(load_conditional(path), model)

    def test_saves_are_byte_identical(self, tmp_path):
        model = random_model(np.random.default_rng(33))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_conditional(model, p1)
        save_conditional(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_describes_grids(self, tmp_path):
        model = random_model(np.random.default_rng(35), metric_bins=8, param_bins=7)
        path = tmp_path / "model.txt"
        save_conditional(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "graphbargain-model v1"
        assert lines[1] == "metric_grid 8 8 -6.0 0.0"
        assert lines[2] == "param_grid 7"
        assert lines[3] == f"total {model.total}"
        assert lines[4] == f"pairs {model.pair_counts.size}"

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return path

    def test_load_error_cases(self, tmp_path):
        good = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 5", "total 3", "pairs 1", "5 2 3"]
        with pytest.raises(DataError, match="truncated"):
            load_conditional(self._write(tmp_path, good[:3]))
        with pytest.raises(DataError, match="bad magic"):
            load_conditional(self._write(tmp_path, ["other-format v1"] + good[1:]))
        with pytest.raises(DataError, match="expected 'metric_grid'"):
            load_conditional(self._write(tmp_path, [good[0], "metric_grid 10 10 -6.0", *good[2:]]))
        with pytest.raises(DataError, match="bad header"):
            load_conditional(self._write(tmp_path, [good[0], "metric_grid ten 10 -6.0 0.0", *good[2:]]))
        with pytest.raises(DataError, match="expected 1 pair lines, found 2"):
            load_conditional(self._write(tmp_path, good + ["5 3 1"]))
        with pytest.raises(DataError, match="expected 'cell metric count'"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 2"]))
        with pytest.raises(DataError, match=r"bad\.txt:7: expected 'cell metric count', got ''$"):
            load_conditional(self._write(tmp_path, [*good[:4], "pairs 2", "5 2 3", ""]))
        # str.split() separates at \x1f and bytes.split() does not, so no line is to blame
        with pytest.raises(DataError, match=r"bad\.txt: expected 'cell metric count' lines separated by ASCII whitespace$"):
            load_conditional(self._write(tmp_path, good[:5] + ["5\x1f2 3"]))
        with pytest.raises(DataError, match="bad.txt:6"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 x 3"]))
        with pytest.raises(DataError, match="inconsistent model"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 2 -3"]))
        with pytest.raises(DataError, match="header total 4 != sum of counts 3"):
            load_conditional(self._write(tmp_path, [*good[:3], "total 4", *good[4:]]))
        with pytest.raises(DataError, match="cannot read"):
            load_conditional(tmp_path / "missing.txt")

    def test_numbers_beyond_int64_or_an_inexact_total(self, tmp_path):
        # test_cli.py::test_oversized_model_numbers_are_3 covers each column and the int64 wrap through main
        head = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 5"]
        with pytest.raises(DataError, match=r"bad\.txt:7: count -99999999999999999999 beyond int64$"):
            load_conditional(self._write(tmp_path, [*head, "total 1", "pairs 2", "5 3 1", "6 3 -99999999999999999999"]))
        with pytest.raises(DataError, match=r"inconsistent model: total count 9007199254740993 above 2\*\*53"):
            load_conditional(self._write(tmp_path, [*head, f"total {2**53 + 1}", "pairs 1", f"5 3 {2**53 + 1}"]))
        assert load_conditional(self._write(tmp_path, [*head, f"total {2**53}", "pairs 1", f"5 3 {2**53}"])).total == 2**53

    def test_loaded_file_from_nonzero_grid_settings(self, tmp_path):
        model = random_model(np.random.default_rng(37), metric_bins=3, param_bins=2)
        path = tmp_path / "model.txt"
        save_conditional(model, path)
        loaded = load_conditional(path)
        assert loaded.metric_grid == MetricGrid(3, 3)
        assert loaded.param_grid == ParamGrid(2)
