"""Metric and parameter grids, the conditional model, and its file format."""

from __future__ import annotations

import logging
import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.special import betainc

from graphbargain import grids
from graphbargain.errors import DataError
from graphbargain.grids import (
    DLOG_MAX,
    DLOG_MIN,
    ConditionalModel,
    _dim_masses,
    build_conditional,
    conditional_from_pairs,
    load_conditional,
    metric_cells,
    param_cells,
    predicted_mass,
    save_conditional,
)


def random_records(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (K, 4) unit points, clustering and dlog of ``count`` random records, drawn record by record."""
    rows = [[*rng.random(4), rng.random(), rng.uniform(-6.0, 0.0)] for _ in range(count)]
    table = np.array(rows, dtype=np.float64).reshape(-1, 6)
    return table[:, :4], table[:, 4], table[:, 5]


def random_model(rng: np.random.Generator, count: int = 200) -> ConditionalModel:
    return build_conditional(*random_records(rng, count))


def cell_digits(model: ConditionalModel) -> np.ndarray:
    """Per observed cell, its (N, a, b, c) bins, read off ``cell_flat``."""
    return np.column_stack(np.unravel_index(model.cell_flat, (grids.PARAM_BINS,) * 4))


def same_model(a: ConditionalModel, b: ConditionalModel) -> bool:
    """Equal totals, cells and count matrices; models themselves compare by identity."""
    return (
        a.total == b.total
        and np.array_equal(a.cell_flat, b.cell_flat)
        and a.counts.shape == b.counts.shape
        and all(np.array_equal(getattr(a.counts, key), getattr(b.counts, key)) for key in ("indptr", "indices", "data"))
    )


def reference_int_table(data: bytes, columns: int) -> np.ndarray | None:
    """The whole-file integer parse model bodies had before np.loadtxt: (rows, columns) int64, or None."""
    tokens = data.split()
    try:
        values = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if len(values) % columns:
        return None
    if len(values) == 0:
        return values.reshape(0, columns)
    # The tokens parsed as integers, so every byte <= 32 is one of bytes.split()'s
    # separators, and 10..13 (\n \v \f \r) are those str.splitlines() breaks at.
    raw = np.frombuffer(data, dtype=np.uint8)
    space = np.concatenate(([True], raw <= 32))
    starts = np.flatnonzero(space[:-1] & ~space[1:])
    # broken[i]: a line break lies after token i (the last token counts as broken)
    broken = np.logical_or.reduceat((raw >= 10) & (raw <= 13), starts)
    broken[-1] = True
    rows = broken.reshape(-1, columns)
    if np.any(rows[:, :-1]) or not np.all(rows[:, -1]):
        return None
    return values.reshape(-1, columns)


def reference_body_parse(path, body: list[str]) -> np.ndarray:
    """The model body parse np.loadtxt replaced: reference_int_table, then the line check of each numbered line."""
    table = reference_int_table("\n".join(body).encode("ascii"), 3)
    if table is not None and len(table) == len(body):
        return table
    for lineno, line in enumerate(body, start=6):
        parts = line.split()
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 'cell metric count', got {line!r}")
        try:
            values = [int(part) for part in parts]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        for name, value in zip(("cell", "metric", "count"), values):
            if not -(2**63) <= value < 2**63:
                raise DataError(f"{path}:{lineno}: {name} {value} beyond int64")
    raise DataError(f"{path}: expected 'cell metric count' lines separated by ASCII whitespace")


def column_sums(model: ConditionalModel) -> np.ndarray:
    """n_i per observed cell, summed straight off the CSC data; every column holds a count."""
    return np.add.reduceat(model.counts.data, model.counts.indptr[:-1])


def scalar_metric_cell(bins: int, clustering: float, dlog: float) -> int:
    """Per-point metric cell, as the grid once located each point; metric_cells's reference."""
    c_bin = min(int(clustering * bins), bins - 1)
    d = max(dlog, DLOG_MIN)
    width = (DLOG_MAX - DLOG_MIN) / bins
    d_bin = max(min(int((d - DLOG_MIN) / width), bins - 1), 0)
    return c_bin * bins + d_bin


def scalar_param_cell(bins: int, u: list[float]) -> int:
    """Per-point parameter cell id, row-major over (N, a, b, c); param_cells's reference."""
    flat = 0
    for x in u:
        flat = flat * bins + min(int(x * bins), bins - 1)
    return flat


def per_spec_predicted_mass(model: ConditionalModel, q: np.ndarray) -> tuple[np.ndarray, float]:
    """predicted_mass as first written: one betainc per spec, vstack, four gathers and a bincount push.

    The exact oracle for predicted_mass's outer product and sparse push: a
    matrix-vector product that fused its multiply-add would differ in the
    last bit and fail the == tests.
    """
    edges = np.linspace(0.0, 1.0, grids.PARAM_BINS + 1)
    dim = np.vstack([np.diff(betainc(alpha, beta, edges)) for alpha, beta in zip(q[0::2], q[1::2])])
    cb = cell_digits(model)
    cellmass = dim[0][cb[:, 0]] * dim[1][cb[:, 1]] * dim[2][cb[:, 2]] * dim[3][cb[:, 3]]
    coverage = float(cellmass.sum())
    counts = model.counts
    pair_cell = np.repeat(np.arange(model.cell_flat.size), np.diff(counts.indptr))
    weights = (counts.data / column_sums(model)[pair_cell]) * cellmass[pair_cell]
    raw = np.bincount(counts.indices, weights=weights, minlength=grids.METRIC_BINS**2)
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
        cells = metric_cells([0.25, 0.0, 0.05, 0.999], [-3.0, -6.0, -5.95, -0.001])
        assert cells.dtype == np.int64
        assert cells.tolist() == [25, 0, 0, 99]

    def test_upper_edges_fold_into_last_bins(self):
        assert metric_cells([1.0, 0.25, 1.0], [-3.0, 0.0, 0.0]).tolist() == [95, 29, 99]

    def test_low_dlog_is_clamped_with_one_counting_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="graphbargain.grids"):
            assert metric_cells([0.5, 0.5, 0.5], [-7.5, -3.0, -1e9]).tolist() == [50, 55, 50]
        clamped = [r.getMessage() for r in caplog.records if "clamped into first bin" in r.getMessage()]
        assert len(clamped) == 1 and clamped[0].startswith("2 dlog values")

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="outside"):
            metric_cells([0.5, -0.01], [-3.0, -3.0])
        with pytest.raises(ValueError, match="outside"):
            metric_cells([1.01], [-3.0])
        with pytest.raises(ValueError, match="outside"):
            metric_cells([math.nan], [-3.0])
        with pytest.raises(ValueError, match="nan"):
            metric_cells([0.5], [math.nan])

    def test_empty_input(self):
        assert metric_cells([], []).tolist() == []

    def test_bins_partition_the_plane(self, grid_bins):
        grid_bins(metric_bins=7)
        rng = np.random.default_rng(3)
        cells = metric_cells(rng.random(500), rng.uniform(-6.0, 0.0, 500))
        assert cells.min() >= 0 and cells.max() < 7**2


def with_bin_edges(rng: np.random.Generator, edges: np.ndarray, lo: float, hi: float, count: int) -> np.ndarray:
    """``count`` values: every bin edge plus uniform draws on [lo, hi], shuffled."""
    return rng.permutation(np.concatenate([edges, rng.uniform(lo, hi, count - edges.size)]))


def test_array_locates_match_the_scalar_reference(grid_bins):
    # bin edges, upper edges and dlog below (and above) the grid included
    rng = np.random.default_rng(17)
    for _ in range(200):
        bins = int(rng.integers(2, 13))
        grid_bins(metric_bins=bins)
        width = (DLOG_MAX - DLOG_MIN) / bins
        c = with_bin_edges(rng, np.arange(bins + 1) / bins, 0.0, 1.0, 500)
        d_edges = DLOG_MIN + np.arange(bins + 1) * width
        d = with_bin_edges(rng, d_edges, DLOG_MIN - 2.0, DLOG_MAX + 0.5, 500)
        expected = [scalar_metric_cell(bins, float(x), float(y)) for x, y in zip(c, d)]
        assert metric_cells(c, d).tolist() == expected

        bins = int(rng.integers(1, 25))
        grid_bins(param_bins=bins)
        edges = np.arange(bins + 1) / bins
        units = np.column_stack([with_bin_edges(rng, edges, 0.0, 1.0, 500) for _ in range(4)])
        expected = [scalar_param_cell(bins, list(map(float, row))) for row in units]
        assert param_cells(units).tolist() == expected


class TestParamGrid:
    def test_locate_and_upper_edge_folding(self):
        cells = param_cells([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0], [0.05, 0.049999, 0.5, 0.951]])
        assert cells.dtype == np.int64
        assert cells.tolist() == [0, 20**4 - 1, ((1 * 20 + 0) * 20 + 10) * 20 + 19]

    def test_locate_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            param_cells([[0.5, -0.01, 0.5, 0.5]])
        with pytest.raises(ValueError, match="outside"):
            param_cells([[0.5, 0.5, 1.01, 0.5]])
        with pytest.raises(ValueError, match=r"\(K, 4\)"):
            param_cells([0.5, 0.5, 0.5, 0.5])

    def test_cell_count(self, grid_bins):
        assert param_cells([[1.0, 1.0, 1.0, 1.0]]).tolist() == [160000 - 1]
        grid_bins(param_bins=1)
        assert param_cells([[1.0, 1.0, 1.0, 1.0]]).tolist() == [0]


class TestConditionalConstruction:
    def test_build_matches_manual_pair_assembly(self, grid_bins):
        grid_bins(param_bins=5)
        rng = np.random.default_rng(7)
        units, clustering, dlog = random_records(rng, 400)
        built = build_conditional(units, clustering, dlog)

        counts: dict[tuple[int, int], int] = {}
        for u, c, d in zip(units.tolist(), clustering.tolist(), dlog.tolist()):
            key = (scalar_param_cell(5, u), scalar_metric_cell(10, c, d))
            counts[key] = counts.get(key, 0) + 1
        keys = sorted(counts)
        manual = conditional_from_pairs(
            np.array([k[0] for k in keys]),
            np.array([k[1] for k in keys]),
            np.array([counts[k] for k in keys]),
        )
        assert same_model(built, manual)
        assert built.total == 400

    def test_duplicate_pairs_merge(self, grid_bins):
        grid_bins(param_bins=5)
        model = conditional_from_pairs(np.array([5, 5, 3]), np.array([2, 2, 7]), np.array([1, 2, 4]))
        assert model.total == 7
        assert model.cell_flat.tolist() == [3, 5]
        counts = model.counts
        assert counts.format == "csc" and counts.dtype == np.int64 and counts.shape == (100, 2)
        assert counts.has_canonical_format
        assert column_sums(model).tolist() == [4, 3]
        assert counts.indices.tolist() == [7, 2]
        assert counts.data.tolist() == [4, 3]
        assert counts.indptr.tolist() == [0, 1, 2]
        assert cell_digits(model).tolist() == [[0, 0, 0, 3], [0, 0, 1, 0]]

    def test_counts_are_canonical(self, grid_bins):
        # unsorted keys, duplicates and zero counts, with several metric cells per parameter cell
        grid_bins(metric_bins=4, param_bins=3)
        rng = np.random.default_rng(5)
        flat = rng.integers(0, 30, 400)
        metric = rng.integers(0, 16, 400)
        counts = rng.integers(0, 4, 400)
        model = conditional_from_pairs(flat, metric, counts)
        matrix = model.counts
        assert matrix.format == "csc" and matrix.dtype == np.int64 and matrix.has_canonical_format
        assert np.all(matrix.data > 0)
        assert model.cell_flat.tolist() == sorted(set(flat[counts > 0].tolist()))
        expected = np.zeros((16, 30), dtype=np.int64)
        np.add.at(expected, (metric, flat), counts)
        assert np.array_equal(matrix.toarray(), expected[:, model.cell_flat])
        for i in range(model.cell_flat.size):
            rows = matrix.indices[matrix.indptr[i] : matrix.indptr[i + 1]]
            assert rows.size > 0 and np.all(np.diff(rows) > 0)

    def test_zero_counts_dropped(self):
        model = conditional_from_pairs(np.array([1, 2]), np.array([0, 1]), np.array([0, 3]))
        assert model.total == 3
        assert model.cell_flat.tolist() == [2]

    def test_validation_errors(self):
        mg, pg = grids.METRIC_BINS, grids.PARAM_BINS
        one = np.array([1])
        with pytest.raises(ValueError, match="1-d"):
            conditional_from_pairs(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="1-d"):
            conditional_from_pairs(np.array([1, 2]), one, one)
        with pytest.raises(ValueError, match="negative"):
            conditional_from_pairs(one, one, np.array([-1]))
        with pytest.raises(ValueError, match="no records"):
            conditional_from_pairs(one, one, np.array([0]))
        with pytest.raises(ValueError, match="parameter cell id"):
            conditional_from_pairs(np.array([pg**4]), one, one)
        with pytest.raises(ValueError, match="metric cell id"):
            conditional_from_pairs(one, np.array([mg**2]), one)
        with pytest.raises(ValueError, match="no records"):
            build_conditional(np.zeros((0, 4)), [], [])

    def test_bin_bounds(self):
        # the corner cells of both grids are the largest ids accepted; one past either end of a grid is refused
        model = conditional_from_pairs([0, 20**4 - 1], [10**2 - 1, 0], [1, 1])
        assert model.cell_flat.tolist() == [0, 20**4 - 1]
        assert model.counts.shape == (100, 2) and model.counts.indices.tolist() == [99, 0]
        for flat in (-1, 20**4):
            with pytest.raises(ValueError, match="^parameter cell id outside grid$"):
                conditional_from_pairs([flat], [0], [1])
        for metric in (-1, 10**2):
            with pytest.raises(ValueError, match="^metric cell id outside grid$"):
                conditional_from_pairs([0], [metric], [1])

    def test_equality(self):
        a = random_model(np.random.default_rng(9))
        b = random_model(np.random.default_rng(9))
        c = random_model(np.random.default_rng(10))
        assert same_model(a, b) and same_model(b, a)
        assert not same_model(a, c)
        assert a != b


def bin_masses(shapes: np.ndarray) -> np.ndarray:
    """The (4, PARAM_BINS) per-axis Beta masses that predicted_mass reads, on a model whose cells cover every bin."""
    bins = grids.PARAM_BINS
    # cell k and (N, a) pair k sit in bin k of every axis
    diagonal = np.arange(bins) * (bins**3 + bins**2 + bins + 1)
    model = conditional_from_pairs(diagonal, np.zeros(bins), np.ones(bins))
    cdf_points, (_, b2, b3, n_bin, a_bin) = model.mass_index
    return _dim_masses(shapes, cdf_points).take(np.stack([n_bin, a_bin, b2, b3]))


class TestPrediction:
    def test_all_ones_coverage_is_cell_fraction(self, grid_bins):
        grid_bins(param_bins=4)
        rng = np.random.default_rng(11)
        model = random_model(rng, count=300)
        raw, coverage = predicted_mass(model, np.ones(8))
        expected = model.cell_flat.size / 4**4
        assert coverage == pytest.approx(expected, abs=1e-12)
        assert raw.sum() == pytest.approx(coverage, abs=1e-12)
        assert raw.shape == (grids.METRIC_BINS**2,)

    def test_raw_mass_sums_to_coverage(self, grid_bins):
        grid_bins(param_bins=5)
        rng = np.random.default_rng(13)
        model = random_model(rng, count=250)
        q = np.array([2.0, 1.0, 0.5, 0.5, 3.0, 4.0, 1.0, 2.0])
        raw, coverage = predicted_mass(model, q)
        assert raw.sum() == pytest.approx(coverage, abs=1e-12)
        assert np.all(raw >= 0.0)

    def test_single_cell_mass_is_the_box_probability(self, grid_bins):
        grid_bins(param_bins=5)
        u = [[0.31, 0.62, 0.11, 0.87]]
        model = build_conditional(u, [0.5], [-2.0])
        q = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        _, coverage = predicted_mass(model, q)
        # the box [0.2, 0.4) x [0.6, 0.8) x [0.0, 0.2) x [0.8, 1.0]
        lower = np.array([0.2, 0.6, 0.0, 0.8])
        expected = math.prod(
            betainc(alpha, beta, hi) - betainc(alpha, beta, lo)
            for alpha, beta, lo, hi in zip(q[0::2], q[1::2], lower, lower + 0.2)
        )
        assert coverage == pytest.approx(expected, abs=1e-12)

    def test_single_cell_mass_matches_monte_carlo(self, grid_bins):
        grid_bins(param_bins=4)
        rng = np.random.default_rng(41)
        q = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        u = [[0.5, 0.1, 0.7, 0.3]]
        model = build_conditional(u, [0.5], [-2.0])
        _, coverage = predicted_mass(model, q)
        n = 200_000
        draws = np.column_stack([rng.beta(alpha, beta, n) for alpha, beta in zip(q[0::2], q[1::2])])
        estimate = float(np.mean(param_cells(draws) == model.cell_flat[0]))
        sigma = math.sqrt(estimate * (1 - estimate) / n)
        assert coverage == pytest.approx(estimate, abs=5 * sigma)

    def test_dim_masses_are_bin_probabilities(self, grid_bins):
        grid_bins(param_bins=8)
        uniform = bin_masses(np.ones(8))
        assert uniform.shape == (4, 8)
        assert np.allclose(uniform, 1.0 / 8, atol=1e-15)
        grid_bins(param_bins=20)
        rng = np.random.default_rng(45)
        for q in bound_qs(rng, 40):
            dim = bin_masses(q)
            assert np.all(dim >= 0.0)
            assert np.allclose(dim.sum(axis=1), 1.0, atol=1e-12)
        grid_bins(param_bins=10)
        for shape in (0.3, 1.0, 7.0, 50.0):
            dim = bin_masses(np.full(8, shape))
            assert np.allclose(dim, dim[:, ::-1], atol=1e-12)

    def test_equals_per_spec_reference(self, grid_bins):
        rng = np.random.default_rng(41)
        # (metric bins, parameter bins, records) per model
        grids_and_records = [(10, bins, random_records(rng, 1500)) for bins in (1, 2, 7, 20, 33)]
        # most of a 30 x 30 metric grid stays empty under 60 records
        grids_and_records.append((30, 20, random_records(rng, 60)))
        # single-pair models: one record, and one pair holding many records
        grids_and_records.append((10, 20, random_records(rng, 1)))
        grids_and_records.append((10, 20, ([77_777], [42], [9])))
        qs = bound_qs(rng, 240)
        for k, (metric_bins, param_bins, records) in enumerate(grids_and_records):
            grid_bins(metric_bins=metric_bins, param_bins=param_bins)
            model = conditional_from_pairs(*records) if k == 7 else build_conditional(*records)
            if k == 5:
                assert np.unique(model.counts.indices).size < metric_bins**2 // 10
            if k >= 6:
                assert model.counts.nnz == 1
            for q in qs:
                raw, coverage = predicted_mass(model, q)
                expected_raw, expected_coverage = per_spec_predicted_mass(model, q)
                assert np.all(raw == expected_raw)
                assert coverage == expected_coverage

    @pytest.mark.parametrize(
        "pairs",
        [([77_777], [42], [9]), ([0, 20**4 - 1], [0, 99], [1, 1]), None],
        ids=["one-cell", "opposite-corners", "300-records"],
    )
    def test_one_betainc_call_takes_every_bin_edge_of_each_axis(self, monkeypatch, pairs):
        # whichever cells the model observes, one call takes the 4 x 21 edges, and a model reuses its points
        model = random_model(np.random.default_rng(51), count=300) if pairs is None else conditional_from_pairs(*pairs)
        sizes = []

        def counting_betainc(*args):
            sizes.append(np.broadcast(*args).size)
            return betainc(*args)

        monkeypatch.setattr(scipy.special, "betainc", counting_betainc)
        shapes = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        raw, coverage = predicted_mass(model, shapes)
        points = model.mass_index[0]
        predicted_mass(model, np.ones(8))
        assert sizes == [4 * 21, 4 * 21]
        assert model.mass_index[0] is points
        monkeypatch.undo()
        expected_raw, expected_coverage = per_spec_predicted_mass(model, shapes)
        assert np.all(raw == expected_raw) and coverage == expected_coverage

    def test_memory_follows_the_observed_cells(self, grid_bins):
        # two cells in opposite corners of a 2000-bin grid: a bins**2 (N, a) table would take 30 MiB
        predicted_mass(random_model(np.random.default_rng(49), count=20), np.ones(8))
        grid_bins(param_bins=2000)
        model = conditional_from_pairs([0, 2000**4 - 1], [0, 99], [1, 1])
        shapes = np.array([2.0, 0.7, 0.4, 1.3, 5.0, 2.0, 1.0, 3.0])
        tracemalloc.start()
        try:
            raw, coverage = predicted_mass(model, shapes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"predicted_mass peaked at {peak / 2**20:.2f} MiB"
        expected_raw, expected_coverage = per_spec_predicted_mass(model, shapes)
        assert np.all(raw == expected_raw) and coverage == expected_coverage

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
        cached = ("mass_index", "push")
        assert all(name in vars(model) and name not in vars(twin) for name in cached)
        push = model.push
        assert push.shape == (grids.METRIC_BINS**2, model.cell_flat.size)
        assert push.nnz == model.counts.nnz
        dense = model.counts.toarray()
        assert np.all(push.toarray() == dense / column_sums(model))
        # each metric row adds its cells in ascending order, as a bincount over the pairs would
        assert all(np.all(np.diff(push.indices[lo:hi]) > 0) for lo, hi in zip(push.indptr[:-1], push.indptr[1:]))
        (x, axes), (pair_of_cell, b2, b3, n_place, a_place) = model.mass_index
        # the points are each axis's bin edges in turn, and a bin's mass lies at the place of its lower edge
        bins, edges = grids.PARAM_BINS, np.linspace(0.0, 1.0, grids.PARAM_BINS + 1)
        assert np.array_equal(x, np.tile(edges, 4)) and np.array_equal(axes, np.repeat(np.arange(4), bins + 1))
        digits = cell_digits(model)
        for axis, place in enumerate((n_place[pair_of_cell], a_place[pair_of_cell], b2, b3)):
            assert np.all(axes[place] == axis) and np.all(axes[place + 1] == axis)
            assert np.array_equal(x[place], edges[digits[:, axis]])
            assert np.array_equal(x[place + 1], edges[digits[:, axis] + 1])
        # one (N, a) pair per observed pair, ascending
        n_bin, a_bin = n_place, a_place - (bins + 1)
        assert np.all(np.diff(n_bin * bins + a_bin) > 0)
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

    def test_shuffled_and_split_pair_lines_load_and_save_canonically(self, tmp_path, grid_bins):
        grid_bins(metric_bins=4, param_bins=3)
        model = random_model(np.random.default_rng(39), count=300)
        canonical = tmp_path / "model.txt"
        save_conditional(model, canonical)
        lines = canonical.read_text().splitlines()
        body = []
        for line in lines[5:]:
            cell, metric, count = map(int, line.split())
            # each pair as a one-count line, the rest of its count and a zero-count line
            body += [f"{cell} {metric} 1", f"{cell} {metric} {count - 1}", f"{cell} {metric} 0"]
        assert any(int(line.split()[2]) > 1 for line in lines[5:])
        body = list(np.random.default_rng(40).permutation(body))
        messy = tmp_path / "messy.txt"
        messy.write_text("\n".join([*lines[:4], f"pairs {len(body)}", *body]) + "\n", encoding="ascii")
        loaded = load_conditional(messy)
        assert same_model(loaded, model)
        resaved = tmp_path / "resaved.txt"
        save_conditional(loaded, resaved)
        assert resaved.read_bytes() == canonical.read_bytes()

    def test_header_describes_grids(self, tmp_path, grid_bins):
        grid_bins(metric_bins=8, param_bins=7)
        model = random_model(np.random.default_rng(35))
        path = tmp_path / "model.txt"
        save_conditional(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "graphbargain-model v1"
        assert lines[1] == "metric_grid 8 8 -6.0 0.0"
        assert lines[2] == "param_grid 7"
        assert lines[3] == f"total {model.total}"
        assert lines[4] == f"pairs {model.counts.nnz}"

    def test_header_at_the_run_grids(self, tmp_path):
        path = tmp_path / "model.txt"
        save_conditional(conditional_from_pairs([5], [2], [3]), path)
        assert path.read_text(encoding="ascii").splitlines()[:5] == [
            "graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 20", "total 3", "pairs 1",
        ]

    def _write(self, tmp_path, lines):
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        return path

    def test_load_error_cases(self, tmp_path):
        good = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 20", "total 3", "pairs 1", "5 2 3"]
        with pytest.raises(DataError, match="truncated"):
            load_conditional(self._write(tmp_path, good[:3]))
        with pytest.raises(DataError, match=r"bad\.txt:1: expected 'graphbargain-model v1', got 'other-format v1'$"):
            load_conditional(self._write(tmp_path, ["other-format v1"] + good[1:]))
        with pytest.raises(DataError, match=r"bad\.txt:2: expected 'metric_grid 10 10 -6\.0 0\.0', got 'metric_grid 10 10 -6\.0'$"):
            load_conditional(self._write(tmp_path, [good[0], "metric_grid 10 10 -6.0", *good[2:]]))
        with pytest.raises(DataError, match=r"bad\.txt:2: expected 'metric_grid 10 10 -6\.0 0\.0', got 'metric_grid ten"):
            load_conditional(self._write(tmp_path, [good[0], "metric_grid ten 10 -6.0 0.0", *good[2:]]))
        with pytest.raises(DataError, match="expected 1 pair lines, found 2"):
            load_conditional(self._write(tmp_path, good + ["5 3 1"]))
        with pytest.raises(DataError, match="expected 'cell metric count'"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 2"]))
        with pytest.raises(DataError, match=r"bad\.txt:7: expected 'cell metric count', got ''$"):
            load_conditional(self._write(tmp_path, [*good[:4], "pairs 2", "5 2 3", ""]))
        # str.split() separates at \x1f and numpy sees a space there, so no line is to blame
        with pytest.raises(DataError, match=r"bad\.txt: expected 'cell metric count' lines without digits grouped by underscores or bytes \\x1c-\\x1f$"):
            load_conditional(self._write(tmp_path, good[:5] + ["5\x1f2 3"]))
        with pytest.raises(DataError, match="bad.txt:6"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 x 3"]))
        with pytest.raises(DataError, match="inconsistent model"):
            load_conditional(self._write(tmp_path, good[:5] + ["5 2 -3"]))
        with pytest.raises(DataError, match="header total 4 != sum of counts 3"):
            load_conditional(self._write(tmp_path, [*good[:3], "total 4", *good[4:]]))
        with pytest.raises(DataError, match="cannot read"):
            load_conditional(tmp_path / "missing.txt")

    def test_body_parse_agrees_with_the_parse_it_replaced(self, tmp_path, grid_bins):
        # random bodies of lines of one to four integer-like tokens, separated within a line by spaces, tabs or
        # \x1f and ended by blank lines, \r\n or a break that str.splitlines() also splits at: \r, \v, \f and \x1c-\x1e
        grid_bins(param_bins=5)
        rng = np.random.default_rng(25)
        tokens = [*map(str, range(10)), "+3", "007", "-2", str(2**63 - 1), str(-(2**63 - 1)), str(2**63), "1_0", "x"]
        weights = np.array([8] * 10 + [3, 3, 1, 1, 1, 1, 3, 1]) / 94
        spaces, space_weights = [" ", "\t", "  ", "\x1f"], [0.6, 0.2, 0.1, 0.1]
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\n\n", "\n \n", "\x1c", "\x1d", "\x1e"]
        break_weights = np.array([12, 3, 2, 2, 2, 1, 1, 1, 1, 1]) / 26
        path = tmp_path / "model.txt"
        closing = f"{path}: expected 'cell metric count' lines without digits grouped by underscores or bytes \\x1c-\\x1f"
        kinds = {"model": 0, "error": 0, "closing": 0}
        for _ in range(500):
            text = ""
            for _ in range(int(rng.integers(0, 5))):
                words = rng.choice(tokens, size=int(rng.choice([1, 3, 3, 3, 3, 3, 3, 4])), p=weights)
                text += str(rng.choice(spaces, p=space_weights)).join(words) + str(rng.choice(breaks, p=break_weights))
            body = text.splitlines()
            total = 0
            try:
                table = reference_body_parse(path, body)
            except DataError as exc:
                # the parse named the file alone only for \x1f, which numpy sees as a space
                want = closing if str(exc).endswith("separated by ASCII whitespace") else str(exc)
            else:
                total = sum(count for count in table[:, 2].tolist() if count > 0)
                if "1_0" in text or any(byte in text for byte in "\x1c\x1d\x1e\x1f"):
                    want = closing
                else:
                    try:
                        want = conditional_from_pairs(*table.T)
                    except ValueError as exc:
                        want = f"{path}: inconsistent model: {exc}"
            head = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 5", f"total {total}", f"pairs {len(body)}"]
            path.write_bytes(("\n".join(head) + "\n" + text).encode("ascii"))
            try:
                got = load_conditional(path)
            except DataError as exc:
                got = str(exc)
            if isinstance(want, ConditionalModel):
                assert isinstance(got, ConditionalModel) and same_model(got, want), text
                kinds["model"] += 1
            else:
                assert got == want, text
                kinds["closing" if want == closing else "error"] += 1
        assert min(kinds.values()) > 40, kinds

    @pytest.mark.parametrize("byte", ["\x1c", "\x1d", "\x1e"])
    def test_a_line_break_at_a_control_byte_is_refused(self, tmp_path, byte):
        # str.splitlines() breaks at \x1c-\x1e, so both lines pass the line check and the error names the file
        lines = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 20", "total 4", "pairs 2", f"5 2 3{byte}6 2 1"]
        assert reference_body_parse(tmp_path / "bad.txt", lines[5].splitlines()).tolist() == [[5, 2, 3], [6, 2, 1]]
        message = r"bad\.txt: expected 'cell metric count' lines without digits grouped by underscores or bytes \\x1c-\\x1f$"
        with pytest.raises(DataError, match=message):
            load_conditional(self._write(tmp_path, lines))

    @pytest.mark.parametrize(
        "header",
        ["metric_grid 10 8 -6.0 0.0", "metric_grid 12 12 -6.0 0.0", "metric_grid 10 10 -7.0 0.0", "metric_grid 10 10 -6.0 -1.0"],
    )
    def test_only_the_square_grid_over_the_dlog_range_loads(self, tmp_path, header):
        lines = ["graphbargain-model v1", header, "param_grid 20", "total 3", "pairs 1", "5 2 3"]
        message = rf"bad\.txt:2: expected 'metric_grid 10 10 -6\.0 0\.0', got '{re.escape(header)}'$"
        with pytest.raises(DataError, match=message):
            load_conditional(self._write(tmp_path, lines))

    @pytest.mark.parametrize(
        ("lineno", "line", "expected"),
        [
            (1, "graphbargain-model  v1", "graphbargain-model v1"),
            (1, "graphbargain-model v2", "graphbargain-model v1"),
            (2, "metric_grid 10 10 -6 0", "metric_grid 10 10 -6.0 0.0"),
            (2, " metric_grid 10 10 -6.0 0.0", "metric_grid 10 10 -6.0 0.0"),
            (3, "param_grid 020", "param_grid 20"),
            (3, "param_grid +20", "param_grid 20"),
            (3, "param_grid 2_0", "param_grid 20"),
            (3, "param_grid 40", "param_grid 20"),
            (3, "param_grid <integer>", "param_grid 20"),
            (4, "total 3 ", "total 3"),
            (4, "totals 3", "total 3"),
            (5, "pairs", "pairs <integer>"),
        ],
    )
    def test_only_the_rendered_header_loads(self, tmp_path, lineno, line, expected):
        lines = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 20", "total 3", "pairs 1", "5 2 3"]
        lines[lineno - 1] = line
        message = rf"bad\.txt:{lineno}: expected {re.escape(repr(expected))}, got {re.escape(repr(line))}$"
        with pytest.raises(DataError, match=message):
            load_conditional(self._write(tmp_path, lines))

    def test_the_first_differing_header_line_is_named(self, tmp_path):
        lines = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid x", "total 03", "pairs", "5 2 3"]
        with pytest.raises(DataError, match=r"bad\.txt:3: expected 'param_grid 20', got 'param_grid x'$"):
            load_conditional(self._write(tmp_path, lines))

    def test_numbers_beyond_int64_or_an_inexact_total(self, tmp_path):
        # test_cli.py::test_oversized_model_numbers_are_3 covers each column and the int64 wrap through main
        head = ["graphbargain-model v1", "metric_grid 10 10 -6.0 0.0", "param_grid 20"]
        with pytest.raises(DataError, match=r"bad\.txt:7: count -99999999999999999999 beyond int64$"):
            load_conditional(self._write(tmp_path, [*head, "total 1", "pairs 2", "5 3 1", "6 3 -99999999999999999999"]))
        with pytest.raises(DataError, match=r"inconsistent model: total count 9007199254740993 above 2\*\*53"):
            load_conditional(self._write(tmp_path, [*head, f"total {2**53 + 1}", "pairs 1", f"5 3 {2**53 + 1}"]))
        assert load_conditional(self._write(tmp_path, [*head, f"total {2**53}", "pairs 1", f"5 3 {2**53}"])).total == 2**53

    def test_loaded_file_from_nonzero_grid_settings(self, tmp_path, grid_bins):
        grid_bins(metric_bins=3, param_bins=2)
        model = random_model(np.random.default_rng(37))
        path = tmp_path / "model.txt"
        save_conditional(model, path)
        loaded = load_conditional(path)
        assert loaded.counts.shape[0] == 9 and same_model(loaded, model)
