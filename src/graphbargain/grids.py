"""Histogram grids over metric and parameter space, and the conditional model.

The conditional model is the bridge between the two spaces.  It is built from
a baseline sample of (unit parameter point, metric point) pairs and stores
sparse counts: n_i records per observed parameter cell i and n_ij records per
(parameter cell, metric cell) pair.  A candidate parameter distribution q is
scored by pushing its per-cell mass through the conditional rows:

    P_j = sum_i (n_ij / n_i) * mass_i(q)

Only observed parameter cells contribute, so the total pushed mass (the
coverage) is less than 1; predictions renormalize and report it separately.
The push is one sparse matrix (metric cells by parameter cells) built once per
model, so scoring a candidate costs four Beta CDFs, three gathers and one
matrix-vector product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse and scipy.special load in the functions that call them: only
# the optimizer pushes mass through a model or takes Beta CDFs.
if TYPE_CHECKING:
    import scipy.sparse

from .dataset import bad_line, int_table, read_ascii
from .errors import DataError
from .params import check_shapes

__all__ = [
    "MetricGrid",
    "ParamGrid",
    "ConditionalModel",
    "build_conditional",
    "conditional_from_pairs",
    "predicted_mass",
    "save_conditional",
    "load_conditional",
]

logger = logging.getLogger(__name__)

_MODEL_MAGIC = "graphbargain-model"
_MODEL_VERSION = "v1"
_PAIR_COLUMNS = ("cell", "metric", "count")
# bincount sums the pair counts as float64, which holds every integer up to 2**53.
_MAX_TOTAL = 2**53


@dataclass(frozen=True)
class MetricGrid:
    """Regular grid over (clustering, dlog) space, row-major in clustering."""

    clustering_bins: int
    dlog_bins: int
    dlog_min: float = -6.0
    dlog_max: float = 0.0

    def __post_init__(self) -> None:
        if self.clustering_bins < 1 or self.dlog_bins < 1:
            raise ValueError("grid needs at least one bin per axis")
        if not self.dlog_min < self.dlog_max:
            raise ValueError("dlog_min must be below dlog_max")

    @property
    def cell_count(self) -> int:
        return self.clustering_bins * self.dlog_bins

    def locate(self, clustering: np.ndarray, dlog: np.ndarray) -> np.ndarray:
        """Flat int64 cell ids for arrays of metric coordinates.

        Upper edges fold into the last bin; dlog below the grid minimum is
        clamped into the first dlog bin, with one warning that counts them.
        """
        c = np.asarray(clustering, dtype=np.float64)
        d = np.asarray(dlog, dtype=np.float64)
        inside = (c >= 0.0) & (c <= 1.0)
        if not inside.all():
            raise ValueError(f"clustering {c[~inside][0]} outside [0, 1]")
        if np.any(np.isnan(d)):
            raise ValueError("dlog is nan")
        low = int(np.count_nonzero(d < self.dlog_min))
        if low:
            logger.warning("%d dlog values below grid minimum %g; clamped into first bin", low, self.dlog_min)
        c_bin = np.minimum((c * self.clustering_bins).astype(np.int64), self.clustering_bins - 1)
        width = (self.dlog_max - self.dlog_min) / self.dlog_bins
        d_bin = np.clip((d - self.dlog_min) / width, 0, self.dlog_bins - 1).astype(np.int64)
        return c_bin * self.dlog_bins + d_bin


@dataclass(frozen=True)
class ParamGrid:
    """Regular grid over the unit hypercube of normalized parameters."""

    bins: int

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("grid needs at least one bin per axis")

    @property
    def cell_count(self) -> int:
        return self.bins**4

    def locate(self, units: np.ndarray) -> np.ndarray:
        """Flat int64 cell ids for an (K, 4) array of (N, a, b, c) unit coordinates.

        Upper edges fold into the last bin; the last coordinate varies fastest.
        """
        u = np.asarray(units, dtype=np.float64)
        if u.ndim != 2 or u.shape[1] != 4:
            raise ValueError("unit coordinates must be an (K, 4) array")
        inside = (u >= 0.0) & (u <= 1.0)
        if not inside.all():
            raise ValueError(f"unit coordinate {u[~inside][0]} outside [0, 1]")
        bins4 = np.minimum((u * self.bins).astype(np.int64), self.bins - 1)
        return bins4 @ self.bins ** np.arange(3, -1, -1, dtype=np.int64)


@dataclass(eq=False)
class ConditionalModel:
    """Sparse conditional counts linking parameter cells to metric cells.

    Arrays are parallel: ``cell_*`` index the K observed parameter cells
    (sorted by flat id), ``pair_*`` the P observed (cell, metric) pairs
    (sorted by flat id, then metric id).  ``pair_cell`` holds row indices
    into the cell arrays, not flat ids.  Models compare by identity.
    """

    metric_grid: MetricGrid
    param_grid: ParamGrid
    total: int
    cell_flat: np.ndarray
    cell_counts: np.ndarray
    pair_cell: np.ndarray
    pair_metric: np.ndarray
    pair_counts: np.ndarray

    # The cached arrays below derive from the count arrays, so the model file
    # does not hold them; the arrays are not to be mutated after construction.

    @cached_property
    def param_edges(self) -> np.ndarray:
        """The bins+1 unit-interval bin edges shared by the four parameter axes."""
        return np.linspace(0.0, 1.0, self.param_grid.bins + 1)

    @cached_property
    def cell_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per cell: its flat (N, a) bin, its b bin and its c bin, each contiguous."""
        bins = self.param_grid.bins
        b01, rest = np.divmod(self.cell_flat, bins**2)
        b2, b3 = np.divmod(rest, bins)
        return b01, b2, b3

    @cached_property
    def push(self) -> scipy.sparse.csr_matrix:
        """The conditional rows as a (metric cells, parameter cells) matrix of n_ij / n_i.

        Each metric row keeps its pairs in pair order, so a matrix-vector
        product adds the terms of a metric cell in the order a ``bincount``
        over the pairs would.
        """
        import scipy.sparse

        share = self.pair_counts / self.cell_counts[self.pair_cell]
        order = np.argsort(self.pair_metric, kind="stable")
        rows = self.metric_grid.cell_count
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.pair_metric, minlength=rows), out=indptr[1:])
        return scipy.sparse.csr_matrix(
            (share[order], self.pair_cell[order], indptr), shape=(rows, self.cell_flat.size)
        )


def conditional_from_pairs(
    metric_grid: MetricGrid,
    param_grid: ParamGrid,
    flat: np.ndarray,
    metric: np.ndarray,
    counts: np.ndarray,
) -> ConditionalModel:
    """Assemble a model from raw (flat cell id, metric cell id, count) triples.

    Duplicate (cell, metric) keys are merged, zero counts dropped.
    """
    flat = np.asarray(flat, dtype=np.int64)
    metric = np.asarray(metric, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if not flat.shape == metric.shape == counts.shape or flat.ndim != 1:
        raise ValueError("pair arrays must be 1-d and the same length")
    if np.any(counts < 0):
        raise ValueError("negative pair count")
    keep = counts > 0
    flat, metric, counts = flat[keep], metric[keep], counts[keep]
    if flat.size == 0:
        raise ValueError("model has no records")
    if np.any(flat < 0) or np.any(flat >= param_grid.cell_count):
        raise ValueError("parameter cell id outside grid")
    if np.any(metric < 0) or np.any(metric >= metric_grid.cell_count):
        raise ValueError("metric cell id outside grid")
    total = sum(counts.tolist())
    if total > _MAX_TOTAL:
        raise ValueError(f"total count {total} above 2**53, where float64 sums stop being exact")

    order = np.lexsort((metric, flat))
    flat, metric, counts = flat[order], metric[order], counts[order]
    fresh = np.ones(flat.size, dtype=bool)
    fresh[1:] = (flat[1:] != flat[:-1]) | (metric[1:] != metric[:-1])
    group = np.cumsum(fresh) - 1
    pair_counts = np.bincount(group, weights=counts).astype(np.int64)
    pair_flat = flat[fresh]
    pair_metric = metric[fresh]

    cell_flat, pair_cell = np.unique(pair_flat, return_inverse=True)
    cell_counts = np.bincount(pair_cell, weights=pair_counts).astype(np.int64)

    return ConditionalModel(
        metric_grid=metric_grid,
        param_grid=param_grid,
        total=int(pair_counts.sum()),
        cell_flat=cell_flat,
        cell_counts=cell_counts,
        pair_cell=pair_cell.astype(np.int64),
        pair_metric=pair_metric,
        pair_counts=pair_counts,
    )


def build_conditional(
    units: np.ndarray,
    clustering: np.ndarray,
    dlog: np.ndarray,
    metric_grid: MetricGrid,
    param_grid: ParamGrid,
) -> ConditionalModel:
    """Count (parameter cell, metric cell) co-occurrences over baseline records.

    Record k has the unit coordinates ``units[k]`` of an (K, 4) array and the
    metric point (``clustering[k]``, ``dlog[k]``).
    """
    flat = param_grid.locate(units)
    metric = metric_grid.locate(clustering, dlog)
    return conditional_from_pairs(metric_grid, param_grid, flat, metric, np.ones(flat.size, dtype=np.int64))


def _dim_masses(shapes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per-axis Beta mass between consecutive unit bin edges, shape (4, bins)."""
    from scipy.special import betainc

    cdf = betainc(shapes[0::2, None], shapes[1::2, None], edges)
    return cdf[:, 1:] - cdf[:, :-1]


def predicted_mass(model: ConditionalModel, shapes: np.ndarray) -> tuple[np.ndarray, float]:
    """Raw pushed metric mass (not normalized) and the coverage it sums to.

    ``shapes`` holds the eight Beta shapes in ``params.Q_KEYS`` order.
    One broadcast ``betainc`` gives the four per-axis CDFs at the bin edges;
    the (N, a) masses are multiplied once per bin pair, then per cell by the
    b and c masses, and the model's ``push`` matrix carries the cell masses
    to the metric cells.
    """
    dim = _dim_masses(check_shapes(shapes), model.param_edges)
    b01, b2, b3 = model.cell_index
    # outer(d0, d1).ravel()[b01] * d2[b2] * d3[b3], multiplied in place
    cellmass = (dim[0][:, None] * dim[1]).take(b01)
    cellmass *= dim[2].take(b2)
    cellmass *= dim[3].take(b3)
    coverage = float(cellmass.sum())
    return model.push @ cellmass, coverage


def save_conditional(model: ConditionalModel, path: str | Path) -> None:
    lines = [
        f"{_MODEL_MAGIC} {_MODEL_VERSION}",
        f"metric_grid {model.metric_grid.clustering_bins} {model.metric_grid.dlog_bins} "
        f"{model.metric_grid.dlog_min!r} {model.metric_grid.dlog_max!r}",
        f"param_grid {model.param_grid.bins}",
        f"total {model.total}",
        f"pairs {model.pair_counts.size}",
    ]
    flat = model.cell_flat[model.pair_cell]
    for i, j, c in zip(flat, model.pair_metric, model.pair_counts):
        lines.append(f"{i} {j} {c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _header_fields(line: str, lineno: int, name: str, count: int, path: Path) -> list[str]:
    parts = line.split()
    if len(parts) != count + 1 or parts[0] != name:
        raise DataError(f"{path}:{lineno}: expected '{name}' header line, got {line!r}")
    return parts[1:]


def load_conditional(path: str | Path) -> ConditionalModel:
    path = Path(path)
    lines = read_ascii(path, "model file", DataError).splitlines()
    if len(lines) < 5:
        raise DataError(f"{path}: truncated model file")
    if lines[0].split() != [_MODEL_MAGIC, _MODEL_VERSION]:
        raise DataError(f"{path}:1: bad magic line {lines[0]!r}")
    try:
        mg = _header_fields(lines[1], 2, "metric_grid", 4, path)
        metric_grid = MetricGrid(int(mg[0]), int(mg[1]), float(mg[2]), float(mg[3]))
        pg = _header_fields(lines[2], 3, "param_grid", 1, path)
        param_grid = ParamGrid(int(pg[0]))
        total = int(_header_fields(lines[3], 4, "total", 1, path)[0])
        pairs = int(_header_fields(lines[4], 5, "pairs", 1, path)[0])
    except ValueError as exc:
        raise DataError(f"{path}: bad header: {exc}") from exc
    body = lines[5:]
    if len(body) != pairs:
        raise DataError(f"{path}: expected {pairs} pair lines, found {len(body)}")
    table = int_table("\n".join(body).encode("ascii"), len(_PAIR_COLUMNS))
    if table is None or len(table) != pairs:
        bad_line(path, enumerate(body, start=6), _PAIR_COLUMNS)
    flat, metric, counts = table.T
    try:
        model = conditional_from_pairs(metric_grid, param_grid, flat, metric, counts)
    except ValueError as exc:
        raise DataError(f"{path}: inconsistent model: {exc}") from exc
    if model.total != total:
        raise DataError(f"{path}: header total {total} != sum of counts {model.total}")
    return model
