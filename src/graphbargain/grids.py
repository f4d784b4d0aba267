"""Histogram grids over metric and parameter space, the conditional model, its split and its file.

The conditional model is the bridge between the two spaces.  It is built from
a baseline sample of (unit parameter point, metric point) pairs and stores
sparse counts: n_i records per observed parameter cell i and n_ij records per
(parameter cell, metric cell) pair.  A candidate parameter distribution q is
scored by pushing its per-cell mass through the conditional rows:

    P_j = sum_i (n_ij / n_i) * mass_i(q)

Only observed parameter cells contribute, so the total pushed mass (the
coverage) is less than 1; predictions renormalize and report it separately.
The push is one sparse matrix (metric cells by parameter cells) built once per
model, so scoring a candidate costs one Beta CDF call at the edges of the
parameter bins, five gathers and one matrix-vector product.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

# scipy.sparse and scipy.special load in the functions that call them: only
# baseline and optimize build a model, and only the optimizer takes Beta CDFs.
if TYPE_CHECKING:
    import scipy.sparse

from .dataset import read_ascii, read_table, write_ascii
from .errors import DataError
from .params import check_shapes

__all__ = [
    "DLOG_MIN",
    "DLOG_MAX",
    "METRIC_BINS",
    "PARAM_BINS",
    "metric_cells",
    "param_cells",
    "ConditionalModel",
    "build_conditional",
    "conditional_from_pairs",
    "split_model",
    "predicted_mass",
    "save_conditional",
    "load_conditional",
]

logger = logging.getLogger(__name__)

_PAIR_DTYPE = np.dtype([(name, np.int64) for name in ("cell", "metric", "count")])
# The push divides n_ij by n_i in float64, which holds every integer up to 2**53.
_MAX_TOTAL = 2**53
# Bins per axis of the square metric grid and of the four-axis parameter grid.
METRIC_BINS = 10
PARAM_BINS = 20
# The dlog axis of the metric grid; the clustering axis is [0, 1].
DLOG_MIN = -6.0
DLOG_MAX = 0.0


def metric_cells(clustering: np.ndarray, dlog: np.ndarray) -> np.ndarray:
    """Flat int64 cell ids on the square metric grid of METRIC_BINS bins per axis.

    The grid covers clustering [0, 1] by dlog [DLOG_MIN, DLOG_MAX], row-major
    in clustering. Upper edges fold into the last bin; dlog below DLOG_MIN is
    clamped into the first dlog bin, with one warning that counts them.
    """
    c = np.asarray(clustering, dtype=np.float64)
    d = np.asarray(dlog, dtype=np.float64)
    inside = (c >= 0.0) & (c <= 1.0)
    if not inside.all():
        raise ValueError(f"clustering {c[~inside][0]} outside [0, 1]")
    if np.any(np.isnan(d)):
        raise ValueError("dlog is nan")
    low = int(np.count_nonzero(d < DLOG_MIN))
    if low:
        logger.warning("%d dlog values below grid minimum %g; clamped into first bin", low, DLOG_MIN)
    bins = METRIC_BINS
    c_bin = np.minimum((c * bins).astype(np.int64), bins - 1)
    width = (DLOG_MAX - DLOG_MIN) / bins
    d_bin = np.clip((d - DLOG_MIN) / width, 0, bins - 1).astype(np.int64)
    return c_bin * bins + d_bin


def param_cells(units: np.ndarray) -> np.ndarray:
    """Flat int64 cell ids on the PARAM_BINS**4 parameter grid for an (K, 4) array of (N, a, b, c) unit coordinates.

    Upper edges fold into the last bin; the last coordinate varies fastest.
    """
    u = np.asarray(units, dtype=np.float64)
    if u.ndim != 2 or u.shape[1] != 4:
        raise ValueError("unit coordinates must be an (K, 4) array")
    inside = (u >= 0.0) & (u <= 1.0)
    if not inside.all():
        raise ValueError(f"unit coordinate {u[~inside][0]} outside [0, 1]")
    bins4 = np.minimum((u * PARAM_BINS).astype(np.int64), PARAM_BINS - 1)
    return bins4 @ PARAM_BINS ** np.arange(3, -1, -1, dtype=np.int64)


@dataclass(eq=False)
class ConditionalModel:
    """Sparse conditional counts linking parameter cells to metric cells.

    ``cell_flat`` holds the flat ids of the K observed parameter cells in
    ascending order. ``counts`` is a canonical int64 CSC matrix of shape
    (metric cells, K): column i holds the counts n_ij of cell ``cell_flat[i]``,
    its row indices sorted, without duplicates or explicit zeros, so
    ``counts.data`` runs in (cell, metric) order. Models compare by identity.
    """

    cell_flat: np.ndarray
    counts: scipy.sparse.csc_matrix

    @property
    def total(self) -> int:
        """The number of records the model counts."""
        return int(self.counts.data.sum())

    # The cached arrays below derive from the counts, so the model file does
    # not hold them; the arrays are not to be mutated after construction.

    @cached_property
    def mass_index(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The CDF points of an evaluation and, per cell and per (N, a) pair, where their bin masses lie.

        The CDF points are the PARAM_BINS + 1 edges of the N, a, b and c axes in turn: per point its
        unit position and axis. A bin's mass lies at its lower edge's place, as the difference between
        the CDF at the next point and at that one. Per cell: its (N, a) pair, its b place and its c
        place; then per pair, its N and a places.
        """
        edges = PARAM_BINS + 1
        b01, rest = np.divmod(self.cell_flat, PARAM_BINS**2)
        b2, b3 = np.divmod(rest, PARAM_BINS)
        pairs, pair_of_cell = np.unique(b01, return_inverse=True)
        n_bin, a_bin = np.divmod(pairs, PARAM_BINS)
        cdf_points = np.tile(np.linspace(0.0, 1.0, edges), 4), np.repeat(np.arange(4), edges)
        return cdf_points, (pair_of_cell, b2 + 2 * edges, b3 + 3 * edges, n_bin, a_bin + edges)

    @cached_property
    def push(self) -> scipy.sparse.csr_matrix:
        """The conditional rows as a (metric cells, parameter cells) matrix of n_ij / n_i.

        The conversion to CSR keeps each metric row's cells in ascending
        order, so a matrix-vector product adds the terms of a metric cell in
        the order a ``bincount`` over ``counts.data`` would.
        """
        share = self.counts.astype(np.float64)
        share.data /= np.repeat(self.counts.sum(axis=0).A1, np.diff(share.indptr))
        return share.tocsr()


def conditional_from_pairs(flat: np.ndarray, metric: np.ndarray, counts: np.ndarray) -> ConditionalModel:
    """Assemble a model from raw (flat cell id, metric cell id, count) triples.

    Duplicate (cell, metric) keys are merged, zero counts dropped.
    """
    import scipy.sparse

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
    if np.any(flat < 0) or np.any(flat >= PARAM_BINS**4):
        raise ValueError("parameter cell id outside grid")
    if np.any(metric < 0) or np.any(metric >= METRIC_BINS**2):
        raise ValueError("metric cell id outside grid")
    total = sum(counts.tolist())
    if total > _MAX_TOTAL:
        raise ValueError(f"total count {total} above 2**53, where float64 sums stop being exact")

    cell_flat, column = np.unique(flat, return_inverse=True)
    matrix = scipy.sparse.csc_matrix((counts, (metric, column)), shape=(METRIC_BINS**2, cell_flat.size))
    return ConditionalModel(cell_flat=cell_flat, counts=matrix)


def _pairs(model: ConditionalModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model's (parameter cell, metric cell, count) triples in (cell, metric) order."""
    counts = model.counts
    return np.repeat(model.cell_flat, np.diff(counts.indptr)), counts.indices, counts.data


# The share of a model's records that split_model draws into the holdout side.
_HOLDOUT_FRACTION = 0.2


def split_model(model: ConditionalModel, seed: int) -> tuple[ConditionalModel, ConditionalModel]:
    """Split a serialized model's counts into (train, holdout) without access to the raw records.

    Draws ``_HOLDOUT_FRACTION`` of the records, rounded, into the holdout side
    uniformly over the model's record tokens (a multivariate hypergeometric
    over the (cell, metric) pair counts), which matches a record-level split
    in distribution at the grid's resolution. A model of fewer than 10
    records, where a side could round to none, raises ValueError.
    """
    if model.total < 10:
        raise ValueError("need at least 10 records to split")
    n_hold = int(round(model.total * _HOLDOUT_FRACTION))
    flat, metric, counts = _pairs(model)
    hold = np.random.default_rng(seed).multivariate_hypergeometric(counts, n_hold)
    return conditional_from_pairs(flat, metric, counts - hold), conditional_from_pairs(flat, metric, hold)


def build_conditional(units: np.ndarray, clustering: np.ndarray, dlog: np.ndarray) -> ConditionalModel:
    """Count (parameter cell, metric cell) co-occurrences over baseline records.

    Record k has the unit coordinates ``units[k]`` of an (K, 4) array and the
    metric point (``clustering[k]``, ``dlog[k]``).
    """
    flat = param_cells(units)
    metric = metric_cells(clustering, dlog)
    return conditional_from_pairs(flat, metric, np.ones(flat.size, dtype=np.int64))


def _dim_masses(shapes: np.ndarray, cdf_points: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per ``mass_index`` place, the Beta mass of the bin whose lower edge lies there, from one ``betainc``.

    The place of an axis's last edge starts no bin; its difference spans two axes and is never read.
    """
    from scipy.special import betainc

    x, axes = cdf_points
    return np.diff(betainc(shapes[0::2].take(axes), shapes[1::2].take(axes), x))


def predicted_mass(model: ConditionalModel, shapes: np.ndarray) -> tuple[np.ndarray, float]:
    """Raw pushed metric mass (not normalized) and the coverage it sums to.

    ``shapes`` holds the eight Beta shapes in ``params.Q_KEYS`` order.
    One ``betainc`` gives the four per-axis CDFs at the bin edges; the (N, a)
    masses are multiplied once per observed bin pair, then per cell by the b
    and c masses, and the model's ``push`` matrix carries the cell masses to
    the metric cells.
    """
    cdf_points, (pair_of_cell, b2, b3, n_bin, a_bin) = model.mass_index
    dim = _dim_masses(check_shapes(shapes), cdf_points)
    # d0[b0] * d1[b1] once per observed (N, a) pair, then * d2[b2] * d3[b3] per cell, in place
    cellmass = (dim.take(n_bin) * dim.take(a_bin)).take(pair_of_cell)
    cellmass *= dim.take(b2)
    cellmass *= dim.take(b3)
    coverage = float(cellmass.sum())
    return model.push @ cellmass, coverage


def _header(total: object, pairs: object) -> list[str]:
    """The five header lines of a model file, the only header ``load_conditional`` accepts."""
    return [
        "graphbargain-model v1",
        f"metric_grid {METRIC_BINS} {METRIC_BINS} {DLOG_MIN!r} {DLOG_MAX!r}",
        f"param_grid {PARAM_BINS}",
        f"total {total}",
        f"pairs {pairs}",
    ]


def save_conditional(model: ConditionalModel, path: str | Path) -> None:
    flat, metric, counts = _pairs(model)
    header = _header(model.total, counts.size)
    write_ascii(path, header + [f"{i} {j} {c}" for i, j, c in zip(flat, metric, counts)])


def _header_int(line: str) -> int | str:
    """The integer in a header line's second field, or a placeholder that no loadable header holds."""
    try:
        return int(line.split()[1])
    except (IndexError, ValueError):
        return "<integer>"


def load_conditional(path: str | Path) -> ConditionalModel:
    path = Path(path)
    text = read_ascii(path, "model file", DataError)
    lines = text.splitlines()
    if len(lines) < 5:
        raise DataError(f"{path}: truncated model file")
    # Lines 4-5 each carry one integer, and the header must be the one save_conditional renders from them.
    total, pairs = values = [_header_int(line) for line in lines[3:5]]
    for lineno, (want, got) in enumerate(zip(_header(*values), lines), start=1):
        if got != want or "<integer>" in want:
            raise DataError(f"{path}:{lineno}: expected {want!r}, got {got!r}")
    body = lines[5:]
    if len(body) != pairs:
        raise DataError(f"{path}: expected {pairs} pair lines, found {len(body)}")
    table = read_table(path, text, body, 6, _PAIR_DTYPE, blank_lines=False)
    flat, metric, counts = (table[name] for name in _PAIR_DTYPE.names)
    try:
        model = conditional_from_pairs(flat, metric, counts)
    except ValueError as exc:
        raise DataError(f"{path}: inconsistent model: {exc}") from exc
    if model.total != total:
        raise DataError(f"{path}: header total {total} != sum of counts {model.total}")
    return model
