"""Seeded benchmark inputs, written with numpy only.

Three kinds of input feed the workloads:

* MatrixMarket files for ``validate``. Most hold a planted connected graph
  (a ring lattice plus degree-skewed chords, labels shuffled) and noise that
  the reader must clean away: duplicate entries, both orientations,
  self-loops, a second small component and unused node ids. The planted
  graph's expected (n, e, clustering, dlog) is returned beside the file.
  One holds raw recursive-matrix samples at fixed parameters, the skewed
  paper-scale case, whose cleaning the program must do itself.
* A conditional model file of synthetic (unit point, metric point) records,
  in the format ``graphbargain.grids.load_conditional`` reads.
* Beta parameter vectors (``best_q`` format) that pin the RMAT parameters of
  ``generate`` draws near fixed unit points.

Everything here depends only on the seed, so the same seed writes the same
bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

METRIC_BINS = 10
PARAM_BINS = 20
DLOG_MIN = -6.0
DLOG_MAX = 0.0


@dataclass(frozen=True)
class Expected:
    """Metric projection the program must report for one validation file."""

    name: str
    n: int
    e: int
    clustering: float | None  # None: not checked
    dlog: float


def mean_clustering(n: int, lo: np.ndarray, hi: np.ndarray) -> float:
    """Mean local clustering of a simple graph given as u < v edge arrays.

    Per-vertex triangle corners come from a single unblocked (A @ A) o A
    product; vertices of degree < 2 score 0.
    """
    data = np.ones(2 * lo.size, dtype=np.float64)
    adj = sparse.csr_matrix(
        (data, (np.concatenate([lo, hi]), np.concatenate([hi, lo]))), shape=(n, n)
    )
    common = np.asarray((adj @ adj).multiply(adj).sum(axis=1)).ravel()
    deg = np.diff(adj.indptr).astype(np.float64)
    coeff = np.zeros(n, dtype=np.float64)
    mask = deg >= 2
    coeff[mask] = common[mask] / (deg[mask] * (deg[mask] - 1.0))
    return float(coeff.mean())


def _planted_graph(rng: np.random.Generator, n: int, chords: int) -> tuple[np.ndarray, np.ndarray]:
    """Connected simple graph: ring lattice (i ~ i+1, i+2) plus skewed chords."""
    ring = np.arange(n, dtype=np.int64)
    u = np.concatenate([ring, ring])
    v = np.concatenate([(ring + 1) % n, (ring + 2) % n])
    # Chord endpoints follow a 1/sqrt(rank) weight, which gives a few hubs.
    weights = 1.0 / np.sqrt(np.arange(1, n + 1, dtype=np.float64))
    weights /= weights.sum()
    u = np.concatenate([u, rng.choice(n, size=chords, p=weights)])
    v = np.concatenate([v, rng.integers(0, n, size=chords)])
    label = rng.permutation(n).astype(np.int64)
    u, v = label[u], label[v]
    keep = u != v
    lo = np.minimum(u[keep], v[keep])
    hi = np.maximum(u[keep], v[keep])
    keys = np.unique(lo * n + hi)
    return keys // n, keys % n


def write_validation_mtx(
    path: Path, rng: np.random.Generator, n: int, chords: int, symmetric: bool, valued: bool
) -> Expected:
    """Write one noisy MatrixMarket file; return the metrics of its clean graph."""
    lo, hi = _planted_graph(rng, n, chords)
    expected = Expected(
        name=path.name,
        n=n,
        e=int(lo.size),
        clustering=mean_clustering(n, lo, hi),
        dlog=math.log10(2.0 * lo.size / (n * (n - 1.0))),
    )
    # A 4-node decoy component and a few ids that no entry uses.
    decoy = np.array([[n, n + 1], [n + 1, n + 2], [n + 2, n], [n + 2, n + 3]], dtype=np.int64)
    size = n + 4 + int(rng.integers(1, 6))
    pairs = np.concatenate([np.column_stack([lo, hi]), decoy])
    dup = pairs[rng.random(len(pairs)) < 0.1]
    loops = rng.choice(n, size=max(1, n // 50), replace=False)
    if symmetric:
        # The symmetric format stores one triangle; the reader mirrors it.
        rows = np.concatenate([pairs[:, 1], dup[:, 1], loops])
        cols = np.concatenate([pairs[:, 0], dup[:, 0], loops])
    else:
        flip = pairs[rng.random(len(pairs)) < 0.5]
        rows = np.concatenate([pairs[:, 0], flip[:, 1], dup[:, 1], loops])
        cols = np.concatenate([pairs[:, 1], flip[:, 0], dup[:, 0], loops])
    order = rng.permutation(rows.size)
    rows, cols = rows[order] + 1, cols[order] + 1
    field = "real" if valued else "pattern"
    kind = "symmetric" if symmetric else "general"
    head = f"%%MatrixMarket matrix coordinate {field} {kind}\n% seeded benchmark input\n{size} {size} {rows.size}\n"
    if valued:
        values = np.round(rng.uniform(-1.0, 1.0, size=rows.size), 6)
        body = "\n".join(f"{r} {c} {x!r}" for r, c, x in zip(rows.tolist(), cols.tolist(), values.tolist()))
    else:
        body = "\n".join(f"{r} {c}" for r, c in zip(rows.tolist(), cols.tolist()))
    path.write_text(head + body + "\n", encoding="ascii")
    return expected


def write_rmat_mtx(path: Path, rng: np.random.Generator, n: int, e: int, quad: tuple[float, float, float, float]) -> Expected:
    """Raw recursive-matrix samples as a ``general pattern`` file.

    The entries keep everything the sampler emits inside the n x n matrix:
    self-loops, repeats and both orientations. The expected sizes are those
    of the largest component after cleaning; clustering is left to the
    pinned digests, because an unblocked oracle would need gigabytes here.
    """
    cuts = np.cumsum(quad[:3])
    u = np.zeros(e, dtype=np.int64)
    v = np.zeros(e, dtype=np.int64)
    for _ in range((n - 1).bit_length()):
        pick = np.searchsorted(cuts, rng.random(e), side="right")
        u = (u << 1) | (pick >> 1)
        v = (v << 1) | (pick & 1)
    inside = (u < n) & (v < n)
    u, v = u[inside], v[inside]
    simple = u != v
    keys = np.unique(np.minimum(u[simple], v[simple]) * n + np.maximum(u[simple], v[simple]))
    lo, hi = keys // n, keys % n
    graph = sparse.coo_matrix((np.ones(lo.size), (lo, hi)), shape=(n, n))
    _, labels = csgraph.connected_components(graph, directed=False)
    sizes = np.bincount(labels)
    giant = np.argmax(sizes)
    head = f"%%MatrixMarket matrix coordinate pattern general\n% seeded benchmark input\n{n} {n} {u.size}\n"
    body = "\n".join(f"{r} {c}" for r, c in zip((u + 1).tolist(), (v + 1).tolist()))
    path.write_text(head + body + "\n", encoding="ascii")
    n_final = int(sizes[giant])
    e_final = int(np.count_nonzero(labels[lo] == giant))
    return Expected(path.name, n_final, e_final, None, math.log10(2.0 * e_final / (n_final * (n_final - 1.0))))


def write_synthetic_model(path: Path, rng: np.random.Generator, records: int) -> None:
    """Conditional model of ``records`` synthetic baseline draws on the default grids.

    Unit points are uniform on the hypercube; clustering grows with the
    skew coordinate and dlog falls with the node coordinate, each with noise,
    so the optimizer faces a realistic many-to-many parameter/metric map.
    """
    u = rng.random((records, 4))
    clustering = np.clip(0.9 * u[:, 1] ** 2 * (1.0 - 0.5 * u[:, 0]) + 0.08 * rng.standard_normal(records), 0.0, 1.0)
    dlog = np.clip(-0.8 - 4.5 * u[:, 0] + 0.4 * rng.standard_normal(records), DLOG_MIN, DLOG_MAX)
    bins = np.minimum((u * PARAM_BINS).astype(np.int64), PARAM_BINS - 1)
    flat = ((bins[:, 0] * PARAM_BINS + bins[:, 1]) * PARAM_BINS + bins[:, 2]) * PARAM_BINS + bins[:, 3]
    c_bin = np.minimum((clustering * METRIC_BINS).astype(np.int64), METRIC_BINS - 1)
    width = (DLOG_MAX - DLOG_MIN) / METRIC_BINS
    d_bin = np.clip(((dlog - DLOG_MIN) / width).astype(np.int64), 0, METRIC_BINS - 1)
    metric = c_bin * METRIC_BINS + d_bin
    keys, counts = np.unique(flat * (METRIC_BINS * METRIC_BINS) + metric, return_counts=True)
    lines = [
        "graphbargain-model v1",
        f"metric_grid {METRIC_BINS} {METRIC_BINS} {DLOG_MIN!r} {DLOG_MAX!r}",
        f"param_grid {PARAM_BINS}",
        f"total {records}",
        f"pairs {keys.size}",
    ]
    cells, metrics = np.divmod(keys, METRIC_BINS * METRIC_BINS)
    lines.extend(f"{i} {j} {c}" for i, j, c in zip(cells.tolist(), metrics.tolist(), counts.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def write_pinned_q(path: Path, means: tuple[float, float, float, float], concentration: float) -> None:
    """Beta vector whose unit coordinates concentrate at ``means`` (order N, a, b, c)."""
    keys = ("n", "a", "b", "c")
    lines = []
    for key, m in zip(keys, means):
        lines.append(f"alpha_{key} = {m * concentration!r}")
        lines.append(f"beta_{key} = {(1.0 - m) * concentration!r}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
