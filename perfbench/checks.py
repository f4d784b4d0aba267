"""Output digests and independent checks of what a pass wrote.

The checks read the files back with plain numpy and compare them with what
the benchmark knows independently: the planted validation graphs, the
manifest's own recipe columns, and edge lists re-measured by the
unblocked clustering oracle in ``inputs``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import inputs

ARTIFACTS = ("manifest.csv", "model.txt", "best_q.txt", "metrics.csv", "report.txt")
TOLERANCE = 1e-12
# Re-measuring clustering costs about as much as the program's own pass;
# larger sampled graphs get their sizes checked only. The paper-scale
# validation file still checks clustering at that scale.
ORACLE_MAX_EDGES = 50_000
_Q_BOUNDS = (1e-3, 100.0)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(root: Path) -> dict[str, str]:
    """SHA-256 of every artifact under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): sha256(p)
        for p in sorted(root.rglob("*"))
        if p.name in ARTIFACTS and p.parent.name != "graphs"
    }


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def check_validation(metrics_csv: Path, expected_json: Path) -> list[str]:
    expected = {e["name"]: e for e in json.loads(expected_json.read_text(encoding="ascii"))}
    lines = metrics_csv.read_text(encoding="ascii").splitlines()
    problems = []
    if lines[0] != "name,n,e,clustering,dlog":
        problems.append(f"{metrics_csv}: bad header")
    seen = set()
    for line in lines[1:]:
        name, n, e, clustering, dlog = line.split(",")
        want = expected.get(name)
        seen.add(name)
        if want is None:
            problems.append(f"{metrics_csv}: unexpected graph {name}")
        elif (int(n), int(e)) != (want["n"], want["e"]) or not _close(float(dlog), want["dlog"]) or (
            want["clustering"] is not None and not _close(float(clustering), want["clustering"])
        ):
            problems.append(f"{metrics_csv}: {name} measured {line}, planted {want}")
    if seen != set(expected):
        problems.append(f"{metrics_csv}: graphs {sorted(set(expected) - seen)} missing")
    return problems


def _check_edge_list(path: Path, row: dict) -> list[str]:
    edges = np.loadtxt(path, dtype=np.int64, ndmin=2)
    lo, hi = edges[:, 0], edges[:, 1]
    n = int(hi.max()) + 1
    problems = []
    if not np.all(lo < hi) or np.unique(lo * n + hi).size != lo.size:
        problems.append(f"{path}: edges not simple and sorted u < v")
    if (n, lo.size) != (row["n_final"], row["e_final"]):
        problems.append(f"{path}: N={n} E={lo.size}, manifest says {row['n_final']}, {row['e_final']}")
    elif lo.size <= ORACLE_MAX_EDGES and not _close(inputs.mean_clustering(n, lo, hi), row["clustering"]):
        problems.append(f"{path}: clustering differs from manifest value {row['clustering']!r}")
    return problems


def _table(path: Path) -> np.ndarray:
    return np.genfromtxt(path, delimiter=",", names=True, dtype=None, encoding="ascii", ndmin=1)


def draws(path: Path) -> list[tuple[int, float]]:
    """(E, a) of every row, so the skew of a few large draws is visible."""
    table = _table(path)
    return [(int(e), float(a)) for e, a in zip(table["e_param"], table["a"])]


def check_manifest(path: Path, rows_expected: int, sample: int) -> list[str]:
    """Row count, recipe consistency, and ``sample`` edge lists re-measured."""
    if not path.exists():
        return [f"{path}: missing"]
    table = _table(path)
    problems = []
    if len(table) != rows_expected or list(table["id"]) != list(range(rows_expected)):
        problems.append(f"{path}: expected ids 0..{rows_expected - 1}, got {len(table)} rows")
        return problems
    n, e = table["n_final"].astype(np.float64), table["e_final"].astype(np.float64)
    dlog = np.log10(2.0 * e / (n * (n - 1.0)))
    if np.any(np.abs(dlog - table["dlog"]) > TOLERANCE * np.maximum(1.0, np.abs(dlog))):
        problems.append(f"{path}: dlog column disagrees with n_final, e_final")
    if np.any(table["n_final"] > table["n_param"]) or np.any(table["e_final"] > table["e_param"]):
        problems.append(f"{path}: final sizes exceed requested sizes")
    if np.any((table["clustering"] < 0.0) | (table["clustering"] > 1.0)):
        problems.append(f"{path}: clustering outside [0, 1]")
    quad = table["a"] + table["b"] + table["c"] + table["d"]
    if np.any(np.abs(quad - 1.0) > 1e-9):
        problems.append(f"{path}: quadrant probabilities do not sum to 1")
    graphs = path.parent / "graphs"
    for i in sorted(range(len(table)), key=lambda k: table["e_final"][k])[:sample]:
        row = {name: table[name][i].item() for name in table.dtype.names}
        problems += _check_edge_list(graphs / f"g{row['id']:06d}.txt", row)
    return problems


def check_qvector(path: Path, metric_cells: int = 100) -> list[str]:
    if not path.exists():
        return [f"{path}: missing"]
    values = {}
    for line in path.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = float(value)
    problems = []
    shapes = [v for k, v in values.items() if k.startswith(("alpha_", "beta_"))]
    if len(shapes) != 8 or not all(_Q_BOUNDS[0] <= v <= _Q_BOUNDS[1] for v in shapes):
        problems.append(f"{path}: expected 8 Beta shapes in {_Q_BOUNDS}")
    f_min = -math.log2(2.0 - 1.0 / metric_cells)
    f_max = -math.log2(metric_cells) / metric_cells
    if not f_min - TOLERANCE <= values.get("holdout_fitness", math.nan) <= f_max + TOLERANCE:
        problems.append(f"{path}: holdout fitness outside [{f_min}, {f_max}]")
    if not 0.0 < values.get("coverage", math.nan) <= 1.0 + TOLERANCE:
        problems.append(f"{path}: coverage outside (0, 1]")
    return problems


def check_report(path: Path, counts: dict[str, int]) -> list[str]:
    if not path.exists():
        return [f"{path}: missing"]
    lines = path.read_text(encoding="ascii").splitlines()
    found = {line.split(":")[0]: line for line in lines[1:]}
    problems = []
    if not lines[0].startswith("metric grid: 10x10"):
        problems.append(f"{path}: bad grid line {lines[0]!r}")
    for label, count in counts.items():
        if f"count={count} " not in found.get(label, ""):
            problems.append(f"{path}: no {label} line with count={count}")
    return problems
