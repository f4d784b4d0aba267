"""File formats: edge lists, MatrixMarket adjacency input, manifests, stats.

All text output is ASCII with floats rendered via repr(), so files are
byte-identical across runs and round-trip without precision loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import DataError
from .graph import Graph, MetricPoint
from .params import Q_KEYS, check_shapes, unit_point
from .rmat import RmatParams, VanishedGraphError, sanitize

__all__ = [
    "MANIFEST_HEADER",
    "ManifestRow",
    "SummaryStats",
    "write_edge_list",
    "read_edge_list",
    "read_matrix_market",
    "write_manifest",
    "read_manifest",
    "write_qvector",
    "read_qvector",
    "compute_stats",
    "emit_scatter_csv",
]

_MM_FIELDS = {"pattern", "real", "integer", "complex"}
_MM_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}
_WRITE_ROWS = 65536
_INT64 = np.iinfo(np.int64)


def read_ascii(path: Path, what: str, error: type[ValueError]) -> str:
    """The text of an ASCII file; an unreadable or non-ASCII file raises ``error`` naming the path."""
    try:
        return path.read_text(encoding="ascii")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not ASCII text: {exc}") from exc


def key_value_lines(path: Path, what: str, error: type[ValueError]) -> Iterator[tuple[str, str, str]]:
    """("path:line", key, value) per line of a flat ``key = value`` file.

    Blank lines and ``#`` comments are skipped; each line splits at its first
    ``=``, and a line without one raises ``error``.
    """
    for lineno, line in enumerate(read_ascii(path, what, error).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        yield f"{path}:{lineno}", key.strip(), value.strip()


def write_edge_list(g: Graph, path: str | Path) -> None:
    """One 'u v' pair per line, u < v, lexicographically sorted."""
    # n <= MAX_KEYED_NODES < 2**32, so every id fits in uint32.
    ids = g.edge_array().astype(np.uint32).ravel()
    width = len(str(max(g.node_count - 1, 0)))
    powers = 10 ** np.arange(1, width, dtype=np.uint32)
    cols = np.arange(width + 1)
    keep = cols >= cols[:, None]  # keep[s]: the bytes of an id with s leading zeros
    with open(path, "wb") as fh:
        # Fixed-size chunks keep the digit matrix small at 1e6 edges.
        for start in range(0, len(ids), 2 * _WRITE_ROWS):
            chunk = ids[start : start + 2 * _WRITE_ROWS]
            # One row per id: `width` zero-padded digits, then ' ' or '\n'.
            text = np.empty((len(chunk), width + 1), dtype=np.uint8)
            rest = chunk
            for col in range(width - 1, -1, -1):
                quotient = rest // 10
                np.subtract(rest, quotient * 10, out=text[:, col], casting="unsafe")
                rest = quotient
            text += ord("0")
            text[0::2, width] = ord(" ")
            text[1::2, width] = ord("\n")
            zeros = width - 1 - np.searchsorted(powers, chunk, side="right")
            fh.write(text[np.take(keep, zeros, axis=0)].tobytes())


def read_edge_list(path: str | Path) -> Graph:
    """Read 'u v' lines; errors name the first bad line."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read edge list {path}: {exc}") from exc
    pairs = int_table(data, 2)
    if pairs is None or np.any(pairs < 0):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not ASCII text: {exc}") from exc
        lines = ((lineno, line) for lineno, line in enumerate(text.splitlines(), start=1) if line.strip())
        bad_line(path, lines, ("u", "v"), negative="negative node id")
    if len(pairs) == 0:
        raise DataError(f"{path}: no edges")
    try:
        return Graph.from_edge_list(pairs)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def int_table(data: bytes, columns: int) -> np.ndarray | None:
    """(rows, columns) int64 when every non-blank line holds ``columns`` integers within int64, else None."""
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


def bad_line(
    path: Path, lines: Iterable[tuple[int, str]], columns: Sequence[str], negative: str | None = None
) -> NoReturn:
    """Raise a DataError naming the first bad one of the numbered lines of a table int_table refused.

    A line is bad when it does not hold one integer per column, when a value
    is negative (only if ``negative`` gives the message for it) or when a
    value lies beyond int64; each line is checked in that order.
    """
    layout = " ".join(columns)
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != len(columns):
            raise DataError(f"{path}:{lineno}: expected '{layout}', got {line!r}")
        try:
            values = [int(part) for part in parts]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if negative is not None and min(values) < 0:
            raise DataError(f"{path}:{lineno}: {negative}")
        for name, value in zip(columns, values):
            if not _INT64.min <= value <= _INT64.max:
                raise DataError(f"{path}:{lineno}: {name} {value} beyond int64")
    # Every line holds its integers, so only separators that str.split() knows
    # and bytes.split() does not (the control bytes \x1c-\x1f) are left.
    raise DataError(f"{path}: expected '{layout}' lines separated by ASCII whitespace")


def read_matrix_market(path: str | Path) -> Graph:
    """Read a square sparse matrix and clean its structure into a graph.

    Keeps the off-diagonal pattern only: self-loops dropped, direction and
    values ignored, then the largest connected component is extracted.
    A malformed file, an index beyond int64 or a size line claiming more
    entries than the file's bytes can hold raises DataError, the last
    before any entry is read.
    """
    path = Path(path)
    try:
        with open(path, encoding="ascii", errors="replace") as fh:
            banner = fh.readline().split()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise DataError(f"{path}:1: not a MatrixMarket file")
    obj, fmt, field_kind, symmetry = (tok.lower() for tok in banner[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise DataError(f"{path}:1: need a coordinate matrix, got {obj} {fmt}")
    if field_kind not in _MM_FIELDS:
        raise DataError(f"{path}:1: unknown field type {field_kind!r}")
    if symmetry not in _MM_SYMMETRIES:
        raise DataError(f"{path}:1: unknown symmetry {symmetry!r}")
    import scipy.io

    # mminfo parses the size line alone; mmread allocates its entry count before reading.
    try:
        rows, cols, entries, *_ = scipy.io.mminfo(str(path))
        size = path.stat().st_size
    except (OSError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if rows != cols:
        raise DataError(f"{path}: adjacency matrix must be square, got {rows}x{cols}")
    # Each entry takes two indices, and entries are whitespace-separated: at least 4k - 1 bytes.
    if 4 * entries - 1 > size:
        raise DataError(f"{path}: size line claims {entries} entries, more than its {size} bytes can hold")
    try:
        mat = scipy.io.mmread(str(path)).tocoo()
    except (OSError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    edges = np.column_stack([mat.row.astype(np.int64), mat.col.astype(np.int64)])
    try:
        return sanitize(edges, rows)
    except VanishedGraphError as exc:
        raise DataError(f"{path}: no usable off-diagonal structure ({exc})") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class ManifestRow:
    """One generated graph: its recipe, seed, and measured outcome."""

    id: int
    seed: int
    n_param: int
    e_param: int
    a: float
    b: float
    c: float
    d: float
    u_n: float
    u_a: float
    u_b: float
    u_c: float
    n_final: int
    e_final: int
    clustering: float
    dlog: float

    @classmethod
    def build(
        cls, id: int, seed: int, params: RmatParams, n_final: int, e_final: int, metric: MetricPoint
    ) -> "ManifestRow":
        u_n, u_a, u_b, u_c = unit_point(params)
        return cls(
            id=id,
            seed=seed,
            n_param=params.n_param,
            e_param=params.e_param,
            a=params.a,
            b=params.b,
            c=params.c,
            d=params.d,
            u_n=u_n,
            u_a=u_a,
            u_b=u_b,
            u_c=u_c,
            n_final=n_final,
            e_final=e_final,
            clustering=metric.clustering,
            dlog=metric.dlog,
        )

    @property
    def metric(self) -> MetricPoint:
        return MetricPoint(self.clustering, self.dlog)


_ROW_FIELDS = [(f.name, f.type) for f in fields(ManifestRow)]

MANIFEST_HEADER = ",".join(name for name, _ in _ROW_FIELDS)


def _format_value(value: object) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_manifest(rows: Iterable[ManifestRow], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(MANIFEST_HEADER + "\n")
        for row in rows:
            fh.write(",".join(_format_value(getattr(row, name)) for name, _ in _ROW_FIELDS) + "\n")


def read_manifest(path: str | Path) -> list[ManifestRow]:
    path = Path(path)
    lines = read_ascii(path, "manifest", DataError).splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest")
    if lines[0] != MANIFEST_HEADER:
        raise DataError(f"{path}:1: bad header {lines[0]!r}")
    rows: list[ManifestRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(_ROW_FIELDS):
            raise DataError(f"{path}:{lineno}: expected {len(_ROW_FIELDS)} fields, got {len(parts)}")
        values: dict[str, object] = {}
        try:
            for (name, kind), token in zip(_ROW_FIELDS, parts):
                values[name] = int(token) if kind == "int" else float(token)
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        for name, kind in _ROW_FIELDS:
            if kind != "int" and not math.isfinite(values[name]):
                raise DataError(f"{path}:{lineno}: {name} is {values[name]!r}, not a finite number")
        if not 0.0 <= values["clustering"] <= 1.0:
            raise DataError(f"{path}:{lineno}: clustering {values['clustering']!r} outside [0, 1]")
        rows.append(ManifestRow(**values))
    if not rows:
        raise DataError(f"{path}: manifest has no rows")
    return rows


def write_qvector(q: np.ndarray, path: str | Path, extra: dict[str, object] | None = None) -> None:
    """Persist the eight Beta shapes of q, in ``Q_KEYS`` order, as flat key=value text."""
    lines = [f"{key} = {float(value)!r}" for key, value in zip(Q_KEYS, check_shapes(q))]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {_format_value(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_qvector(path: str | Path) -> np.ndarray:
    """Read a q vector back as its (8,) shape array; unknown keys are ignored as metadata."""
    path = Path(path)
    values: dict[str, float] = {}
    for where, key, value in key_value_lines(path, "q vector", DataError):
        if key in Q_KEYS:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise DataError(f"{where}: {exc}") from exc
    missing = [key for key in Q_KEYS if key not in values]
    if missing:
        raise DataError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        return check_shapes([values[key] for key in Q_KEYS])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class SummaryStats:
    """Descriptive statistics of a metric-point cloud.

    correlation is None when either coordinate is constant (the population
    standard deviation vanishes and the ratio is undefined).
    """

    count: int
    mean_clustering: float
    mean_dlog: float
    max_clustering: float
    correlation: float | None


def compute_stats(points: Iterable[MetricPoint]) -> SummaryStats:
    arr = np.array([[p.clustering, p.dlog] for p in points], dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no points")
    c, d = arr[:, 0], arr[:, 1]
    correlation: float | None = None
    if len(arr) >= 2:
        # population moments (ddof 0)
        sc, sd = c.std(), d.std()
        if sc > 0.0 and sd > 0.0:
            cov = float(np.mean((c - c.mean()) * (d - d.mean())))
            correlation = cov / (sc * sd)
    return SummaryStats(
        count=len(arr),
        mean_clustering=float(c.mean()),
        mean_dlog=float(d.mean()),
        max_clustering=float(c.max()),
        correlation=correlation,
    )


def emit_scatter_csv(points: Iterable[MetricPoint], path: str | Path) -> None:
    """Two-column CSV of the metric cloud, ready for plotting."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("clustering,dlog\n")
        for p in points:
            fh.write(f"{p.clustering!r},{p.dlog!r}\n")
