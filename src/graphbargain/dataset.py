"""File formats: edge lists, MatrixMarket adjacency input, manifests, q vectors; metric correlation.

All text output is ASCII with floats rendered via repr(), so files are
byte-identical across runs and round-trip without precision loss. Only this
module opens files or makes directories, and every file it writes, graph edge
lists included, replaces its path atomically through _replacing.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError
from .graph import Graph
from .params import Q_KEYS, check_shapes
from .rmat import VanishedGraphError, sanitize

__all__ = [
    "MANIFEST_DTYPE",
    "MANIFEST_HEADER",
    "write_ascii",
    "csv_lines",
    "write_edge_list",
    "read_edge_list",
    "read_matrix_market",
    "write_manifest",
    "read_manifest",
    "write_qvector",
    "read_qvector",
    "correlation",
]

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


@contextmanager
def _replacing(path: str | Path) -> Iterator[BinaryIO]:
    """A binary handle whose bytes replace ``path`` when the block completes; the package's only write path.

    It creates the parent directory and fills a sibling ``.<name>.partial``, which an exception removes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f".{path.name}.partial")
    try:
        with open(partial, "wb") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_ascii(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line and a newline as ASCII through _replacing."""
    with _replacing(path) as fh:
        fh.writelines((line + "\n").encode("ascii") for line in lines)


def csv_lines(names: Sequence[str], rows: Iterable[Sequence[object]]) -> Iterator[str]:
    """The header of ``names``, then each row's str() values joined by commas (a float's str is its repr)."""
    yield ",".join(names)
    for row in rows:
        yield ",".join(map(str, row))


def write_edge_list(g: Graph, path: str | Path) -> None:
    """One 'u v' pair per line, u < v, lexicographically sorted, written through _replacing."""
    # n <= MAX_KEYED_NODES < 2**32, so every id fits in uint32.
    ids = g.edge_array().astype(np.uint32).ravel()
    width = len(str(max(g.node_count - 1, 0)))
    powers = 10 ** np.arange(1, width, dtype=np.uint32)
    cols = np.arange(width + 1)
    keep = cols >= cols[:, None]  # keep[s]: the bytes of an id with s leading zeros
    with _replacing(path) as fh:
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
    """Read 'u v' lines, cleaned by ``sanitize`` like read_matrix_market's entries; errors name the first bad line."""
    path = Path(path)
    text = read_ascii(path, "edge list", DataError)
    edge = np.dtype([("u", np.int64), ("v", np.int64)])
    table = read_table(path, text, text.splitlines(), 1, edge, negative="negative node id")
    pairs = table.view(np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        raise DataError(f"{path}: no edges")
    return _sanitized(path, pairs, int(pairs.max()) + 1)


def _sanitized(path: Path, edges: np.ndarray, n_param: int) -> Graph:
    """``sanitize(edges, n_param)``, its errors raised as DataError naming ``path``."""
    try:
        return sanitize(edges, n_param)
    except VanishedGraphError as exc:
        raise DataError(f"{path}: no usable off-diagonal structure ({exc})") from exc
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_table(
    path: Path,
    text: str,
    lines: list[str],
    first: int,
    dtype: np.dtype,
    sep: str | None = None,
    negative: str = "",
    blank_lines: bool = True,
) -> np.ndarray:
    """The ``dtype`` rows of the number table ``lines`` of ``text``, numbered from ``first``, in one np.loadtxt parse.

    Each line splits at ``sep`` (ASCII whitespace when None) into one value per field. Blank lines are skipped
    when ``blank_lines`` holds, else refused; numpy skips an empty line, and a whitespace-only one only when
    ``sep`` is None. The table is refused when numpy refuses it, when a value is negative and ``negative`` gives
    that message, or when ``text`` holds a byte in \\x1c-\\x1f: str.splitlines() breaks a line there and numpy
    sees a space. The error names the first line _bad_line finds bad, or the file alone when every line passes,
    as one with digits grouped by underscores does: int() and float() accept 1_0, numpy does not.
    """
    layout = (sep or " ").join(dtype.names)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy 1.x parses an int field such as 1.5 via a float
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(lines, dtype, delimiter=sep, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            table = None
    refused = table is None or (not blank_lines and len(table) != len(lines))
    if not refused and not any(byte in text for byte in "\x1c\x1d\x1e\x1f"):
        if not (negative and any(np.any(table[name] < 0) for name in dtype.names)):
            return table
    numbered = ((lineno, line) for lineno, line in enumerate(lines, start=first) if line.strip() or not blank_lines)
    _bad_line(path, numbered, dtype, layout, sep, negative)
    raise DataError(f"{path}: expected '{layout}' lines without digits grouped by underscores or bytes \\x1c-\\x1f")


def _bad_line(
    path: Path, lines: Iterable[tuple[int, str]], dtype: np.dtype, layout: str, sep: str | None, negative: str
) -> None:
    """Raise a DataError naming the first bad one of the numbered lines of a table numpy refused, if one is bad.

    A line splits at ``sep`` (whitespace when None) into one value per field of ``dtype``, parsed with int or
    float by the field's kind. It is bad when its value count is wrong, a value does not parse, a value is negative
    (if ``negative`` gives that message) or an int lies beyond int64, checked in order.
    """
    parsers = [int if dtype[name].kind == "i" else float for name in dtype.names]
    for lineno, line in lines:
        parts = line.split(sep)
        if len(parts) != len(parsers):
            raise DataError(f"{path}:{lineno}: expected '{layout}', got {line!r}")
        try:
            values = [parse(part) for parse, part in zip(parsers, parts)]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if negative and min(values) < 0:
            raise DataError(f"{path}:{lineno}: {negative}")
        for name, value in zip(dtype.names, values):
            if isinstance(value, int) and not _INT64.min <= value <= _INT64.max:
                raise DataError(f"{path}:{lineno}: {name} {value} beyond int64")


def read_matrix_market(path: str | Path) -> Graph:
    """Read a square sparse matrix and clean its structure into a graph.

    Keeps the off-diagonal pattern only: self-loops dropped, direction and
    values ignored, then the largest connected component is extracted.
    A malformed file, an index beyond int64 or a size line claiming more
    entries than the file's bytes can hold raises DataError, the last
    before any entry is read.
    """
    path = Path(path)
    import scipy.io

    # mminfo parses the banner and the size line alone; mmread allocates its entry count before reading.
    try:
        rows, cols, entries, fmt, *_ = scipy.io.mminfo(str(path))
        size = path.stat().st_size
    except (OSError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    if fmt != "coordinate":
        raise DataError(f"{path}:1: need a coordinate matrix, got {fmt}")
    if rows != cols:
        raise DataError(f"{path}: adjacency matrix must be square, got {rows}x{cols}")
    # Each entry takes two indices, and entries are whitespace-separated: at least 4k - 1 bytes.
    if 4 * entries - 1 > size:
        raise DataError(f"{path}: size line claims {entries} entries, more than its {size} bytes can hold")
    try:
        mat = scipy.io.mmread(str(path)).tocoo()
    except (OSError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    return _sanitized(path, np.column_stack([mat.row.astype(np.int64), mat.col.astype(np.int64)]), rows)


# One generated graph per row: its recipe, seed, unit point and measured outcome.
MANIFEST_DTYPE = np.dtype(
    [(name, np.int64) for name in ("id", "seed", "n_param", "e_param")]
    + [(name, np.float64) for name in ("a", "b", "c", "d", "u_n", "u_a", "u_b", "u_c")]
    + [("n_final", np.int64), ("e_final", np.int64), ("clustering", np.float64), ("dlog", np.float64)]
)

MANIFEST_HEADER = ",".join(MANIFEST_DTYPE.names)


def write_manifest(table: np.ndarray, path: str | Path) -> None:
    """One line per row of a MANIFEST_DTYPE table; tolist() gives Python scalars, so repr round-trips."""
    write_ascii(path, csv_lines(MANIFEST_DTYPE.names, table.tolist()))


def read_manifest(path: str | Path) -> np.ndarray:
    """The MANIFEST_DTYPE table of a manifest file; errors name the first bad line."""
    path = Path(path)
    text = read_ascii(path, "manifest", DataError)
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest")
    if lines[0] != MANIFEST_HEADER:
        raise DataError(f"{path}:1: bad header {lines[0]!r}")
    # With a comma separator numpy skips an empty line but refuses a whitespace-only one.
    rows = [line if line.strip() else "" for line in lines[1:]]
    table = read_table(path, text, rows, 2, MANIFEST_DTYPE, sep=",")
    if len(table) == 0:
        raise DataError(f"{path}: manifest has no rows")
    floats = [name for name in MANIFEST_DTYPE.names if MANIFEST_DTYPE[name].kind == "f"]
    # One row per check, in the order a line is checked; dlog is log10 of a simple graph's density, at most 1.
    clustering, dlog = table["clustering"], table["dlog"]
    failed = np.array([~np.isfinite(table[name]) for name in floats] + [(clustering < 0) | (clustering > 1), dlog > 0])
    if failed.any():
        row = int(np.argmax(failed.any(axis=0)))
        why = [f"{name} is {table[name][row].item()!r}, not a finite number" for name in floats]
        why += [f"clustering {clustering[row].item()!r} outside [0, 1]", f"dlog {dlog[row].item()!r} above 0"]
        lineno = [n for n, line in enumerate(rows, start=2) if line][row]
        raise DataError(f"{path}:{lineno}: {why[int(np.argmax(failed[:, row]))]}")
    return table


def write_qvector(q: np.ndarray, path: str | Path, extra: dict[str, object]) -> None:
    """Persist the eight Beta shapes of q, in ``Q_KEYS`` order, as flat key=value text.

    ``extra`` holds Python scalars, written with repr after the shapes.
    """
    lines = [f"{key} = {value!r}" for key, value in zip(Q_KEYS, check_shapes(q).tolist())]
    lines += [f"{key} = {value!r}" for key, value in extra.items()]
    write_ascii(path, lines)


def read_qvector(path: str | Path) -> np.ndarray:
    """Read a q vector back as its (8,) shape array from flat ``key = value`` lines.

    Blank lines and ``#`` comments are skipped, each line splits at its first
    ``=``, and unknown keys are ignored as metadata; a line without ``=``, or
    whose key an earlier line holds, raises DataError.
    """
    path = Path(path)
    seen: dict[str, int] = {}
    values: dict[str, float] = {}
    for lineno, line in enumerate(read_ascii(path, "q vector", DataError).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        if key in seen:
            raise DataError(f"{path}:{lineno}: key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        if key in Q_KEYS:
            try:
                values[key] = float(value.strip())
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    missing = [key for key in Q_KEYS if key not in values]
    if missing:
        raise DataError(f"{path}: missing keys: {', '.join(missing)}")
    try:
        return check_shapes([values[key] for key in Q_KEYS])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def correlation(clustering: np.ndarray, dlog: np.ndarray) -> float | None:
    """Pearson correlation of the two metric columns from population moments (ddof 0).

    None for fewer than two points, or when either column is constant (its
    standard deviation vanishes and the ratio is undefined).
    """
    if len(clustering) < 2:
        return None
    sc, sd = clustering.std(), dlog.std()
    if not (sc > 0.0 and sd > 0.0):
        return None
    cov = float(np.mean((clustering - clustering.mean()) * (dlog - dlog.mean())))
    return cov / (sc * sd)
