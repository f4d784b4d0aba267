"""Edge lists, MatrixMarket input, manifests, q vector files, and the metric correlation."""

from __future__ import annotations

import errno
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.io

from graphbargain.dataset import (
    MANIFEST_DTYPE,
    MANIFEST_HEADER,
    correlation,
    csv_lines,
    read_edge_list,
    read_manifest,
    read_matrix_market,
    read_qvector,
    write_ascii,
    write_edge_list,
    write_manifest,
    write_qvector,
)
from graphbargain.errors import DataError
from graphbargain.graph import MAX_KEYED_NODES, Graph, largest_connected_component, metric_projection
from graphbargain.params import unit_point
from graphbargain.rmat import RmatParams
from graphs import from_edge_list


def reference_line_parse(path, data: bytes) -> np.ndarray:
    """The line-by-line edge-list parser the whole-file parse replaced."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not ASCII text: {exc}") from exc
    us: list[int] = []
    vs: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise DataError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        if u < 0 or v < 0:
            raise DataError(f"{path}:{lineno}: negative node id")
        for name, value in (("u", u), ("v", v)):
            if value > np.iinfo(np.int64).max:
                raise DataError(f"{path}:{lineno}: {name} {value} beyond int64")
        us.append(u)
        vs.append(v)
    return np.column_stack([us, vs]) if us else np.zeros((0, 2), dtype=np.int64)


def reference_manifest_parse(path, text: str) -> np.ndarray:
    """The field-by-field manifest parser the single np.loadtxt parse replaced."""
    parsers = [(name, int if MANIFEST_DTYPE[name].kind == "i" else float) for name in MANIFEST_DTYPE.names]
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty manifest")
    if lines[0] != MANIFEST_HEADER:
        raise DataError(f"{path}:1: bad header {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(parsers):
            raise DataError(f"{path}:{lineno}: expected {len(parsers)} fields, got {len(parts)}")
        try:
            values = {name: parse(token) for (name, parse), token in zip(parsers, parts)}
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        for name, value in values.items():
            if isinstance(value, int) and not -(2**63) <= value < 2**63:
                raise DataError(f"{path}:{lineno}: {name} {value} beyond int64")
            if isinstance(value, float) and not math.isfinite(value):
                raise DataError(f"{path}:{lineno}: {name} is {value!r}, not a finite number")
        if not 0.0 <= values["clustering"] <= 1.0:
            raise DataError(f"{path}:{lineno}: clustering {values['clustering']!r} outside [0, 1]")
        if values["dlog"] > 0.0:
            raise DataError(f"{path}:{lineno}: dlog {values['dlog']!r} above 0")
        rows.append(tuple(values.values()))
    if not rows:
        raise DataError(f"{path}: manifest has no rows")
    return np.array(rows, dtype=MANIFEST_DTYPE)


def small_graph() -> Graph:
    return from_edge_list(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))


class TestEdgeLists:
    def test_round_trip(self, tmp_path):
        g = small_graph()
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g

    def test_written_format_is_sorted_pairs(self, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(small_graph(), path)
        assert path.read_text() == "0 1\n0 2\n1 2\n2 3\n"

    def test_written_format_across_write_chunks(self, tmp_path):
        # a ring lattice with 150003 edges spans several of the writer's row chunks
        n = 50_001
        u = np.repeat(np.arange(n), 3)
        v = (u + np.tile([1, 2, 3], n)) % n
        g = from_edge_list(np.column_stack([u, v]))
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        assert path.read_text() == "".join(f"{a} {b}\n" for a, b in g.edge_array().tolist())

    @pytest.mark.parametrize("width", range(1, 7))
    def test_written_format_across_digit_widths(self, tmp_path, width):
        # node counts 10**w and 10**w + 1: the largest id has w or w + 1 digits,
        # and edges join every pair of ids 10**k - 1, 10**k below it
        rng = np.random.default_rng(width)
        for n in (10**width, 10**width + 1):
            bounds = [10**k for k in range(1, width + 1) if 10**k < n]
            edges = {(b - 1, b) for b in bounds} | {(0, n - 1), (n - 2, n - 1)}
            u, v = rng.integers(0, n, size=(2, 200))
            edges |= {(int(a), int(b)) for a, b in zip(np.minimum(u, v), np.maximum(u, v)) if a != b}
            g = from_edge_list(sorted(edges), node_count=n)
            path = tmp_path / f"g{n}.txt"
            write_edge_list(g, path)
            assert path.read_bytes() == b"".join(b"%d %d\n" % (a, b) for a, b in g.edge_array().tolist())

    def test_a_write_that_fails_after_its_first_chunk_keeps_the_old_bytes_and_leaves_no_partial(
        self, tmp_path, disk_full_after_one_write
    ):
        path = tmp_path / "g.txt"
        path.write_bytes(b"5 6\n")
        with pytest.raises(OSError, match=re.escape(os.strerror(errno.ENOSPC))):
            write_edge_list(small_graph(), path)
        assert path.read_bytes() == b"5 6\n"
        assert [p.name for p in tmp_path.iterdir()] == ["g.txt"]

    @pytest.mark.parametrize("edges,n,text", [([(0, 1)], 2, b"0 1\n"), ([(7, 123456)], None, b"7 123456\n"), ([], 3, b"")])
    def test_written_format_of_one_edge_and_none(self, tmp_path, edges, n, text):
        path = tmp_path / "g.txt"
        write_edge_list(from_edge_list(edges, node_count=n), path)
        assert path.read_bytes() == text

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n  \n1 2\n")
        g = read_edge_list(path)
        assert g.edge_count == 2

    def test_repeats_orientations_and_self_loops_are_cleaned_like_matrix_market(self, tmp_path):
        # both orientations of 0-1 and 1-2, a repeated line, self-loops on a listed and an unlisted id,
        # and a smaller component {5, 6}: the largest component of the distinct edges remains
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n2 1\n1 2\n0 2\n0 1\n2 2\n9 9\n5 6\n6 5\n")
        distinct = from_edge_list([(0, 1), (1, 2), (0, 2), (5, 6)], node_count=10)
        assert read_edge_list(path) == largest_connected_component(distinct) == from_edge_list([(0, 1), (0, 2), (1, 2)])

    def test_the_largest_int64_id_overflows_the_edge_keys_unless_only_a_self_loop_holds_it(self, tmp_path):
        # n_param is then 2**63, beyond int64: the edge (0, 2**63 - 1) is refused, not dropped as padding
        path = tmp_path / "g.txt"
        path.write_text("0 9223372036854775807\n0 1\n")
        message = f"{path}: 9223372036854775808 nodes overflow the int64 edge keys (at most {MAX_KEYED_NODES})"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_edge_list(path)
        path.write_text("9223372036854775807 9223372036854775807\n0 1\n")
        assert read_edge_list(path) == from_edge_list([(0, 1)])

    def test_error_positions(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n2 3 4\n")
        with pytest.raises(DataError, match=r"g\.txt:2: expected 'u v'"):
            read_edge_list(path)
        path.write_text("0 1\nx 2\n")
        with pytest.raises(DataError, match=r"g\.txt:2"):
            read_edge_list(path)
        path.write_text("0 1\n-1 2\n")
        with pytest.raises(DataError, match="negative node id"):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "body,where",
        [
            ("1 2 3\n4\n", r":1: expected 'u v'"),
            ("1\n2 3 4\n", r":1: expected 'u v'"),
            ("1 2\n3 4 5 6\n", r":2: expected 'u v'"),
            ("1 2\n3", r":2: expected 'u v'"),
            ("1\r2\n", r":1: expected 'u v'"),
            ("0 1\n1 x\n", r":2: invalid literal"),
            ("0 1\n2 -1\n", r":2: negative node id"),
            ("99999999999999999999 1\n", r":1: u 99999999999999999999 beyond int64"),
            ("0 1\n1 9223372036854775808\n", r":2: v 9223372036854775808 beyond int64"),
        ],
    )
    def test_error_positions_when_the_token_total_is_even_or_odd(self, tmp_path, body, where):
        path = tmp_path / "g.txt"
        path.write_bytes(body.encode("ascii"))
        with pytest.raises(DataError, match=r"g\.txt" + where):
            read_edge_list(path)

    def test_non_ascii_bytes_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n\xff 2\n")
        with pytest.raises(DataError, match="not ASCII"):
            read_edge_list(path)

    def test_whole_file_parse_agrees_with_the_line_parser(self, tmp_path):
        # random files of lines of one to three integer-like tokens, separated within a line by spaces, tabs or
        # \x1f, which str.split() separates at, and ended by blank lines, \r\n or a break that str.splitlines()
        # also splits at: \r, \v, \f and \x1c-\x1e
        rng = np.random.default_rng(8)
        tokens = [*map(str, range(10)), "+3", "007", "-2", str(2**63 - 1), str(-(2**63 - 1)), str(2**63), "1_0", "x"]
        weights = np.array([8] * 10 + [3, 3, 1, 1, 1, 1, 3, 1]) / 94
        spaces, space_weights = [" ", "\t", "  ", "\x1f"], [0.6, 0.2, 0.1, 0.1]
        breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\n\n", "\n \n", "\x1c", "\x1d", "\x1e"]
        break_weights = np.array([8, 3, 2, 2, 2, 2, 2, 1, 1, 1]) / 24
        path = tmp_path / "g.txt"
        closing = f"{path}: expected 'u v' lines without digits grouped by underscores or bytes \\x1c-\\x1f"

        def expected(body: str) -> Graph | str:
            """The line parser's message, or the largest component of the distinct pairs it reads that are no
            self-loops; a body it accepts that holds \\x1c-\\x1f or 1_0 names the file."""
            try:
                pairs = reference_line_parse(path, body.encode("ascii"))
            except DataError as exc:
                return str(exc)
            if "1_0" in body or any(byte in body for byte in "\x1c\x1d\x1e\x1f"):
                return closing
            if len(pairs) == 0:
                return f"{path}: no edges"
            distinct = sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v})
            if not distinct:
                return f"{path}: no usable off-diagonal structure (vanished graph)"
            n = max(v for _, v in distinct) + 1
            if n > MAX_KEYED_NODES:
                return f"{path}: {n} nodes overflow the int64 edge keys (at most {MAX_KEYED_NODES})"
            return largest_connected_component(from_edge_list(distinct, node_count=n))

        kinds = {"graph": 0, "error": 0, "closing": 0}
        for _ in range(600):
            body = ""
            for _ in range(int(rng.integers(0, 5))):
                words = rng.choice(tokens, size=int(rng.choice([1, 2, 2, 2, 2, 2, 3])), p=weights)
                body += str(rng.choice(spaces, p=space_weights)).join(words) + str(rng.choice(breaks, p=break_weights))
            path.write_bytes(body.encode("ascii"))
            want = expected(body)
            try:
                got = read_edge_list(path)
            except DataError as exc:
                got = str(exc)
            if isinstance(want, Graph):
                assert isinstance(got, Graph) and got == want, body
                kinds["graph"] += 1
            else:
                assert got == want, body
                kinds["closing" if want == closing else "error"] += 1
        assert min(kinds.values()) > 40, kinds

    def test_digits_grouped_by_underscores_are_refused_without_a_line(self, tmp_path):
        # int() reads 1_0 as 10 and numpy's parser refuses it; no line is at fault
        path = tmp_path / "g.txt"
        path.write_bytes(b"0 1\n1_0 2\n")
        assert reference_line_parse(path, path.read_bytes()).tolist() == [[0, 1], [10, 2]]
        with pytest.raises(DataError, match=r"g\.txt: expected 'u v' lines without digits grouped by underscores or bytes \\x1c-\\x1f$"):
            read_edge_list(path)

    def test_control_byte_separators_rejected_without_a_line(self, tmp_path):
        # str.splitlines() breaks at \x1c-\x1e and str.split() separates at
        # \x1c-\x1f, where numpy sees a space; the line loop finds every
        # line good, so the error names the file alone
        path = tmp_path / "g.txt"
        for body in (b"0 1\x1c1 2\n", b"0 1\x1d1 2\n", b"0 1\x1e1 2\n", b"0 1\n1\x1f2\n", b"0\x1f1\x1c1 2"):
            path.write_bytes(body)
            assert len(reference_line_parse(path, body)) == 2
            with pytest.raises(DataError, match=r"g\.txt: expected 'u v' lines without digits grouped by underscores or bytes \\x1c-\\x1f$"):
                read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no edges"):
            read_edge_list(path)

    @pytest.mark.parametrize("body", [b"", b"\n \t\n"])
    def test_an_empty_file_raises_no_edges_without_a_warning(self, tmp_path, body):
        path = tmp_path / "g.txt"
        path.write_bytes(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=r"g\.txt: no edges$"):
                read_edge_list(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_edge_list(tmp_path / "absent.txt")

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        for k in range(20):
            n = int(rng.integers(4, 30))
            possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
            take = rng.choice(len(possible), size=min(len(possible), 3 * n), replace=False)
            g = from_edge_list(np.array([possible[i] for i in take]))
            path = tmp_path / f"r{k}.txt"
            write_edge_list(g, path)
            assert read_edge_list(path) == g


class TestMatrixMarket:
    def _write(self, tmp_path, body: str, name: str = "m.mtx"):
        path = tmp_path / name
        path.write_text(body)
        return path

    def test_pattern_symmetric_with_self_loop(self, tmp_path):
        body = (
            "%%MatrixMarket matrix coordinate pattern symmetric\n"
            "% comment line\n"
            "4 4 5\n"
            "2 1\n"
            "3 1\n"
            "3 2\n"
            "2 2\n"
            "4 3\n"
        )
        g = read_matrix_market(self._write(tmp_path, body))
        assert g.node_count == 4
        assert g.edge_array().tolist() == [[0, 1], [0, 2], [1, 2], [2, 3]]

    def test_real_general_directed_collapses(self, tmp_path):
        body = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 3 4\n"
            "1 2 0.5\n"
            "2 1 -2.0\n"
            "3 1 7.0\n"
            "1 1 9.0\n"
        )
        g = read_matrix_market(self._write(tmp_path, body))
        assert g.edge_array().tolist() == [[0, 1], [0, 2]]

    def test_keeps_largest_component(self, tmp_path):
        body = (
            "%%MatrixMarket matrix coordinate pattern general\n"
            "6 6 4\n"
            "1 2\n"
            "2 3\n"
            "3 1\n"
            "5 6\n"
        )
        g = read_matrix_market(self._write(tmp_path, body))
        assert g.node_count == 3
        assert g.edge_count == 3

    def test_banner_rejections(self, tmp_path):
        # scipy.io.mminfo words a missing banner and an unknown field or symmetry; the error names the file
        for body in (
            "0 1\n1 2\n",
            "%%MatrixMarket matrix coordinate bogus general\n1 1 1\n1 1 1\n",
            "%%MatrixMarket matrix coordinate real bogus\n1 1 1\n1 1 1\n",
        ):
            path = self._write(tmp_path, body)
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
                read_matrix_market(path)
        with pytest.raises(DataError, match="need a coordinate matrix, got array$"):
            read_matrix_market(
                self._write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\n3.0\n")
            )

    def test_non_square_rejected(self, tmp_path):
        body = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n"
        with pytest.raises(DataError, match="must be square, got 2x3"):
            read_matrix_market(self._write(tmp_path, body))

    def test_no_off_diagonal_structure(self, tmp_path):
        body = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n2 2\n"
        with pytest.raises(DataError, match="no usable off-diagonal structure"):
            read_matrix_market(self._write(tmp_path, body))

    def test_ids_that_overflow_edge_keys_rejected(self, tmp_path):
        body = "%%MatrixMarket matrix coordinate pattern general\n4000000002 4000000002 1\n4000000001 4000000002\n"
        with pytest.raises(DataError, match="overflow") as info:
            read_matrix_market(self._write(tmp_path, body))
        assert "off-diagonal" not in str(info.value)

    @pytest.mark.parametrize(
        "body",
        [
            "99999999999999999999 99999999999999999999 1\n1 2\n",
            "3 3 1\n1 99999999999999999999\n",
        ],
        ids=["size-line", "entry"],
    )
    def test_numbers_beyond_int64_rejected(self, tmp_path, body):
        with pytest.raises(DataError, match="out of range"):
            read_matrix_market(self._write(tmp_path, "%%MatrixMarket matrix coordinate pattern general\n" + body))

    @pytest.mark.parametrize("entries", [1_000_000_000_000_000, 3_000_000_000, 20])
    def test_entry_count_beyond_the_file_rejected_before_reading(self, tmp_path, monkeypatch, entries):
        # 20 entries need at least 79 bytes; the whole file holds fewer.
        body = f"%%MatrixMarket matrix coordinate pattern general\n3 3 {entries}\n1 2\n2 3\n"

        def refuse(*args, **kwargs):
            raise AssertionError("mmread would allocate the claimed entry count")

        monkeypatch.setattr(scipy.io, "mmread", refuse)
        with pytest.raises(DataError, match=f"claims {entries} entries, more than its"):
            read_matrix_market(self._write(tmp_path, body))

    def test_tightest_entry_layout_is_read(self, tmp_path):
        # k entries fit in 4k - 1 bytes, so the bound refuses no file that holds them
        header = "%%MatrixMarket matrix coordinate pattern general\n"
        path = self._write(tmp_path, f"{header}3 3 2\n1 2\n2 3")
        assert read_matrix_market(path).edge_array().tolist() == [[0, 1], [1, 2]]

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.mtx"
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: "):
            read_matrix_market(path)


def test_edge_lists_and_matrix_market_files_of_one_listing_read_alike(tmp_path):
    # random listings with self-loops, repeats and both orientations, written as an edge list and as a general
    # pattern MatrixMarket file: both readers clean them by sanitize, to one graph or one message
    rng = np.random.default_rng(17)
    listings = []
    for _ in range(40):
        n = int(rng.integers(2, 10))
        listings.append((n, rng.integers(0, n, size=(int(rng.integers(1, 2 * n)), 2)).tolist()))
    # a self-loop on an id beyond the edge keys is dropped before the keys are formed
    listings.append((4_000_000_001, [[0, 1], [4_000_000_000, 4_000_000_000]]))
    kinds = {"graph": 0, "error": 0}
    for k, (n, pairs) in enumerate(listings):
        txt, mtx = tmp_path / f"g{k}.txt", tmp_path / f"g{k}.mtx"
        txt.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        entries = "".join(f"{u + 1} {v + 1}\n" for u, v in pairs)
        mtx.write_text(f"%%MatrixMarket matrix coordinate pattern general\n{n} {n} {len(pairs)}\n{entries}")
        outcomes = []
        for path, read in ((txt, read_edge_list), (mtx, read_matrix_market)):
            try:
                outcomes.append(read(path))
            except DataError as exc:
                outcomes.append(str(exc).removeprefix(f"{path}: "))
        assert outcomes[0] == outcomes[1], pairs
        kinds["graph" if isinstance(outcomes[0], Graph) else "error"] += 1
    assert min(kinds.values()) > 0, kinds


@pytest.mark.parametrize(
    "name,small,large",
    [
        ("g.txt", "1 0\n", "10000000 1\n"),
        ("g.mtx", "2 2 1\n2 1\n", "10000000 10000000 1\n10000000 1\n"),
    ],
    ids=["edge-list", "matrix-market"],
)
def test_reader_memory_follows_the_edges_not_the_largest_id(tmp_path, name, small, large):
    # validate's path: either reader returns the largest component, through sanitize
    def read(body: str) -> Graph:
        header = "%%MatrixMarket matrix coordinate pattern general\n" if name.endswith(".mtx") else ""
        path = tmp_path / name
        path.write_text(header + body, encoding="ascii")
        return read_matrix_market(path) if name.endswith(".mtx") else read_edge_list(path)

    expected = read(small)  # also loads what the readers import
    assert expected == from_edge_list([(0, 1)])
    tracemalloc.start()
    try:
        g = read(large)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib < 4.0
    assert g == expected
    assert metric_projection(g) == metric_projection(expected)


def sample_table() -> np.ndarray:
    table = np.zeros(3, MANIFEST_DTYPE)
    for k, (a, b, c) in enumerate([(0.5, 0.25, 0.15), (0.7, 0.2, 0.06), (0.25, 0.25, 0.25)]):
        p = RmatParams(n_param=140 + k, e_param=150, a=a, b=b, c=c, d=round(1.0 - a - b - c, 10))
        recipe = (k, 1000 + k, p.n_param, p.e_param, p.a, p.b, p.c, p.d)
        table[k] = (*recipe, *unit_point(p), 180 - k, 140 + k, 0.1 * (k + 1), -2.0 - 0.3 * k)
    return table


class TestManifest:
    def test_round_trip_exact(self, tmp_path):
        table = sample_table()
        path = tmp_path / "manifest.csv"
        write_manifest(table, path)
        back = read_manifest(path)
        assert back.dtype == MANIFEST_DTYPE
        assert back.tolist() == table.tolist()

    def test_written_lines_are_the_reprs_of_each_row(self, tmp_path):
        table = sample_table()
        path = tmp_path / "manifest.csv"
        write_manifest(table, path)
        second = path.read_text().splitlines()[2]
        assert second == "1,1001,141,150,0.7,0.2,0.06,0.04," + ",".join(map(repr, table[1].tolist()[8:]))
        assert second.endswith(",179,141,0.2,-2.3")

    def test_rewrites_are_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        write_manifest(sample_table(), p1)
        write_manifest(read_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        first = path.read_text().splitlines()[0]
        assert first == MANIFEST_HEADER
        assert first == "id,seed,n_param,e_param,a,b,c,d,u_n,u_a,u_b,u_c,n_final,e_final,clustering,dlog"

    def test_error_cases(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty manifest"):
            read_manifest(path)
        path.write_text("id,seed\n")
        with pytest.raises(DataError, match="bad header"):
            read_manifest(path)
        path.write_text(MANIFEST_HEADER + "\n")
        with pytest.raises(DataError, match="manifest has no rows"):
            read_manifest(path)
        path.write_text(MANIFEST_HEADER + "\n1,2,3\n")
        with pytest.raises(DataError, match=r"manifest\.csv:2: expected 'id,seed,.*,dlog', got '1,2,3'$"):
            read_manifest(path)
        write_manifest(sample_table(), path)
        broken = path.read_text().replace("0.5", "zero.five", 1)
        path.write_text(broken)
        with pytest.raises(DataError, match=r"manifest\.csv:2"):
            read_manifest(path)
        with pytest.raises(DataError, match="cannot read"):
            read_manifest(tmp_path / "absent.csv")

    def test_blank_lines_skipped(self, tmp_path):
        table = sample_table()
        path = tmp_path / "manifest.csv"
        write_manifest(table, path)
        padded = tmp_path / "padded.csv"
        lines = path.read_text().splitlines()
        padded.write_text("\n".join([lines[0], "", lines[1], "  ", *lines[2:]]) + "\n")
        assert read_manifest(padded).tolist() == table.tolist()

    @pytest.mark.parametrize("byte", ["\x1c", "\x1d", "\x1e"])
    def test_a_line_break_at_a_control_byte_is_refused_without_a_line(self, tmp_path, byte):
        # str.splitlines() breaks at \x1c-\x1e, so the row and the empty rest after it pass the line check
        table = sample_table()
        path = tmp_path / "manifest.csv"
        write_manifest(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], lines[1] + byte, *lines[2:]]) + "\n")
        assert reference_manifest_parse(path, path.read_text()).tolist() == table.tolist()
        message = rf"manifest\.csv: expected '{MANIFEST_HEADER}' lines without digits grouped by underscores or bytes \\x1c-\\x1f$"
        with pytest.raises(DataError, match=message):
            read_manifest(path)

    def test_whole_file_parse_agrees_with_the_field_parser(self, tmp_path):
        # random manifests with extreme values, blank and space-only lines, \r\n
        # endings and padded fields, about half of them with one bad line
        rng = np.random.default_rng(24)
        ints = [0, 1, -1, 7, 2**63 - 1, -(2**63 - 1), -(2**63)]
        floats = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0, 2.5e-7]
        units = [0.0, -0.0, 5e-324, 0.3, 1.0 - 2**-53, 1.0]
        dlogs = [0.0, -0.0, -5e-324, -2.3, -1.7976931348623157e308]
        bad_tokens = {
            "i": ["x", "", "1.0", "1.5", "1e3", "9223372036854775808", "-9223372036854775809", "\x1f1", "+7", " 3 "],
            "f": ["x", "", "nan", "-nan", "inf", "-inf", "1e400", "1.5", "0.5", "-0.1", "1d3", "2\x1f", "+.5"],
        }
        names = MANIFEST_DTYPE.names
        path = tmp_path / "manifest.csv"
        accepted = refused = 0
        for _ in range(400):
            table = np.zeros(int(rng.integers(1, 6)), MANIFEST_DTYPE)
            for name in names:
                pool = {"clustering": units, "dlog": dlogs}.get(name, ints if MANIFEST_DTYPE[name].kind == "i" else floats)
                table[name] = [pool[k] for k in rng.integers(0, len(pool), len(table))]
            write_manifest(table, path)
            lines = path.read_text(encoding="ascii").splitlines()
            rows = [line.split(",") for line in lines[1:]]
            if rng.random() < 0.3:
                rows = [[f"{' ' * int(rng.integers(0, 2))}{t}{chr(9) * int(rng.integers(0, 2))}" for t in r] for r in rows]
            if rng.random() < 0.6:
                row, field = int(rng.integers(len(rows))), int(rng.integers(len(names)))
                if rng.random() < 0.1:
                    rows[row] = rows[row][:field] if rng.random() < 0.5 else rows[row] + ["0"]
                else:
                    kind_tokens = bad_tokens[MANIFEST_DTYPE[names[field]].kind]
                    rows[row][field] = kind_tokens[int(rng.integers(len(kind_tokens)))]
            body = [lines[0]]
            for r in rows:
                body += [""] * int(rng.random() < 0.2) + ["  "] * int(rng.random() < 0.2) + [",".join(r)]
            ending = "\r\n" if rng.random() < 0.3 else "\n"
            text = ending.join(body) + ending
            path.write_bytes(text.encode("ascii"))
            try:
                expected = reference_manifest_parse(path, text)
            except DataError as exc:
                refused += 1
                with pytest.raises(DataError) as caught:
                    read_manifest(path)
                where, message = str(exc).split(": ", 1)
                if re.fullmatch(r"expected 16 fields, got \d+", message):
                    # the one reworded message: _bad_line's, which shows the line
                    lineno = int(where.rsplit(":", 1)[1])
                    message = f"expected '{MANIFEST_HEADER}', got {text.splitlines()[lineno - 1]!r}"
                assert str(caught.value) == f"{where}: {message}", text
                continue
            accepted += 1
            assert read_manifest(path).tobytes() == expected.tobytes(), text
        assert accepted > 150 and refused > 150

    def test_a_line_numpy_refuses_is_named_before_an_earlier_out_of_range_value(self, tmp_path):
        path = tmp_path / "manifest.csv"
        table = np.concatenate([sample_table(), sample_table()[:1]])
        write_manifest(table, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(",0.2,-2.3", ",nan,-2.3")
        lines[4] = "x" + lines[4][1:]
        path.write_text("\n".join(lines) + "\n")
        # the field-by-field parser named line 3, the first line with a bad value
        with pytest.raises(DataError, match=r"manifest\.csv:3: clustering is nan, not a finite number$"):
            reference_manifest_parse(path, path.read_text())
        with pytest.raises(DataError, match=r"manifest\.csv:5: invalid literal for int\(\) with base 10: 'x'$"):
            read_manifest(path)

    @pytest.mark.parametrize("token", ["1.5", "1.0", "1e3"])
    def test_an_id_written_as_a_float_is_named(self, tmp_path, token):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        lines = path.read_text().splitlines()
        lines[2] = token + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"manifest\.csv:3: invalid literal for int\(\) with base 10: '{re.escape(token)}'$"):
            read_manifest(path)

    def test_an_int_that_numpy_reads_through_a_float_with_a_deprecation_warning_is_named(self, tmp_path, monkeypatch):
        # numpy 1.23 to 1.x parses an int field such as 1.5 through a float, warns and returns a table
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        lines = path.read_text().splitlines()
        lines[2] = "1.5" + lines[2][1:]
        path.write_text("\n".join(lines) + "\n")

        def loadtxt(rows, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
            return np.zeros(len(rows), dtype)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        filters = list(warnings.filters)
        with pytest.raises(DataError, match=r"manifest\.csv:3: invalid literal for int\(\) with base 10: '1\.5'$"):
            read_manifest(path)
        assert warnings.filters == filters

    def test_the_first_out_of_range_line_is_named(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace(",-2.0", ",0.5")
        lines[2] = lines[2].replace(",0.2,-2.3", ",nan,-2.3")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"manifest\.csv:2: dlog 0\.5 above 0$"):
            read_manifest(path)

    def test_columns(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        table = read_manifest(path)
        assert table["id"].tolist() == [0, 1, 2]
        assert table["clustering"].tolist() == [0.1, 0.2, 0.1 * 3]
        units = np.column_stack([table[name] for name in ("u_n", "u_a", "u_b", "u_c")])
        assert units.min() >= 0.0 and units.max() <= 1.0


class TestWriteAscii:
    def test_writes_each_line_and_creates_the_directory(self, tmp_path):
        path = tmp_path / "new" / "points.csv"
        write_ascii(path, csv_lines(("name", "n", "x"), [("a", 3, 0.1), ("b", -4, -2.5e-07)]))
        assert path.read_bytes() == b"name,n,x\na,3,0.1\nb,-4,-2.5e-07\n"
        assert [p.name for p in path.parent.iterdir()] == ["points.csv"]

    @pytest.mark.parametrize(
        ("failure", "error"), [(OSError("disk full"), OSError), ("\u00f1", UnicodeEncodeError)], ids=["raise", "non-ascii"]
    )
    def test_a_failed_write_keeps_the_old_bytes_and_leaves_no_partial(self, tmp_path, failure, error):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        old = path.read_bytes()

        def lines():
            yield from map(str, range(100_000))  # more than one buffer, so the partial file holds some
            if isinstance(failure, Exception):
                raise failure
            yield failure

        with pytest.raises(error):
            write_ascii(path, lines())
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.csv"]


class TestQVectorFile:
    def test_round_trip_with_extras(self, tmp_path):
        q = np.array([1.5, 2.0, 0.5, 0.25, 3.0, 1.0, 2.5, 4.0])
        path = tmp_path / "best_q.txt"
        write_qvector(q, path, extra={"holdout_fitness": -0.5596, "generations": 17})
        back = read_qvector(path)
        assert back.dtype == np.float64 and back.tolist() == q.tolist()
        text = path.read_text()
        assert "holdout_fitness = -0.5596" in text
        assert "generations = 17" in text

    def test_comments_and_unknown_keys_ignored(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(
            "# a comment\n"
            "alpha_n = 1.0\nbeta_n = 2.0\nalpha_a = 3.0\nbeta_a = 4.0\n"
            "alpha_b = 5.0\nbeta_b = 6.0\nalpha_c = 7.0\nbeta_c = 8.0\n"
            "mystery = 42\n\n"
        )
        q = read_qvector(path)
        assert q.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]

    def test_missing_keys(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("alpha_n = 1.0\nbeta_n = 2.0\n")
        with pytest.raises(DataError, match="missing keys: alpha_a"):
            read_qvector(path)

    def test_bad_lines(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("alpha_n 1.0\n")
        with pytest.raises(DataError, match="expected 'key = value'"):
            read_qvector(path)
        path.write_text("alpha_n = one\n")
        with pytest.raises(DataError, match=r"q\.txt:1"):
            read_qvector(path)

    def test_invalid_spec_values(self, tmp_path):
        path = tmp_path / "q.txt"
        lines = [
            "alpha_n = 0.0", "beta_n = 2.0", "alpha_a = 3.0", "beta_a = 4.0",
            "alpha_b = 5.0", "beta_b = 6.0", "alpha_c = 7.0", "beta_c = 8.0",
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"q\.txt: expected 8 Beta shapes in \(0, 100\], got alpha_n = 0\.0$"):
            read_qvector(path)
        path.write_text("\n".join(lines[1:-1] + ["alpha_n = 1.0", "beta_c = 101.5"]) + "\n")
        with pytest.raises(DataError, match=r"q\.txt: expected 8 Beta shapes in \(0, 100\], got beta_c = 101\.5$"):
            read_qvector(path)

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("alpha_n = 2.0\nbeta_n = 2.0\n# alpha_n again\nalpha_n = 50.0\n")
        with pytest.raises(DataError, match=r"q\.txt:4: key 'alpha_n' repeats line 1$"):
            read_qvector(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_qvector(tmp_path / "absent.txt")


class TestCorrelation:
    @staticmethod
    def corr(points):
        clustering, dlog = np.array(points, dtype=np.float64).reshape(-1, 2).T
        return correlation(clustering, dlog)

    def test_perfect_positive_correlation(self):
        assert self.corr([(0.1, -5.0), (0.2, -4.0), (0.3, -3.0)]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative_correlation(self):
        assert self.corr([(0.1, -1.0), (0.5, -3.0), (0.9, -5.0)]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_correlation(self):
        assert self.corr([(0.0, -1.0), (1.0, -1.0), (0.0, -2.0), (1.0, -2.0)]) == pytest.approx(0.0, abs=1e-12)

    def test_constant_coordinate_has_no_correlation(self):
        assert self.corr([(0.5, -1.0), (0.5, -2.0)]) is None
        assert self.corr([(0.2, -3.0), (0.7, -3.0)]) is None

    def test_fewer_than_two_points_have_no_correlation(self):
        assert self.corr([(0.4, -2.5)]) is None
        assert self.corr([]) is None

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(9)
        clustering, dlog = rng.random(50), rng.uniform(-6, 0, 50)
        expected = float(np.corrcoef(clustering, dlog)[0, 1])
        assert correlation(clustering, dlog) == pytest.approx(expected, abs=1e-12)

    def test_reads_manifest_columns(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_table(), path)
        table = read_manifest(path)
        assert correlation(table["clustering"], table["dlog"]) == pytest.approx(-1.0, abs=1e-12)
