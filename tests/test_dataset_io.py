"""Edge lists, MatrixMarket input, manifests, q vector files, and stats."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.io

from graphbargain.dataset import (
    MANIFEST_HEADER,
    ManifestRow,
    compute_stats,
    emit_scatter_csv,
    int_table,
    read_edge_list,
    read_manifest,
    read_matrix_market,
    read_qvector,
    write_edge_list,
    write_manifest,
    write_qvector,
)
from graphbargain.errors import DataError
from graphbargain.graph import Graph, MetricPoint, largest_connected_component, metric_projection
from graphbargain.rmat import RmatParams


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


def small_graph() -> Graph:
    return Graph.from_edge_list(np.array([[0, 1], [1, 2], [0, 2], [2, 3]]))


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
        g = Graph.from_edge_list(np.column_stack([u, v]))
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
            g = Graph.from_edge_list(sorted(edges), node_count=n)
            path = tmp_path / f"g{n}.txt"
            write_edge_list(g, path)
            assert path.read_bytes() == b"".join(b"%d %d\n" % (a, b) for a, b in g.edge_array().tolist())

    @pytest.mark.parametrize("edges,n,text", [([(0, 1)], 2, b"0 1\n"), ([(7, 123456)], None, b"7 123456\n"), ([], 3, b"")])
    def test_written_format_of_one_edge_and_none(self, tmp_path, edges, n, text):
        path = tmp_path / "g.txt"
        write_edge_list(Graph.from_edge_list(edges, node_count=n), path)
        assert path.read_bytes() == text

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n\n  \n1 2\n")
        g = read_edge_list(path)
        assert g.edge_count == 2

    def test_duplicate_edges_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 0\n")
        with pytest.raises(DataError, match="duplicate"):
            read_edge_list(path)

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
        # random files of integer-like tokens and separators, including the
        # line breaks \r, \v, \f and \x1c that str.splitlines() also splits at
        rng = np.random.default_rng(8)
        tokens = ["0", "1", "2", "12", "+3", "1_0", "-2", "x", "007"]
        seps = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\n\n", " \n"]
        path = tmp_path / "g.txt"
        accepted = read = 0
        for _ in range(400):
            words = rng.choice(tokens, size=int(rng.integers(0, 7)), p=[0.2, 0.2, 0.2, 0.2, 0.05, 0.05, 0.04, 0.03, 0.03])
            body = "".join(w + str(rng.choice(seps)) for w in words).encode("ascii")
            path.write_bytes(body)
            try:
                expected = reference_line_parse(path, body)
            except DataError as exc:
                # a bad line: the same message, line number included
                with pytest.raises(DataError) as caught:
                    read_edge_list(path)
                assert str(caught.value) == str(exc), body
                continue
            pairs = int_table(body, 2)
            if b"\x1c" in body:
                assert pairs is None, body
                with pytest.raises(DataError):
                    read_edge_list(path)
                continue
            accepted += 1
            assert pairs.tolist() == expected.tolist(), body
            try:
                g = read_edge_list(path)
            except DataError:
                continue  # no edges, a self-loop or a duplicate edge
            read += 1
            assert g == Graph.from_edge_list(expected), body
        assert accepted > 40
        assert read > 5

    def test_control_byte_separators_rejected_without_a_line(self, tmp_path):
        # str.splitlines() breaks at \x1c-\x1e and str.split() separates at
        # \x1c-\x1f, but bytes.split() does neither; the line loop finds every
        # line good, so the error names the file alone
        path = tmp_path / "g.txt"
        for body in (b"0 1\x1c1 2\n", b"0 1\x1d1 2\n", b"0 1\x1e1 2\n", b"0 1\n1\x1f2\n", b"0\x1f1\x1c1 2"):
            path.write_bytes(body)
            assert len(reference_line_parse(path, body)) == 2
            with pytest.raises(DataError, match=r"g\.txt: expected 'u v' lines separated by ASCII whitespace$"):
                read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no edges"):
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
            g = Graph.from_edge_list(np.array([possible[i] for i in take]))
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
        with pytest.raises(DataError, match="not a MatrixMarket file"):
            read_matrix_market(self._write(tmp_path, "0 1\n1 2\n"))
        with pytest.raises(DataError, match="need a coordinate matrix"):
            read_matrix_market(
                self._write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\n3.0\n")
            )
        with pytest.raises(DataError, match="unknown field type"):
            read_matrix_market(
                self._write(tmp_path, "%%MatrixMarket matrix coordinate bogus general\n1 1 1\n1 1 1\n")
            )
        with pytest.raises(DataError, match="unknown symmetry"):
            read_matrix_market(
                self._write(tmp_path, "%%MatrixMarket matrix coordinate real bogus\n1 1 1\n1 1 1\n")
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
        with pytest.raises(DataError, match="cannot read"):
            read_matrix_market(tmp_path / "absent.mtx")


@pytest.mark.parametrize(
    "name,small,large",
    [
        ("g.txt", "1 0\n", "10000000 1\n"),
        ("g.mtx", "2 2 1\n2 1\n", "10000000 10000000 1\n10000000 1\n"),
    ],
    ids=["edge-list", "matrix-market"],
)
def test_reader_memory_follows_the_edges_not_the_largest_id(tmp_path, name, small, large):
    # validate's path: an edge list and its largest component, or a MatrixMarket file
    def read(body: str) -> Graph:
        header = "%%MatrixMarket matrix coordinate pattern general\n" if name.endswith(".mtx") else ""
        path = tmp_path / name
        path.write_text(header + body, encoding="ascii")
        if name.endswith(".mtx"):
            return read_matrix_market(path)
        return largest_connected_component(read_edge_list(path))

    expected = read(small)  # also loads what the readers import
    assert expected == Graph.from_edge_list([(0, 1)])
    tracemalloc.start()
    try:
        g = read(large)
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib < 4.0
    assert g == expected
    assert metric_projection(g) == metric_projection(expected)


def sample_rows() -> list[ManifestRow]:
    rows = []
    for k, (a, b, c) in enumerate([(0.5, 0.25, 0.15), (0.7, 0.2, 0.06), (0.25, 0.25, 0.25)]):
        params = RmatParams(n_param=140 + k, e_param=150, a=a, b=b, c=c, d=round(1.0 - a - b - c, 10))
        rows.append(
            ManifestRow.build(
                id=k,
                seed=1000 + k,
                params=params,
                n_final=180 - k,
                e_final=140 + k,
                metric=MetricPoint(0.1 * (k + 1), -2.0 - 0.3 * k),
            )
        )
    return rows


class TestManifest:
    def test_round_trip_exact(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "manifest.csv"
        write_manifest(rows, path)
        assert read_manifest(path) == rows

    def test_rewrites_are_byte_identical(self, tmp_path):
        rows = sample_rows()
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        write_manifest(rows, p1)
        write_manifest(read_manifest(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_line(self, tmp_path):
        path = tmp_path / "manifest.csv"
        write_manifest(sample_rows(), path)
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
        with pytest.raises(DataError, match="expected 16 fields, got 3"):
            read_manifest(path)
        good = path.read_text()
        write_manifest(sample_rows(), path)
        broken = path.read_text().replace("0.5", "zero.five", 1)
        path.write_text(broken)
        with pytest.raises(DataError, match=r"manifest\.csv:2"):
            read_manifest(path)
        with pytest.raises(DataError, match="cannot read"):
            read_manifest(tmp_path / "absent.csv")

    def test_blank_lines_skipped(self, tmp_path):
        rows = sample_rows()
        path = tmp_path / "manifest.csv"
        write_manifest(rows, path)
        padded = tmp_path / "padded.csv"
        lines = path.read_text().splitlines()
        padded.write_text("\n".join([lines[0], "", lines[1], "  ", *lines[2:]]) + "\n")
        assert read_manifest(padded) == rows

    def test_row_accessors(self):
        row = sample_rows()[0]
        assert row.metric == MetricPoint(0.1, -2.0)
        u = (row.u_n, row.u_a, row.u_b, row.u_c)
        assert 0.0 <= min(u)
        assert max(u) <= 1.0


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
        path.write_text("\n".join(lines[1:] + ["alpha_n = 1.0", "beta_c = 101.5"]) + "\n")
        with pytest.raises(DataError, match=r"q\.txt: expected 8 Beta shapes in \(0, 100\], got beta_c = 101\.5$"):
            read_qvector(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_qvector(tmp_path / "absent.txt")


class TestStats:
    def test_perfect_positive_correlation(self):
        points = [MetricPoint(0.1, -5.0), MetricPoint(0.2, -4.0), MetricPoint(0.3, -3.0)]
        stats = compute_stats(points)
        assert stats.correlation == pytest.approx(1.0, abs=1e-12)
        assert stats.count == 3
        assert stats.mean_clustering == pytest.approx(0.2, abs=1e-12)
        assert stats.mean_dlog == pytest.approx(-4.0, abs=1e-12)
        assert stats.max_clustering == pytest.approx(0.3, abs=1e-12)

    def test_perfect_negative_correlation(self):
        points = [MetricPoint(0.1, -1.0), MetricPoint(0.5, -3.0), MetricPoint(0.9, -5.0)]
        assert compute_stats(points).correlation == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_correlation(self):
        points = [MetricPoint(0.0, -1.0), MetricPoint(1.0, -1.0), MetricPoint(0.0, -2.0), MetricPoint(1.0, -2.0)]
        assert compute_stats(points).correlation == pytest.approx(0.0, abs=1e-12)

    def test_constant_coordinate_has_no_correlation(self):
        points = [MetricPoint(0.5, -1.0), MetricPoint(0.5, -2.0)]
        assert compute_stats(points).correlation is None
        points = [MetricPoint(0.2, -3.0), MetricPoint(0.7, -3.0)]
        assert compute_stats(points).correlation is None

    def test_single_point_has_no_correlation(self):
        stats = compute_stats([MetricPoint(0.4, -2.5)])
        assert stats.count == 1
        assert stats.correlation is None

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="no points"):
            compute_stats([])

    def test_matches_numpy_corrcoef(self):
        rng = np.random.default_rng(9)
        points = [MetricPoint(float(rng.random()), float(rng.uniform(-6, 0))) for _ in range(50)]
        stats = compute_stats(points)
        arr = np.array([[p.clustering, p.dlog] for p in points])
        expected = float(np.corrcoef(arr[:, 0], arr[:, 1])[0, 1])
        assert stats.correlation == pytest.approx(expected, abs=1e-12)


class TestScatterCsv:
    def test_contents(self, tmp_path):
        path = tmp_path / "scatter.csv"
        emit_scatter_csv([MetricPoint(0.25, -3.5), MetricPoint(0.75, -1.25)], path)
        assert path.read_text() == "clustering,dlog\n0.25,-3.5\n0.75,-1.25\n"
