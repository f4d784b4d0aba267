"""Command-line surface: run settings, the five subcommands, reruns."""

from __future__ import annotations

import dataclasses
import errno
import json
import logging
import math
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import graphbargain.cli
from graphbargain.cli import (
    RunConfig,
    Workspace,
    build_config,
    cmd_baseline,
    cmd_generate,
    cmd_optimize,
    cmd_report,
    cmd_validate,
    main,
    _make_parser,
)
from graphbargain.dataset import (
    MANIFEST_HEADER,
    read_edge_list,
    read_manifest,
    read_qvector,
    write_edge_list,
    write_qvector,
)
from graphbargain.errors import ConfigError
from graphbargain.graph import MAX_KEYED_NODES, Graph, metric_projection
from graphbargain.grids import load_conditional, metric_cells, param_cells
from graphbargain.optimizer import optimize
from graphbargain.params import sample_baseline
from graphbargain.rmat import (
    DegenerateParametersError,
    RmatParams,
    VanishedGraphError,
    generate_graph,
    generate_raw_edges,
    sanitize,
)

TINY_FLAGS = [
    "--n", "10", "--e-min", "30", "--e-max", "90", "--max-gen", "4", "--seed", "5",
]


def tiny_config(out) -> RunConfig:
    return RunConfig(n=10, e_min=30, e_max=90, max_gen=4, seed=5, out=str(out))


def write_matrix_market_copy(g: Graph, path) -> None:
    lines = [
        "%%MatrixMarket matrix coordinate pattern symmetric",
        f"{g.node_count} {g.node_count} {g.edge_count}",
    ]
    for u, v in g.edge_array().tolist():
        lines.append(f"{v + 1} {u + 1}")
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


def check_manifest_against_graphs(manifest_path, graphs_dir):
    table = read_manifest(manifest_path)
    for row in table:
        g = read_edge_list(graphs_dir / f"g{row['id']:06d}.txt")
        assert g.node_count == row["n_final"]
        assert g.edge_count == row["e_final"]
        assert metric_projection(g) == [(row["clustering"], row["dlog"])]
    return table


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "run"
    for command in ("baseline", "optimize", "generate"):
        assert main([command, *TINY_FLAGS, "--out", str(out)]) == 0
    return SimpleNamespace(out=out, ws=Workspace(out), config=tiny_config(out))


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.n == 10000
        assert config.e_min == 100_000
        assert config.e_max == 1_000_000
        assert config.max_gen == 50
        assert (config.seed, config.jobs) == (0, 1)
        assert config.out == "out"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 0}, "n must be"),
            ({"e_min": 18}, "^e_min must be at least 19; smaller edge targets leave no feasible node count$"),
            ({"e_min": 100, "e_max": 100}, "^e_max must exceed e_min$"),
            ({"e_max": MAX_KEYED_NODES}, "^e_max must be below 3037000499, where a draw's e_max \\+ 1 nodes fit the int64 edge keys$"),
            ({"seed": -1}, "seed"),
            ({"jobs": 0}, "jobs"),
            ({"max_gen": 0}, "^max_gen must be at least 1$"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kwargs)

    def test_the_largest_edge_target_is_accepted(self):
        assert RunConfig(e_max=MAX_KEYED_NODES - 1).e_max == 3037000498

    def test_grids(self):
        # no field sets a grid: every run counts cells on the 10 x 10 metric grid and the 20^4 parameter grid
        assert not {"metric_bins", "param_bins"} & {f.name for f in dataclasses.fields(RunConfig)}
        assert metric_cells([1.0], [0.0]).tolist() == [10**2 - 1]
        assert param_cells([[1.0, 1.0, 1.0, 1.0]]).tolist() == [20**4 - 1]


class TestBuildConfig:
    def _args(self, argv):
        return _make_parser().parse_args(argv)

    def test_defaults_without_sources(self):
        config = build_config(self._args(["report"]))
        assert config == RunConfig()

    def test_the_seed_variable_of_the_environment_is_not_read(self, monkeypatch):
        monkeypatch.setenv("GRAPHBARGAIN_SEED", "5")
        assert build_config(self._args(["report"])).seed == 0

    def test_every_field_has_a_flag(self):
        # a valid value unlike the default for every field, so a field that
        # build_config drops shows up as a default
        values = {
            "n": 7, "e_min": 40, "e_max": 80, "max_gen": 6, "seed": 11, "jobs": 2, "out": "elsewhere",
        }
        defaults = RunConfig()
        assert list(values) == [f.name for f in dataclasses.fields(RunConfig)]
        assert all(values[name] != getattr(defaults, name) for name in values)
        expected = RunConfig(**values)

        argv = ["report"]
        for name, value in values.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert build_config(self._args(argv)) == expected

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RunConfig)])
    def test_a_flag_alone_sets_its_field_and_the_rest_keep_their_defaults(self, field):
        defaults = RunConfig()
        value = "elsewhere" if field == "out" else getattr(defaults, field) + 1
        argv = ["report", f"--{field.replace('_', '-')}", str(value)]
        assert build_config(self._args(argv)) == dataclasses.replace(defaults, **{field: value})

    def test_each_flag_takes_the_type_of_its_default(self, capsys):
        for f in dataclasses.fields(RunConfig):
            flag = f"--{f.name.replace('_', '-')}"
            if type(f.default) is int:
                with pytest.raises(SystemExit) as stop:
                    self._args(["report", flag, "1.5"])
                assert stop.value.code == 2
                assert f"argument {flag}: invalid int value: '1.5'" in capsys.readouterr().err
            else:
                assert getattr(self._args(["report", flag, "15"]), f.name) == "15"

    def test_help_shows_each_field_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["report", "--help"])
        options = " ".join(capsys.readouterr().out.split()).split("run configuration:")[1]
        described = {part.split()[0]: part for part in options.split(" --")[1:]}
        for f in dataclasses.fields(RunConfig):
            assert described[f.name.replace("_", "-")].endswith(f"(default {f.default})")


class TestMainExitCodes:
    def test_bad_config_is_2(self, tmp_path, capsys):
        assert main(["baseline", "--n", "0", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: n must be")

    def test_an_edge_target_beyond_the_int64_keys_is_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["baseline", "--n", "2", "--e-min", "19", "--e-max", str(2**63), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: e_max must be below 3037000499, ")
        assert not out.exists()

    def test_a_repeated_q_vector_key_is_3(self, tmp_path, capsys):
        ws = Workspace(tmp_path)
        write_qvector(np.full(8, 2.0), ws.best_q, {})
        with ws.best_q.open("a", encoding="ascii") as fh:
            fh.write("alpha_n = 50.0\n")
        assert main(["generate", *TINY_FLAGS, "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.endswith(f"error: {ws.best_q}:9: key 'alpha_n' repeats line 1\n")
        assert not ws.result_dir.exists()

    @pytest.mark.parametrize(
        "setting",
        [
            ["--pop", "6"], ["--tol", "0.01"], ["--holdout", "0.3"], ["--config", "run.cfg"],
            ["--metric-bins", "12"], ["--param-bins", "40"],
        ],
    )
    def test_a_removed_search_flag_is_2(self, tmp_path, capsys, setting):
        # the search's population and tolerance, the holdout share and the grids are constants of the package,
        # and a run takes its settings from flags alone
        with pytest.raises(SystemExit) as stop:
            main(["optimize", *setting, "--out", str(tmp_path)])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {' '.join(setting)}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["baseline", "optimize", "generate", "validate", "report"])
    def test_a_config_file_flag_is_2_for_every_command(self, tmp_path, capsys, command):
        # no command reads settings from a file; validate takes the file name as a graph and still stops
        path = tmp_path / "run.cfg"
        path.write_text("n = 5\n", encoding="ascii")
        with pytest.raises(SystemExit) as stop:
            main([command, "--config", str(path), "--out", str(tmp_path / "run")])
        assert stop.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("flag", ["--metric-bins", "--param-bins"])
    @pytest.mark.parametrize("command", ["baseline", "optimize", "generate", "validate", "report"])
    def test_a_grid_flag_is_2_for_every_command(self, tmp_path, capsys, command, flag):
        # the grids are constants of graphbargain.grids; even the default value is refused, before any output.
        # validate takes the value as a graph file name and still stops
        with pytest.raises(SystemExit) as stop:
            main([command, *TINY_FLAGS, flag, "10", "--out", str(tmp_path / "run")])
        assert stop.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_missing_inputs_are_3(self, tmp_path, capsys):
        out = str(tmp_path / "empty")
        assert main(["optimize", "--out", out]) == 3
        assert "run baseline first" in capsys.readouterr().err
        assert main(["generate", "--out", out]) == 3
        assert "run optimize first" in capsys.readouterr().err
        assert main(["validate", "--out", out]) == 3
        assert "run generate first" in capsys.readouterr().err
        assert main(["report", "--out", out]) == 3
        assert "no manifests" in capsys.readouterr().err
        # no command leaves an output directory behind on a missing input
        assert not (tmp_path / "empty").exists()

    def test_unwritable_output_is_6(self, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="ascii")
        assert main(["baseline", "--n", "3", "--e-min", "100", "--e-max", "200", "--out", str(afile)]) == 6
        err = capsys.readouterr().err
        assert f"error: [Errno 20] Not a directory: '{afile / 'baseline' / 'graphs'}'" in err.splitlines()
        assert "Traceback" not in err


@pytest.mark.parametrize(
    ("command", "name", "code"),
    [
        ("generate", "best_q", 3),
        ("optimize", "baseline_model", 3),
        ("report", "result_manifest", 3),
    ],
)
def test_non_ascii_input_is_reported_by_path(tmp_path, capsys, command, name, code):
    path = getattr(Workspace(tmp_path), name)
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"n = 5\xff\n")
    assert main([command, "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(f"error: {path}: not ASCII text: ")


def write_model(path, body, total, metric_grid="10 10 -6.0 0.0", param_bins=20) -> None:
    header = [
        "graphbargain-model v1", f"metric_grid {metric_grid}", f"param_grid {param_bins}",
        f"total {total}", f"pairs {len(body)}",
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(header + body) + "\n", encoding="ascii")


@pytest.mark.parametrize(
    ("total", "body", "message"),
    [
        ("1", ["99999999999999999999 3 1"], "model.txt:6: cell 99999999999999999999 beyond int64"),
        ("1", ["5 99999999999999999999 1"], "model.txt:6: metric 99999999999999999999 beyond int64"),
        ("1", ["5 3 99999999999999999999"], "model.txt:6: count 99999999999999999999 beyond int64"),
        (
            "10000000000000000000",
            ["5 3 5000000000000000000", "6 3 5000000000000000000"],
            "inconsistent model: total count 10000000000000000000 above 2**53",
        ),
    ],
)
def test_oversized_model_numbers_are_3(tmp_path, capsys, total, body, message):
    ws = Workspace(tmp_path)
    write_model(ws.baseline_model, body, total)
    assert main(["optimize", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ws.baseline_model}") and message in err


@pytest.mark.parametrize(
    ("model", "message"),
    [
        # a model too small to split
        ((["5 3 6"], 6, "10 10 -6.0 0.0", 20), "cannot split 6 records: need at least 10 records"),
        # no command writes a metric grid other than the square one over dlog [-6, 0]
        ((["5 3 12"], 12, "10 8 -6.0 0.0", 20), "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 8 -6.0 0.0'"),
        ((["5 3 12"], 12, "10 10 -7.0 0.0", 20), "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 10 -7.0 0.0'"),
        ((["5 3 12"], 12, "10 10 -6.0 -1.0", 20), "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 10 -6.0 -1.0'"),
    ],
    ids=["too-few-records", "non-square-header", "dlog-min-header", "dlog-max-header"],
)
def test_unusable_grids_and_splits_exit_without_a_traceback(tmp_path, capsys, model, message):
    ws = Workspace(tmp_path)
    write_model(ws.baseline_model, *model)
    assert main(["optimize", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ws.baseline_model}:") and message in err
    assert "Traceback" not in err


def test_the_smallest_model_split_optimizes(tmp_path):
    # 10 records split 8 and 2 at the constant holdout share, so optimize needs no check of an empty side
    ws = Workspace(tmp_path)
    write_model(ws.baseline_model, ["5 3 8", "6 4 2"], 10)
    assert main(["optimize", "--max-gen", "2", "--out", str(tmp_path)]) == 0
    assert ws.best_q.exists()


@pytest.mark.parametrize(
    ("metric_bins", "param_bins", "lineno"),
    [
        (12, 20, 2), (1, 20, 2), (0, 20, 2), (3037000500, 20, 2), (10**30, 20, 2),
        (10, 40, 3), (10, 0, 3), (10, 55109, 3), (10, 10**30, 3),
    ],
)
def test_optimize_refuses_a_model_at_another_grid(tmp_path, capsys, metric_bins, param_bins, lineno):
    ws = Workspace(tmp_path)
    write_model(ws.baseline_model, ["5 3 12"], 12, f"{metric_bins} {metric_bins} -6.0 0.0", param_bins)
    assert main(["optimize", "--out", str(tmp_path)]) == 3
    want = ["metric_grid 10 10 -6.0 0.0", "param_grid 20"][lineno - 2]
    got = ws.baseline_model.read_text(encoding="ascii").splitlines()[lineno - 1]
    assert capsys.readouterr().err.endswith(f"error: {ws.baseline_model}:{lineno}: expected {want!r}, got {got!r}\n")
    assert not ws.optimize_dir.exists()


@pytest.mark.parametrize("n", [2**58, 2**63])
def test_a_dataset_size_beyond_the_address_space_exits_7(tmp_path, capsys, n):
    """numpy refuses a manifest of 2^56 rows or more before it allocates; sizes from 2^30 up to that are real allocations."""
    out = tmp_path / "run"
    assert main(["baseline", *TINY_FLAGS, "--n", str(n), "--out", str(out)]) == 7
    assert capsys.readouterr().err.startswith(f"error: baseline: a manifest of {n} rows: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["report", "validate"])
@pytest.mark.parametrize(
    ("field", "token"),
    [
        ("clustering", "nan"),
        ("clustering", "inf"),
        ("clustering", "1.5"),
        ("dlog", "nan"),
        ("dlog", "inf"),
        ("dlog", "-inf"),
        ("dlog", "0.5"),
        # a table cannot hold these, so the bad line is written as text
        ("id", "9223372036854775808"),
        ("seed", "-9223372036854775809"),
    ],
)
def test_malformed_manifest_is_3(tmp_path, capsys, command, field, token):
    ws = Workspace(tmp_path)
    ws.result_dir.mkdir()
    good = "0,1000,140,150,0.5,0.25,0.15,0.1,0.5,0.5,0.5,0.5,138,140,0.1,-2.0"
    bad = good.split(",")
    bad[MANIFEST_HEADER.split(",").index(field)] = token
    ws.result_manifest.write_text("\n".join([MANIFEST_HEADER, good, ",".join(bad)]) + "\n", encoding="ascii")
    assert main([command, "--out", str(tmp_path)]) == 3
    assert f"manifest.csv:3: {field} " in capsys.readouterr().err
    # the manifest is read before the command makes its output directory
    assert [p.name for p in tmp_path.iterdir()] == ["result"]


# The end of the message that names a number table's file and no line.
GROUPED_OR_CONTROL = "without digits grouped by underscores or bytes \\x1c-\\x1f"


def test_digits_grouped_by_underscores_in_a_manifest_are_3(tmp_path, capsys):
    # int() and float() accept 1_0, numpy's parser does not; no line is at fault, so the error names the file
    ws = Workspace(tmp_path)
    ws.result_dir.mkdir()
    row = "1_0,1000,140,150,0.5,0.25,0.15,0.1,0.5,0.5,0.5,0.5,138,140,0.1,-2.0"
    ws.result_manifest.write_text(f"{MANIFEST_HEADER}\n{row}\n", encoding="ascii")
    assert main(["report", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"error: {ws.result_manifest}: expected '{MANIFEST_HEADER}' lines {GROUPED_OR_CONTROL}\n" in err
    assert [p.name for p in tmp_path.iterdir()] == ["result"]


def test_digits_grouped_by_underscores_in_a_model_body_are_3(tmp_path, capsys):
    # int() reads 1_0 as 10 and numpy's parser refuses it; no line is at fault, so the error names the file
    ws = Workspace(tmp_path)
    write_model(ws.baseline_model, ["5 3 1_0"], 10)
    assert main(["optimize", "--out", str(tmp_path)]) == 3
    assert f"error: {ws.baseline_model}: expected 'cell metric count' lines {GROUPED_OR_CONTROL}\n" in capsys.readouterr().err


class TestPipeline:
    def test_baseline_outputs(self, pipeline):
        ws = pipeline.ws
        files = sorted(p.name for p in ws.baseline_graphs.iterdir())
        assert files == [f"g{k:06d}.txt" for k in range(10)]
        table = check_manifest_against_graphs(ws.baseline_manifest, ws.baseline_graphs)
        assert table["id"].tolist() == list(range(10))
        assert np.all((30 <= table["e_param"]) & (table["e_param"] <= 90))
        model = load_conditional(ws.baseline_model)
        assert model.total == 10
        assert ws.baseline_model.read_text().splitlines()[1:3] == ["metric_grid 10 10 -6.0 0.0", "param_grid 20"]

    def test_optimize_outputs(self, pipeline):
        ws = pipeline.ws
        q = read_qvector(ws.best_q)
        assert q.shape == (8,)
        assert np.all((1e-3 <= q) & (q <= 100.0))
        text = ws.best_q.read_text()
        for key in ("holdout_fitness", "coverage", "generations", "seed = 5"):
            assert key in text
        trace_lines = ws.trace.read_text().splitlines()
        assert trace_lines[0] == "generation,best_train,best_holdout,coverage"
        generations = int(text.split("generations = ")[1].splitlines()[0])
        assert len(trace_lines) == generations + 2

    def test_best_q_and_trace_files_follow_the_returned_trace(self, pipeline, tmp_path, monkeypatch):
        returned = []

        def recording(train, hold, **settings):
            returned.append(optimize(train, hold, **settings))
            return returned[-1]

        monkeypatch.setattr(graphbargain.cli, "optimize", recording)
        ws = Workspace(tmp_path)
        cmd_optimize(dataclasses.replace(pipeline.config, out=str(tmp_path)), pipeline.ws.baseline_model)
        [(best_q, trace)] = returned
        rows = [",".join(map(repr, row)) for row in trace.tolist()]
        assert ws.trace.read_text(encoding="ascii").splitlines() == ["generation,best_train,best_holdout,coverage", *rows]
        meta = dict(line.split(" = ") for line in ws.best_q.read_text(encoding="ascii").splitlines())
        generations, _, holdout_fitness, coverage = trace[-1].tolist()
        assert (meta["holdout_fitness"], meta["coverage"]) == (repr(holdout_fitness), repr(coverage))
        assert meta["generations"] == str(generations) == str(len(trace) - 1)
        assert float(meta["holdout_fitness"]) == trace["best_holdout"][-1]
        assert read_qvector(ws.best_q).tolist() == best_q.tolist()
        assert ws.best_q.read_bytes() == pipeline.ws.best_q.read_bytes()
        assert ws.trace.read_bytes() == pipeline.ws.trace.read_bytes()

    def test_generate_outputs(self, pipeline):
        ws = pipeline.ws
        table = check_manifest_against_graphs(ws.result_manifest, ws.result_graphs)
        assert len(table) == 10

    def test_generate_count_and_q_path(self, pipeline, tmp_path):
        out2 = tmp_path / "other"
        config2 = tiny_config(out2)
        manifest = cmd_generate(dataclasses.replace(config2, n=3), q_path=pipeline.ws.best_q)
        assert len(read_manifest(manifest)) == 3
        ws2 = Workspace(out2)
        assert sorted(p.name for p in ws2.result_graphs.iterdir()) == [f"g{k:06d}.txt" for k in range(3)]

    def test_optimize_is_given_the_search_settings(self, pipeline, tmp_path, monkeypatch):
        settings = {}

        def recording(train, hold, **kwargs):
            settings.update(kwargs)
            return optimize(train, hold, **kwargs)

        monkeypatch.setattr(graphbargain.cli, "optimize", recording)
        ws = Workspace(tmp_path)
        ws.baseline_dir.mkdir()
        shutil.copyfile(pipeline.ws.baseline_model, ws.baseline_model)
        assert main(["optimize", *TINY_FLAGS, "--out", str(tmp_path)]) == 0
        assert settings == {"max_gen": 4, "seed": 5}
        assert ws.best_q.read_bytes() == pipeline.ws.best_q.read_bytes()

    def test_validate_with_matching_graphs(self, pipeline, tmp_path, capsys):
        ws = pipeline.ws
        g = read_edge_list(ws.result_graphs / "g000000.txt")
        mtx = tmp_path / "copy.mtx"
        write_matrix_market_copy(g, mtx)
        coverage = cmd_validate(pipeline.config, [str(ws.result_graphs / "g000000.txt"), str(mtx)])
        out = capsys.readouterr().out
        assert coverage == 1.0
        assert "coverage: 2/2 = 1.000" in out
        assert "g000000.txt: N=" in out
        metrics_lines = ws.validation_csv.read_text().splitlines()
        assert metrics_lines[0] == "name,n,e,clustering,dlog"
        assert len(metrics_lines) == 3

    def test_validate_measures_edge_lists_and_matrix_market_alike(self, pipeline, tmp_path, capsys):
        # components {0, 5, 9} and {2, 3}, and unused ids: the same cleaning for both formats
        txt = tmp_path / "two.txt"
        txt.write_text("0 5\n5 9\n2 3\n")
        mtx = tmp_path / "two.mtx"
        write_matrix_market_copy(read_edge_list(txt), mtx)
        cmd_validate(pipeline.config, [str(txt), str(mtx)])
        capsys.readouterr()
        rows = [line.split(",") for line in pipeline.ws.validation_csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["two.txt", "two.mtx"]
        assert rows[0][1:] == rows[1][1:]
        assert rows[0][1:3] == ["3", "2"]

    def test_validate_cleans_both_orientations_repeats_and_self_loops_alike_in_both_formats(
        self, pipeline, tmp_path, capsys
    ):
        # one graph, each edge listed in both orientations; the edge list adds a self-loop and a repeated line
        edges = [(0, 1), (1, 2), (0, 2), (2, 3)]
        mtx = tmp_path / "both.mtx"
        entries = "".join(f"{u + 1} {v + 1}\n{v + 1} {u + 1}\n" for u, v in edges)
        mtx.write_text(f"%%MatrixMarket matrix coordinate pattern general\n4 4 8\n{entries}", encoding="ascii")
        txt = tmp_path / "both.txt"
        txt.write_text("".join(f"{u} {v}\n{v} {u}\n" for u, v in edges) + "3 3\n0 1\n", encoding="ascii")
        cmd_validate(pipeline.config, [str(mtx), str(txt)])
        capsys.readouterr()
        rows = [line.split(",") for line in pipeline.ws.validation_csv.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["both.mtx", "both.txt"]
        assert rows[0][1:] == rows[1][1:]
        assert rows[0][1:3] == ["4", "4"]

    def test_validate_without_files(self, pipeline, capsys):
        assert cmd_validate(pipeline.config, []) is None
        assert "coverage: n/a (no validation graphs)" in capsys.readouterr().out

    def test_validate_skips_unreadable_files(self, pipeline, tmp_path, caplog, capsys):
        missing = tmp_path / "absent.mtx"
        with caplog.at_level(logging.ERROR, logger="graphbargain.cli"):
            assert cmd_validate(pipeline.config, [str(missing)]) is None
        assert any("skipping" in r.getMessage() for r in caplog.records)
        capsys.readouterr()

    def test_validate_skips_a_bad_matrix_market_file_and_measures_the_rest(self, pipeline, tmp_path, caplog, capsys):
        bad = tmp_path / "claims.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 1000000000000000\n1 2\n")
        good = pipeline.ws.result_graphs / "g000001.txt"
        with caplog.at_level(logging.ERROR, logger="graphbargain.cli"):
            assert main(["validate", *TINY_FLAGS, "--out", str(pipeline.out), str(bad), str(good)]) == 0
        assert [r.getMessage().startswith(f"validate: skipping {bad}: ") for r in caplog.records] == [True]
        assert "coverage: 1/1 = 1.000" in capsys.readouterr().out
        lines = pipeline.ws.validation_csv.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["g000001.txt"]

    def test_validate_skips_an_edge_list_with_digits_grouped_by_underscores(self, pipeline, tmp_path, caplog, capsys):
        grouped = tmp_path / "grouped.txt"
        grouped.write_text("0 1\n1_0 2\n", encoding="ascii")
        good = pipeline.ws.result_graphs / "g000001.txt"
        with caplog.at_level(logging.ERROR, logger="graphbargain.cli"):
            assert main(["validate", *TINY_FLAGS, "--out", str(pipeline.out), str(grouped), str(good)]) == 0
        message = f"validate: skipping {grouped}: {grouped}: expected 'u v' lines {GROUPED_OR_CONTROL}"
        assert [r.getMessage() for r in caplog.records] == [message]
        assert "coverage: 1/1 = 1.000" in capsys.readouterr().out
        lines = pipeline.ws.validation_csv.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["g000001.txt"]

    @pytest.mark.parametrize("name", ["grafo_\u00f1.txt", "a,b.txt"], ids=["non-ascii", "comma"])
    def test_validate_skips_a_file_name_metrics_csv_cannot_hold(self, pipeline, tmp_path, caplog, capsys, name):
        odd = tmp_path / name
        shutil.copyfile(pipeline.ws.result_graphs / "g000001.txt", odd)
        good = pipeline.ws.result_graphs / "g000002.txt"
        with caplog.at_level(logging.ERROR, logger="graphbargain.cli"):
            assert main(["validate", *TINY_FLAGS, "--out", str(pipeline.out), str(odd), str(good)]) == 0
        assert [r.getMessage().startswith(f"validate: skipping {odd}: ") for r in caplog.records] == [True]
        assert "coverage: 1/1 = 1.000" in capsys.readouterr().out
        rows = [line.split(",") for line in pipeline.ws.validation_csv.read_text(encoding="ascii").splitlines()]
        assert [len(row) for row in rows] == [5, 5]
        assert rows[1][0] == "g000002.txt"

    def test_validate_via_main(self, pipeline, capsys):
        path = pipeline.ws.result_graphs / "g000001.txt"
        assert main(["validate", *TINY_FLAGS, "--out", str(pipeline.out), str(path)]) == 0
        assert "coverage: 1/1 = 1.000" in capsys.readouterr().out

    def test_report(self, pipeline, capsys):
        report_path = cmd_report(pipeline.config)
        text = report_path.read_text()
        assert "metric grid: 10x10" in text
        assert "baseline: count=10" in text
        assert "result: count=10" in text
        assert capsys.readouterr().out == text

    def test_report_lines_follow_the_manifests(self, pipeline, capsys):
        lines = cmd_report(pipeline.config).read_text().splitlines()
        capsys.readouterr()
        for label, manifest in (("baseline", pipeline.ws.baseline_manifest), ("result", pipeline.ws.result_manifest)):
            table = read_manifest(manifest)
            c, d = table["clustering"].tolist(), table["dlog"].tolist()
            (line,) = [line for line in lines if line.startswith(f"{label}: ")]
            values = dict(part.split("=") for part in line.split(": ", 1)[1].split())
            assert values["count"] == "10"
            assert values["max_clustering"] == f"{max(c):.4f}"
            assert values["mean_clustering"] == f"{math.fsum(c) / len(c):.4f}"
            assert values["mean_dlog"] == f"{math.fsum(d) / len(d):.4f}"

    def test_report_counts_only_occupied_cells(self, pipeline, capsys):
        lines = cmd_report(pipeline.config).read_text().splitlines()
        capsys.readouterr()
        assert lines[0].startswith("metric grid: 10x10, ")
        for label, manifest in (("baseline", pipeline.ws.baseline_manifest), ("result", pipeline.ws.result_manifest)):
            table = read_manifest(manifest)
            occupied = len(set(metric_cells(table["clustering"], table["dlog"]).tolist()))
            (line,) = [line for line in lines if line.startswith(f"{label}: ")]
            assert f" occupied_cells={occupied}/100 " in line

    def test_every_file_a_run_writes_is_a_workspace_path(self, tmp_path):
        out = tmp_path / "run"
        for command in ("baseline", "optimize", "generate", "validate", "report"):
            assert main([command, *TINY_FLAGS, "--out", str(out)]) == 0
        ws = Workspace(out)
        # directory fields have no suffix; every file field is written by one of the five commands
        files = {path for path in vars(ws).values() if path.suffix}
        assert all(path.is_file() for path in files)
        graphs = {d / f"g{slot:06d}.txt" for d in (ws.baseline_graphs, ws.result_graphs) for slot in range(10)}
        assert {path for path in out.rglob("*") if path.is_file()} == files | graphs

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out_b = tmp_path / "again"
        for command in ("baseline", "optimize", "generate"):
            assert main([command, *TINY_FLAGS, "--out", str(out_b)]) == 0
        ws_a, ws_b = pipeline.ws, Workspace(out_b)
        for name in ("baseline_manifest", "baseline_model", "best_q", "trace", "result_manifest"):
            assert getattr(ws_a, name).read_bytes() == getattr(ws_b, name).read_bytes()

    def test_worker_count_does_not_change_output(self, pipeline, tmp_path, one_slot_batches):
        out_c = tmp_path / "jobs2"
        assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(out_c)]) == 0
        assert Workspace(out_c).baseline_manifest.read_bytes() == pipeline.ws.baseline_manifest.read_bytes()


def test_degenerate_slots_are_redrawn_in_the_next_round(pipeline, tmp_path, monkeypatch, caplog, one_slot_batches):
    """Slots whose draw is degenerate take the next draws of both streams, at any worker count."""
    cli = graphbargain.cli
    n, doomed = 10, (2, 7)
    param_rng = np.random.default_rng([5, cli._TAG_BASELINE_PARAMS])
    seed_rng = np.random.default_rng([5, cli._TAG_BASELINE_GRAPHS])
    draws = [(sample_baseline(30, 90, param_rng), int(seed_rng.integers(0, cli._SEED_SPAN))) for _ in range(n + 2)]
    doomed_seeds = {draws[slot][1] for slot in doomed}
    expected = draws[:n]
    for k, slot in enumerate(doomed):
        expected[slot] = draws[n + k]

    def flaky(params, seed):
        if seed in doomed_seeds:
            raise DegenerateParametersError("forced")
        return generate_graph(params, seed)

    # Forked workers inherit the patched module global.
    monkeypatch.setattr(cli, "generate_graph", flaky)
    manifests = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        with caplog.at_level(logging.WARNING, logger="graphbargain.cli"):
            assert main(["baseline", *TINY_FLAGS, "--jobs", jobs, "--out", str(out)]) == 0
        warned = [r.getMessage() for r in caplog.records if "resampling" in r.getMessage()]
        assert warned == [f"baseline graph {slot}: degenerate parameters, resampling" for slot in doomed]
        caplog.clear()
        table = check_manifest_against_graphs(Workspace(out).baseline_manifest, Workspace(out).baseline_graphs)
        assert table[["seed", "n_param", "e_param", "a", "b", "c"]].tolist() == [
            (seed, p.n_param, p.e_param, p.a, p.b, p.c) for p, seed in expected
        ]
        manifests.append(Workspace(out).baseline_manifest.read_bytes())
    assert manifests[0] == manifests[1]
    unchanged = pipeline.ws.baseline_manifest.read_text().splitlines()
    redrawn = manifests[0].decode("ascii").splitlines()
    assert [k for k, (a, b) in enumerate(zip(unchanged[1:], redrawn[1:])) if a != b] == list(doomed)


def test_each_stage_logs_how_many_graphs_end_below_e_min(tmp_path, caplog):
    config, ws = tiny_config(tmp_path), Workspace(tmp_path)
    with caplog.at_level(logging.INFO, logger="graphbargain.cli"):
        cmd_baseline(config)
        cmd_optimize(config)
        cmd_generate(config)
    shorts = []
    for label, manifest in (("baseline", ws.baseline_manifest), ("result", ws.result_manifest)):
        short = int((read_manifest(manifest)["e_final"] < config.e_min).sum())
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith(f"{label}: wrote {manifest};")]
        assert logged == [f"{label}: wrote {manifest}; {short} of 10 graphs end below e_min = 30 edges"]
        shorts.append(short)
    assert 0 < max(shorts) < 10


def test_each_manifest_row_rebuilds_its_graph_file(tmp_path):
    """A row's parameters and seed rebuild its graph byte for byte, vanished first samples included."""
    ws = Workspace(tmp_path)
    # u_a near 1 sends almost every edge to one corner, so some first samples vanish
    write_qvector(np.array([1.0, 1.0, 50.0, 0.5, 1.0, 1.0, 1.0, 1.0]), tmp_path / "q.txt", {})
    cmd_generate(tiny_config(tmp_path), tmp_path / "q.txt")
    vanished = 0
    for row in read_manifest(ws.result_manifest):
        params = RmatParams(*(row[name].item() for name in ("n_param", "e_param", "a", "b", "c", "d")))
        seed = int(row["seed"])
        write_edge_list(generate_graph(params, seed), tmp_path / "rebuilt.txt")
        graph_file = ws.result_graphs / f"g{int(row['id']):06d}.txt"
        assert (tmp_path / "rebuilt.txt").read_bytes() == graph_file.read_bytes()
        try:
            sanitize(generate_raw_edges(params, seed), params.n_param)
        except VanishedGraphError:
            vanished += 1  # generate_graph went on to seed + 1, seed + 2, ...
    assert vanished >= 1


def test_slots_that_stay_degenerate_exit_5(tmp_path, monkeypatch, capsys):
    def degenerate(params, seed):
        raise DegenerateParametersError("forced")

    monkeypatch.setattr(graphbargain.cli, "generate_graph", degenerate)
    assert main(["baseline", *TINY_FLAGS, "--out", str(tmp_path / "run")]) == 5
    err = capsys.readouterr().err
    assert f"error: baseline: 10 graphs still degenerate after {graphbargain.cli._MAX_ROUNDS} rounds" in err
    assert "Traceback" not in err


def test_a_worker_that_dies_exits_5(tmp_path, monkeypatch, capsys, one_slot_batches):
    parent = os.getpid()

    def die(params, seed):
        if os.getpid() != parent:
            os._exit(1)  # a worker killed, for example for memory
        raise AssertionError("at --jobs 2 every graph is made in a worker")

    # Forked workers inherit the patched module global.
    monkeypatch.setattr(graphbargain.cli, "generate_graph", die)
    assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(tmp_path / "run")]) == 5
    err = capsys.readouterr().err
    assert "error: a worker process died" in err
    assert "Traceback" not in err


def test_workers_that_cannot_start_exit_5(tmp_path, monkeypatch, capsys, one_slot_batches):
    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))  # as when the process limit is reached

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(tmp_path / "run")]) == 5
    err = capsys.readouterr().err
    assert "error: worker processes could not start ([Errno 11]" in err
    assert "Traceback" not in err


_PARTIAL_START = """
import errno, os, sys
sys.path.insert(0, sys.argv[1])
import graphbargain.cli
from graphbargain.cli import main

graphbargain.cli._BATCH_EDGES = 1  # every slot is a batch of its own, so the run starts a pool

def refuse():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

def fork_once(fork=os.fork):
    os.fork = refuse  # the first worker starts, and the process limit stops the second
    return fork()

os.fork = fork_once
sys.exit(main(sys.argv[2:]))
"""


def test_workers_that_start_in_part_are_stopped(tmp_path):
    """When only some workers start, the run exits 5 instead of waiting for the started ones forever."""
    src = Path(graphbargain.cli.__file__).resolve().parents[1]
    argv = ["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(tmp_path / "run")]
    # a session of its own, so that a hung run and its worker can be killed together
    run = subprocess.Popen(
        [sys.executable, "-c", _PARTIAL_START, str(src), *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        _, err = run.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        pytest.fail("the run did not exit after its second worker failed to start")
    assert run.returncode == 5, err
    assert "error: worker processes could not start ([Errno 11]" in err
    assert "Traceback" not in err


def test_a_slot_above_the_edge_budget_is_measured_alone(monkeypatch, tmp_path):
    cli = graphbargain.cli
    monkeypatch.setattr(cli, "_BATCH_EDGES", 200)
    sizes = [60, 70, 250, 40, 50, 90, 30, 30, 30, 30, 30, 30, 300, 20, 20, 20]
    tasks = [(k, RmatParams(16, e, 0.45, 0.2, 0.2, 0.15), k, str(tmp_path / f"g{k}.txt")) for k, e in enumerate(sizes)]
    batches = []

    def recording(*graphs):
        batches.append([g.edge_count for g in graphs])
        return metric_projection(*graphs)

    monkeypatch.setattr(cli, "metric_projection", recording)
    outcomes = cli._run_tasks(tasks, jobs=1)
    # each batch holds at most 200 requested edges, but the two larger slots stand alone
    assert [len(batch) for batch in batches] == [2, 1, 3, 6, 1, 3]
    graphs = [generate_graph(params, seed) for _, params, seed, _ in tasks]
    assert [edges for batch in batches for edges in batch] == [g.edge_count for g in graphs]
    assert outcomes == [(g.node_count, g.edge_count, *metric_projection(g)[0]) for g in graphs]


def test_batches_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    """The draws alone fix the batches; --jobs only picks the process that measures each one."""
    cli = graphbargain.cli
    # a budget of 200 requested edges splits the tiny run into several batches
    monkeypatch.setattr(cli, "_BATCH_EDGES", 200)
    runs = []  # per run, the slots of each batch of each round
    form = cli._batches

    def recording(tasks):
        batches = form(tasks)
        runs[-1].append([[slot for slot, *_ in batch] for batch in batches])
        return batches

    monkeypatch.setattr(cli, "_batches", recording)
    for jobs in ("1", "2", "4"):
        runs.append([])
        assert main(["baseline", *TINY_FLAGS, "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
    assert len(runs[0][0]) > 1
    assert runs[0] == runs[1] == runs[2]


def test_a_run_that_fits_one_batch_starts_no_worker(pipeline, tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a run whose slots fit one batch measures it in this process")

    monkeypatch.setattr(os, "fork", no_fork)
    out = tmp_path / "jobs2"
    for command in ("baseline", "optimize", "generate"):
        assert main([command, *TINY_FLAGS, "--jobs", "2", "--out", str(out)]) == 0
    for name in ("baseline_manifest", "result_manifest"):
        assert getattr(Workspace(out), name).read_bytes() == getattr(pipeline.ws, name).read_bytes()


def test_a_write_that_fails_in_a_worker_exits_6(tmp_path, monkeypatch, capsys, one_slot_batches):
    parent = os.getpid()

    def disk_full(graph, path):
        assert os.getpid() != parent, "at --jobs 2 every graph is written in a worker"
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

    # Forked workers inherit the patched module global.
    monkeypatch.setattr(graphbargain.cli, "write_edge_list", disk_full)
    assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(tmp_path / "run")]) == 6
    err = capsys.readouterr().err
    assert "error: [Errno 28]" in err
    assert "Traceback" not in err


def test_an_edge_list_write_that_fails_in_a_worker_leaves_no_partial_and_no_truncated_file(
    tmp_path, monkeypatch, capsys, disk_full_after_one_write, one_slot_batches
):
    parent = os.getpid()
    disk_full = graphbargain.dataset.open

    def in_a_worker(*args, **kwargs):
        assert os.getpid() != parent, "at --jobs 2 every graph is written in a worker"
        return disk_full(*args, **kwargs)

    monkeypatch.setattr(graphbargain.dataset, "open", in_a_worker)
    out = tmp_path / "run"
    assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(out)]) == 6
    err = capsys.readouterr().err
    assert "error: [Errno 28]" in err
    assert "Traceback" not in err
    # Every graph spans several writes, so each slot's write failed and left nothing behind.
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*")) == ["baseline", "baseline/graphs"]


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from graphbargain.cli import main
try:
    main(sys.argv[2:])
except SystemExit:
    pass
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def scipy_loaded_by(*argv: str) -> list[str]:
    """The scipy modules a fresh interpreter holds after ``main(argv)``, or after the import alone."""
    src = Path(graphbargain.cli.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(src), *argv],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestCommandsLoadOnlyTheScipyTheyRun:
    def test_import_and_help_load_no_scipy(self):
        # main([]) exits at argument parsing, so this probe measures the import alone.
        assert scipy_loaded_by() == []
        assert scipy_loaded_by("--help") == []

    def test_report_loads_no_scipy(self, pipeline, tmp_path):
        out = tmp_path / "run"
        for stage in ("baseline", "result"):
            (out / stage).mkdir(parents=True)
            shutil.copy(pipeline.out / stage / "manifest.csv", out / stage)
        assert scipy_loaded_by("report", *TINY_FLAGS, "--out", str(out)) == []
        assert (out / "report" / "report.txt").read_bytes() == cmd_report(pipeline.config).read_bytes()

    def test_optimize_loads_neither_io_nor_csgraph(self, pipeline, tmp_path):
        out = tmp_path / "run"
        (out / "baseline").mkdir(parents=True)
        shutil.copy(pipeline.ws.baseline_model, out / "baseline")
        loaded = scipy_loaded_by("optimize", *TINY_FLAGS, "--out", str(out))
        assert "scipy.special" in loaded
        assert not [name for name in loaded if name.startswith(("scipy.io", "scipy.sparse.csgraph"))]
        assert Workspace(out).best_q.read_bytes() == pipeline.ws.best_q.read_bytes()
