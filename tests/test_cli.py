"""Command-line surface: config handling, the five subcommands, reruns."""

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
    ENV_SEED,
    RunConfig,
    Workspace,
    build_config,
    cmd_generate,
    cmd_optimize,
    cmd_report,
    cmd_validate,
    main,
    _make_parser,
    _read_config_file,
)
from graphbargain.dataset import (
    MANIFEST_HEADER,
    read_edge_list,
    read_manifest,
    read_qvector,
    write_edge_list,
    write_qvector,
)
from graphbargain.errors import ConfigError, CoverageCollapseError
from graphbargain.graph import Graph, metric_projection
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
    "--n", "10", "--e-min", "30", "--e-max", "90",
    "--param-bins", "4", "--pop", "6", "--max-gen", "4", "--seed", "5",
]


def tiny_config(out) -> RunConfig:
    return RunConfig(n=10, e_min=30, e_max=90, param_bins=4, pop=6, max_gen=4, seed=5, out=str(out))


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
        assert config.param_bins == 20
        assert config.metric_bins == 10
        assert (config.pop, config.max_gen, config.tol, config.holdout) == (32, 50, 1e-3, 0.2)
        assert (config.seed, config.jobs) == (0, 1)
        assert config.out == "out"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"n": 0}, "n must be"),
            ({"e_min": 18}, "e_min must be at least 19"),
            ({"e_min": 100, "e_max": 100}, "e_max must exceed"),
            ({"metric_bins": 0}, "metric_bins"),
            ({"metric_bins": 10**15}, r"^metric_bins must be at most 3037000499, where the cell ids fit in int64$"),
            ({"param_bins": 0}, "param_bins"),
            ({"seed": -1}, "seed"),
            ({"jobs": 0}, "jobs"),
            ({"pop": 3}, "^pop must be at least 4$"),
            ({"max_gen": 0}, "^max_gen must be at least 1$"),
            ({"tol": 0.0}, "^tol must be positive$"),
            ({"tol": -1.0}, "^tol must be positive$"),
            ({"holdout": 0.0}, r"^holdout must lie in \(0, 1\)$"),
            ({"holdout": 1.0}, r"^holdout must lie in \(0, 1\)$"),
            ({"holdout": float("inf")}, r"^holdout must lie in \(0, 1\)$"),
            ({"holdout": float("nan")}, r"^holdout must lie in \(0, 1\)$"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kwargs)

    def test_grids(self):
        config = RunConfig(metric_bins=8, param_bins=6)
        assert metric_cells([1.0], [0.0], config.metric_bins).tolist() == [64 - 1]
        assert param_cells([[1.0, 1.0, 1.0, 1.0]], config.param_bins).tolist() == [6**4 - 1]


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nn = 50\n\ne_min=40\nout = other dir\ntol = 5e-4\n")
        values = _read_config_file(str(path))
        assert values == {"n": 50, "e_min": 40, "out": "other dir", "tol": 5e-4}

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus = 1\n")
        with pytest.raises(ConfigError, match="unknown config key 'bogus'"):
            _read_config_file(str(path))

    def test_bad_value_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 50\nseed = soon\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2"):
            _read_config_file(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n 50\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            _read_config_file(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            _read_config_file(str(tmp_path / "absent.cfg"))


class TestBuildConfig:
    def _args(self, argv):
        return _make_parser().parse_args(argv)

    def test_defaults_without_sources(self, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        config = build_config(self._args(["report"]))
        assert config == RunConfig()

    def test_flags_override_file(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_SEED, raising=False)
        path = tmp_path / "run.cfg"
        path.write_text("n = 50\nseed = 7\n")
        config = build_config(self._args(["report", "--config", str(path), "--seed", "9"]))
        assert config.n == 50
        assert config.seed == 9

    def test_env_seed_fills_gap(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "5")
        config = build_config(self._args(["report"]))
        assert config.seed == 5

    def test_file_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "5")
        path = tmp_path / "run.cfg"
        path.write_text("seed = 7\n")
        config = build_config(self._args(["report", "--config", str(path)]))
        assert config.seed == 7

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "5")
        config = build_config(self._args(["report", "--seed", "9"]))
        assert config.seed == 9

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv(ENV_SEED, "soon")
        with pytest.raises(ConfigError, match="must be an integer"):
            build_config(self._args(["report"]))

    def test_every_field_has_a_flag_and_a_typed_config_key(self, tmp_path, monkeypatch):
        # a valid value unlike the default for every field, so a field that
        # build_config drops shows up as a default
        monkeypatch.delenv(ENV_SEED, raising=False)
        values = {
            "n": 7, "e_min": 40, "e_max": 80, "metric_bins": 3, "param_bins": 5, "pop": 9,
            "max_gen": 6, "tol": 0.25, "holdout": 0.3, "seed": 11, "jobs": 2, "out": "elsewhere",
        }
        defaults = RunConfig()
        assert list(values) == [f.name for f in dataclasses.fields(RunConfig)]
        assert all(values[name] != getattr(defaults, name) for name in values)
        expected = RunConfig(**values)

        argv = ["report"]
        for name, value in values.items():
            argv += [f"--{name.replace('_', '-')}", str(value)]
        assert build_config(self._args(argv)) == expected

        path = tmp_path / "run.cfg"
        path.write_text("".join(f"{name} = {value}\n" for name, value in values.items()))
        parsed = _read_config_file(str(path))
        assert parsed == values
        for f in dataclasses.fields(RunConfig):
            assert type(parsed[f.name]) is type(f.default)
        assert build_config(self._args(["report", "--config", str(path)])) == expected

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

    def test_bad_env_seed_is_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SEED, "soon")
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

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
        ("report", "config", 2),
        ("generate", "best_q", 3),
        ("optimize", "baseline_model", 3),
        ("report", "result_manifest", 3),
    ],
)
def test_non_ascii_input_is_reported_by_path(tmp_path, capsys, command, name, code):
    path = tmp_path / "run.cfg" if name == "config" else getattr(Workspace(tmp_path), name)
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(b"n = 5\xff\n")
    argv = [command, "--out", str(tmp_path), *(["--config", str(path)] if name == "config" else [])]
    assert main(argv) == code
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
    ("model", "argv", "code", "message"),
    [
        # a model too small to split, or a holdout that rounds one side to nothing
        ((["5 3 6"], 6, "10 10 -6.0 0.0", 20), [], 3, "cannot split 6 records at holdout 0.2: need at least 10 records"),
        ((["5 3 20"], 20, "10 10 -6.0 0.0", 20), ["--holdout", "0.01"], 3, "at holdout 0.01: degenerate split"),
        # one metric cell leaves the bargaining fitness undefined
        (None, ["--metric-bins", "1"], 2, "metric_bins must be at least 2"),
        ((["5 0 12"], 12, "1 1 -6.0 0.0", 20), [], 3, "inconsistent model: metric grid needs at least 2 bins per axis"),
        # 3037000500**2 - 1, the largest metric cell id, overflows int64
        (None, ["--metric-bins", "1000000000000000"], 2, "metric_bins must be at most 3037000499"),
        ((["5 0 12"], 12, "3037000500 3037000500 -6.0 0.0", 20), [], 3, "inconsistent model: 3037000500 bins per metric axis above 3037000499, where the cell ids fit in int64"),
        ((["5 0 12"], 12, f"{10**30} {10**30} -6.0 0.0", 20), [], 3, f"inconsistent model: {10**30} bins per metric axis above 3037000499"),
        # 55109**4 - 1, the largest flat parameter cell id, overflows int64
        (None, ["--param-bins", "60000"], 2, "param_bins must lie in [1, 55108]"),
        ((["5 3 12"], 12, "10 10 -6.0 0.0", 55109), [], 3, "inconsistent model: 55109 bins per parameter axis outside [1, 55108], where the cell ids fit in int64"),
        # no command writes a metric grid other than the square one over dlog [-6, 0]
        ((["5 3 12"], 12, "10 8 -6.0 0.0", 20), [], 3, "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 8 -6.0 0.0'"),
        ((["5 3 12"], 12, "10 10 -7.0 0.0", 20), [], 3, "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 10 -7.0 0.0'"),
        ((["5 3 12"], 12, "10 10 -6.0 -1.0", 20), [], 3, "model.txt:2: expected 'metric_grid 10 10 -6.0 0.0', got 'metric_grid 10 10 -6.0 -1.0'"),
    ],
    ids=["too-few-records", "empty-holdout", "metric-bins-flag", "metric-grid-header", "huge-metric-bins-flag",
         "huge-metric-grid-header", "overflowing-metric-grid-header", "param-bins-flag", "param-grid-header",
         "non-square-header", "dlog-min-header", "dlog-max-header"],
)
def test_unusable_grids_and_splits_exit_without_a_traceback(tmp_path, capsys, model, argv, code, message):
    ws = Workspace(tmp_path)
    if model is None:
        # the flag is refused before baseline generates any graph, and by every command
        assert main(["baseline", *argv, "--out", str(tmp_path)]) == code
        assert not ws.baseline_dir.exists()
        assert message in capsys.readouterr().err
        command = "report"
    else:
        write_model(ws.baseline_model, *model)
        command = "optimize"
    assert main([command, *argv, "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    if model is not None:
        assert err.startswith(f"error: {ws.baseline_model}:")


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
        assert (model.metric_bins, model.param_bins) == (10, 4)

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

    def test_coverage_collapse_is_4(self, pipeline, monkeypatch, capsys):
        settings = {}

        def collapse(train, hold, **kwargs):
            settings.update(kwargs)
            raise CoverageCollapseError("best candidate keeps no mass")

        monkeypatch.setattr(graphbargain.cli, "optimize", collapse)
        assert main(["optimize", *TINY_FLAGS, "--out", str(pipeline.out)]) == 4
        assert capsys.readouterr().err.startswith("error: best candidate keeps no mass")
        assert settings == {"pop": 6, "max_gen": 4, "tol": 1e-3, "seed": 5}

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
        scatter_lines = ws.scatter_csv.read_text().splitlines()
        assert scatter_lines[0] == "source,clustering,dlog"
        assert sum(1 for s in scatter_lines if s.startswith("result,")) == 10
        assert sum(1 for s in scatter_lines if s.startswith("validation,")) == 2

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
        assert (pipeline.ws.report_dir / "baseline_scatter.csv").exists()
        assert (pipeline.ws.report_dir / "result_scatter.csv").exists()

    def test_report_lines_and_scatter_files_follow_the_manifests(self, pipeline, capsys):
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
            scatter = (pipeline.ws.report_dir / f"{label}_scatter.csv").read_text()
            assert scatter == "clustering,dlog\n" + "".join(f"{x!r},{y!r}\n" for x, y in zip(c, d))

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        out_b = tmp_path / "again"
        for command in ("baseline", "optimize", "generate"):
            assert main([command, *TINY_FLAGS, "--out", str(out_b)]) == 0
        ws_a, ws_b = pipeline.ws, Workspace(out_b)
        for name in ("baseline_manifest", "baseline_model", "best_q", "trace", "result_manifest"):
            assert getattr(ws_a, name).read_bytes() == getattr(ws_b, name).read_bytes()

    def test_worker_count_does_not_change_output(self, pipeline, tmp_path):
        out_c = tmp_path / "jobs2"
        assert main(["baseline", *TINY_FLAGS, "--jobs", "2", "--out", str(out_c)]) == 0
        assert Workspace(out_c).baseline_manifest.read_bytes() == pipeline.ws.baseline_manifest.read_bytes()

    def test_config_file_through_main(self, pipeline, tmp_path):
        out_d = tmp_path / "fromfile"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "n = 10\ne_min = 30\ne_max = 90\nparam_bins = 4\npop = 6\nmax_gen = 4\nseed = 5\n"
            f"out = {out_d}\n"
        )
        assert main(["baseline", "--config", str(cfg)]) == 0
        assert Workspace(out_d).baseline_manifest.read_bytes() == pipeline.ws.baseline_manifest.read_bytes()


def test_degenerate_slots_are_redrawn_in_the_next_round(pipeline, tmp_path, monkeypatch, caplog):
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


def test_each_manifest_row_rebuilds_its_graph_file(tmp_path):
    """A row's parameters and seed rebuild its graph byte for byte, vanished first samples included."""
    ws = Workspace(tmp_path)
    # u_a near 1 sends almost every edge to one corner, so some first samples vanish
    write_qvector(np.array([1.0, 1.0, 50.0, 0.5, 1.0, 1.0, 1.0, 1.0]), tmp_path / "q.txt")
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


def test_a_worker_that_dies_exits_5(tmp_path, monkeypatch, capsys):
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


def test_workers_that_cannot_start_exit_5(tmp_path, monkeypatch, capsys):
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
from graphbargain.cli import main

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
    # 16 tasks make batches of at most 4 slots, each within 200 requested edges but the two larger slots
    assert [len(batch) for batch in batches] == [2, 1, 3, 4, 2, 1, 3]
    graphs = [generate_graph(params, seed) for _, params, seed, _ in tasks]
    assert [edges for batch in batches for edges in batch] == [g.edge_count for g in graphs]
    assert outcomes == [(g.node_count, g.edge_count, *metric_projection(g)[0]) for g in graphs]


def test_a_write_that_fails_in_a_worker_exits_6(tmp_path, monkeypatch, capsys):
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
