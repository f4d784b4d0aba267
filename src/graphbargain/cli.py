"""Command line front end: baseline, optimize, generate, validate, report.

Subcommands compose through a shared output directory:

    baseline  writes <out>/baseline/{manifest.csv,model.txt,graphs/}
    optimize  reads the model, writes <out>/optimize/{best_q.txt,trace.csv}
    generate  reads best_q, writes <out>/result/{manifest.csv,graphs/}
    validate  reads the result manifest plus real graph files,
              writes <out>/validate/{metrics.csv,scatter.csv}
    report    summarizes whichever manifests exist under <out>/report/

Every command is reproducible from (config, seed): parameter draws and
per-graph seeds come from dedicated streams that are advanced serially, so
--jobs changes wall time but never output bytes.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .dataset import (
    ManifestRow,
    compute_stats,
    emit_scatter_csv,
    key_value_lines,
    read_edge_list,
    read_manifest,
    read_matrix_market,
    read_qvector,
    write_edge_list,
    write_manifest,
    write_qvector,
)
from .errors import ConfigError, CoverageCollapseError, DataError, GenerationError
from .graph import Graph, MetricPoint, largest_connected_component, metric_projection
from .grids import MetricGrid, ParamGrid, build_conditional, load_conditional, save_conditional
from .objective import bargaining_fitness, fitness_bounds
from .optimizer import optimize, split_model
from .params import E_MIN, sample_baseline, sample_from_q
from .rmat import DegenerateParametersError, RmatParams, generate_graph

__all__ = [
    "RunConfig",
    "Workspace",
    "cmd_baseline",
    "cmd_optimize",
    "cmd_generate",
    "cmd_validate",
    "cmd_report",
    "main",
]

logger = logging.getLogger(__name__)

ENV_SEED = "GRAPHBARGAIN_SEED"

# Tags keep the per-command random streams disjoint under one user seed.
_TAG_BASELINE_PARAMS = 1
_TAG_BASELINE_GRAPHS = 2
_TAG_SPLIT = 3
_TAG_GENERATE_PARAMS = 4
_TAG_GENERATE_GRAPHS = 5

# Graph seeds leave headroom for the retry window inside generate_graph.
_SEED_SPAN = 2**63 - 16

_MAX_ROUNDS = 50


def _setting(default: object, description: str) -> Any:
    """A RunConfig field: its default, and the phrase its --flag's help begins with."""
    return field(default=default, metadata={"help": description})


@dataclass(frozen=True)
class RunConfig:
    """Shared run settings; defaults match the full-scale experiment."""

    n: int = _setting(10000, "dataset size")
    e_min: int = _setting(100_000, "minimum edge target")
    e_max: int = _setting(1_000_000, "maximum edge target")
    metric_bins: int = _setting(10, "bins per metric axis")
    param_bins: int = _setting(20, "bins per parameter axis")
    pop: int = _setting(32, "optimizer population size")
    max_gen: int = _setting(50, "optimizer generation cap")
    tol: float = _setting(1e-3, "optimizer early-stop tolerance")
    holdout: float = _setting(0.2, "holdout fraction")
    seed: int = _setting(0, f"random seed, or ${ENV_SEED} if no flag or file sets it")
    jobs: int = _setting(1, "worker processes for graph generation")
    out: str = _setting("out", "output directory")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        if self.e_min < E_MIN:
            raise ConfigError(f"e_min must be at least {E_MIN}; smaller edge targets leave no feasible node count")
        if self.e_max <= self.e_min:
            raise ConfigError("e_max must exceed e_min")
        if self.metric_bins < 1:
            raise ConfigError("metric_bins must be at least 1")
        if self.param_bins < 1:
            raise ConfigError("param_bins must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.pop < 4:
            raise ConfigError("pop must be at least 4")
        if self.max_gen < 1:
            raise ConfigError("max_gen must be at least 1")
        if not self.tol > 0.0:
            raise ConfigError("tol must be positive")
        if not 0.0 < self.holdout < 1.0:
            raise ConfigError("holdout must lie in (0, 1)")

    @property
    def metric_grid(self) -> MetricGrid:
        return MetricGrid(self.metric_bins, self.metric_bins)

    @property
    def param_grid(self) -> ParamGrid:
        return ParamGrid(self.param_bins)


@dataclass(frozen=True)
class Workspace:
    """Fixed file layout under the output directory."""

    root: Path

    @property
    def baseline_dir(self) -> Path:
        return self.root / "baseline"

    @property
    def baseline_manifest(self) -> Path:
        return self.baseline_dir / "manifest.csv"

    @property
    def baseline_model(self) -> Path:
        return self.baseline_dir / "model.txt"

    @property
    def baseline_graphs(self) -> Path:
        return self.baseline_dir / "graphs"

    @property
    def optimize_dir(self) -> Path:
        return self.root / "optimize"

    @property
    def best_q(self) -> Path:
        return self.optimize_dir / "best_q.txt"

    @property
    def trace(self) -> Path:
        return self.optimize_dir / "trace.csv"

    @property
    def result_dir(self) -> Path:
        return self.root / "result"

    @property
    def result_manifest(self) -> Path:
        return self.result_dir / "manifest.csv"

    @property
    def result_graphs(self) -> Path:
        return self.result_dir / "graphs"

    @property
    def validate_dir(self) -> Path:
        return self.root / "validate"

    @property
    def validation_csv(self) -> Path:
        return self.validate_dir / "metrics.csv"

    @property
    def scatter_csv(self) -> Path:
        return self.validate_dir / "scatter.csv"

    @property
    def report_dir(self) -> Path:
        return self.root / "report"

    @property
    def report_txt(self) -> Path:
        return self.report_dir / "report.txt"


def _workspace(config: RunConfig) -> Workspace:
    return Workspace(Path(config.out))


def _run_one(task: tuple[int, RmatParams, int, str]) -> tuple[int, int, float, float] | None:
    """Generate one graph, write its edge list, return its measurements."""
    _, params, seed, path = task
    try:
        g, metric = generate_graph(params, seed)
    except DegenerateParametersError:
        return None
    write_edge_list(g, path)
    return g.node_count, g.edge_count, metric.clustering, metric.dlog


def _run_tasks(tasks: list[tuple[int, RmatParams, int, str]], jobs: int) -> list[tuple[int, int, float, float] | None]:
    if jobs <= 1 or len(tasks) <= 1:
        return [_run_one(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Load the scipy modules that every graph needs once, here, so forked
    # workers inherit them instead of each importing them again.
    importlib.import_module("scipy.sparse.csgraph")
    workers = min(jobs, len(tasks))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunk = max(1, len(tasks) // (4 * workers))
            return list(pool.map(_run_one, tasks, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise GenerationError(f"a worker process died ({exc})") from exc


def _generate_dataset(
    count: int,
    draw_params: Callable[[], RmatParams],
    seed_rng: np.random.Generator,
    graphs_dir: Path,
    jobs: int,
    label: str,
) -> list[ManifestRow]:
    """Fill `count` slots; degenerate draws are logged and resampled.

    Parameters and seeds are drawn serially between rounds, so the output
    does not depend on the worker count.
    """
    graphs_dir.mkdir(parents=True, exist_ok=True)
    rows: list[ManifestRow | None] = [None] * count
    pending = list(range(count))
    for _ in range(_MAX_ROUNDS):
        tasks = []
        for slot in pending:
            params = draw_params()
            seed = int(seed_rng.integers(0, _SEED_SPAN))
            tasks.append((slot, params, seed, str(graphs_dir / f"g{slot:06d}.txt")))
        outcomes = _run_tasks(tasks, jobs)
        pending = []
        for (slot, params, seed, _), outcome in zip(tasks, outcomes):
            if outcome is None:
                logger.warning("%s graph %d: degenerate parameters, resampling", label, slot)
                pending.append(slot)
                continue
            n_final, e_final, clustering, dlog = outcome
            rows[slot] = ManifestRow.build(slot, seed, params, n_final, e_final, MetricPoint(clustering, dlog))
        if not pending:
            break
    else:
        raise GenerationError(f"{label}: {len(pending)} graphs still degenerate after {_MAX_ROUNDS} rounds")
    return [row for row in rows if row is not None]


def cmd_baseline(config: RunConfig) -> tuple[Path, Path]:
    """Generate the naive baseline dataset and build its conditional model."""
    ws = _workspace(config)
    rng_params = np.random.default_rng([config.seed, _TAG_BASELINE_PARAMS])
    rng_seeds = np.random.default_rng([config.seed, _TAG_BASELINE_GRAPHS])

    def draw() -> RmatParams:
        return sample_baseline(config.e_min, config.e_max, rng_params)

    logger.info("baseline: generating %d graphs with E in [%d, %d]", config.n, config.e_min, config.e_max)
    rows = _generate_dataset(config.n, draw, rng_seeds, ws.baseline_graphs, config.jobs, "baseline")
    write_manifest(rows, ws.baseline_manifest)
    table = np.array([(r.u_n, r.u_a, r.u_b, r.u_c, r.clustering, r.dlog) for r in rows], dtype=np.float64)
    model = build_conditional(table[:, :4], table[:, 4], table[:, 5], config.metric_grid, config.param_grid)
    save_conditional(model, ws.baseline_model)
    logger.info("baseline: wrote %s and %s", ws.baseline_manifest, ws.baseline_model)
    return ws.baseline_manifest, ws.baseline_model


def cmd_optimize(config: RunConfig, model_path: str | Path | None = None) -> Path:
    """Fit the Beta parameter vector against the stored conditional model."""
    ws = _workspace(config)
    path = Path(model_path) if model_path is not None else ws.baseline_model
    if not path.exists():
        raise DataError(f"model file {path} not found; run baseline first")
    model = load_conditional(path)
    split_seed = int(np.random.default_rng([config.seed, _TAG_SPLIT]).integers(2**63))
    train, hold = split_model(model, config.holdout, split_seed)
    result = optimize(train, hold, pop=config.pop, max_gen=config.max_gen, tol=config.tol, seed=config.seed)
    ws.optimize_dir.mkdir(parents=True, exist_ok=True)
    write_qvector(
        result.best_q,
        ws.best_q,
        extra={
            "holdout_fitness": result.best_holdout_fitness,
            "coverage": result.best_coverage,
            "generations": result.generations_run,
            "seed": config.seed,
        },
    )
    with open(ws.trace, "w", encoding="ascii") as fh:
        fh.write("generation,best_train,best_holdout,coverage\n")
        for t in result.trace:
            fh.write(f"{t.generation},{t.best_train!r},{t.best_holdout!r},{t.coverage!r}\n")
    logger.info(
        "optimize: holdout fitness %.6f after %d generations, wrote %s",
        result.best_holdout_fitness, result.generations_run, ws.best_q,
    )
    return ws.best_q


def cmd_generate(config: RunConfig, q_path: str | Path | None = None) -> Path:
    """Sample the result dataset from the optimized parameter distributions."""
    ws = _workspace(config)
    path = Path(q_path) if q_path is not None else ws.best_q
    if not path.exists():
        raise DataError(f"q vector file {path} not found; run optimize first")
    q = read_qvector(path)
    rng_params = np.random.default_rng([config.seed, _TAG_GENERATE_PARAMS])
    rng_seeds = np.random.default_rng([config.seed, _TAG_GENERATE_GRAPHS])

    def draw() -> RmatParams:
        return sample_from_q(q, config.e_min, config.e_max, rng_params)

    logger.info("generate: sampling %d graphs from %s", config.n, path)
    rows = _generate_dataset(config.n, draw, rng_seeds, ws.result_graphs, config.jobs, "result")
    write_manifest(rows, ws.result_manifest)
    logger.info("generate: wrote %s", ws.result_manifest)
    return ws.result_manifest


def _read_validation_graph(path: Path) -> Graph:
    """The graph's largest component, as metric_projection assumes, whatever the file format."""
    if path.suffix.lower() == ".mtx":
        return read_matrix_market(path)
    return largest_connected_component(read_edge_list(path))


def cmd_validate(config: RunConfig, files: Sequence[str]) -> float | None:
    """Measure real graphs and check how many land in occupied metric cells."""
    ws = _workspace(config)
    if not ws.result_manifest.exists():
        raise DataError(f"result manifest {ws.result_manifest} not found; run generate first")
    rows = read_manifest(ws.result_manifest)
    grid = config.metric_grid
    occupied = grid.locate([r.clustering for r in rows], [r.dlog for r in rows])

    measured: list[tuple[str, int, int, MetricPoint]] = []
    for name in files:
        try:
            g = _read_validation_graph(Path(name))
        except DataError as exc:
            logger.error("validate: skipping %s: %s", name, exc)
            continue
        metric = metric_projection(g)
        measured.append((Path(name).name, g.node_count, g.edge_count, metric))

    ws.validate_dir.mkdir(parents=True, exist_ok=True)
    with open(ws.validation_csv, "w", encoding="ascii") as fh:
        fh.write("name,n,e,clustering,dlog\n")
        for name, n, e, metric in measured:
            fh.write(f"{name},{n},{e},{metric.clustering!r},{metric.dlog!r}\n")
    with open(ws.scatter_csv, "w", encoding="ascii") as fh:
        fh.write("source,clustering,dlog\n")
        for row in rows:
            fh.write(f"result,{row.clustering!r},{row.dlog!r}\n")
        for name, _, _, metric in measured:
            fh.write(f"validation,{metric.clustering!r},{metric.dlog!r}\n")

    for name, n, e, metric in measured:
        print(f"{name}: N={n} E={e} clustering={metric.clustering:.4f} dlog={metric.dlog:.4f}")
    if not measured:
        print("coverage: n/a (no validation graphs)")
        return None
    cells = grid.locate([m.clustering for *_, m in measured], [m.dlog for *_, m in measured])
    hits = int(np.isin(cells, occupied).sum())
    coverage = hits / len(measured)
    print(f"coverage: {hits}/{len(measured)} = {coverage:.3f}")
    return coverage


def cmd_report(config: RunConfig) -> Path:
    """Summarize the manifests present under the output directory."""
    ws = _workspace(config)
    grid = config.metric_grid
    ws.report_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    f_min, f_max = fitness_bounds(grid.cell_count)
    lines.append(f"metric grid: {grid.clustering_bins}x{grid.dlog_bins}, fitness bounds [{f_min:.6f}, {f_max:.6f}]")
    found = False
    for label, manifest_path in (("baseline", ws.baseline_manifest), ("result", ws.result_manifest)):
        if not manifest_path.exists():
            continue
        found = True
        rows = read_manifest(manifest_path)
        points = [r.metric for r in rows]
        stats = compute_stats(points)
        cells = grid.locate([p.clustering for p in points], [p.dlog for p in points])
        hist = np.bincount(cells, minlength=grid.cell_count) / len(points)
        fitness = bargaining_fitness(hist)
        occupied = int(np.count_nonzero(hist))
        corr = "n/a" if stats.correlation is None else f"{stats.correlation:.4f}"
        emit_scatter_csv(points, ws.report_dir / f"{label}_scatter.csv")
        lines.append(
            f"{label}: count={stats.count} occupied_cells={occupied}/{grid.cell_count} "
            f"fitness={fitness:.6f} corr={corr} max_clustering={stats.max_clustering:.4f} "
            f"mean_clustering={stats.mean_clustering:.4f} mean_dlog={stats.mean_dlog:.4f}"
        )
    if not found:
        raise DataError(f"no manifests under {ws.root}; run baseline or generate first")
    text = "\n".join(lines) + "\n"
    ws.report_txt.write_text(text, encoding="ascii")
    print(text, end="")
    return ws.report_txt


# Config-file keys and their parsers: RunConfig's fields, typed by their defaults.
_CONFIG_KEYS: dict[str, Callable[[str], object]] = {f.name: type(f.default) for f in fields(RunConfig)}


def _read_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    for where, key, value in key_value_lines(Path(path), "config file", ConfigError):
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{where}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge precedence: flags, then config file, then environment, then defaults."""
    file_values = _read_config_file(args.config) if args.config else {}
    values: dict[str, object] = {}
    for name in _CONFIG_KEYS:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = flag
        elif name in file_values:
            values[name] = file_values[name]
    if "seed" not in values:
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                values["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"{ENV_SEED} must be an integer, got {env!r}") from None
    return RunConfig(**values)  # type: ignore[arg-type]


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("run configuration")
    g.add_argument("--config", metavar="FILE", help="flat key=value config file; flags override it")
    for f in fields(RunConfig):
        g.add_argument(
            f"--{f.name.replace('_', '-')}",
            dest=f.name,
            type=_CONFIG_KEYS[f.name],
            help=f"{f.metadata['help']} (default {f.default})",
        )

    parser = argparse.ArgumentParser(
        prog="graphbargain",
        description="Generate synthetic graph datasets spread evenly over metric space.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    sub.add_parser("baseline", parents=[common], help="generate the naive baseline dataset and its model")
    sub.add_parser("optimize", parents=[common], help="fit Beta parameter distributions to the model")
    sub.add_parser("generate", parents=[common], help="sample the result dataset from the fitted q")
    p_validate = sub.add_parser("validate", parents=[common], help="measure real graphs against the result dataset")
    p_validate.add_argument("files", nargs="*", metavar="GRAPH", help="MatrixMarket (.mtx) or edge-list files")
    sub.add_parser("report", parents=[common], help="summarize manifests in the output directory")
    return parser


# Each subcommand's handler, given the run config and the parsed arguments.
_COMMANDS: dict[str, Callable[[RunConfig, argparse.Namespace], object]] = {
    "baseline": lambda config, args: cmd_baseline(config),
    "optimize": lambda config, args: cmd_optimize(config),
    "generate": lambda config, args: cmd_generate(config),
    "validate": lambda config, args: cmd_validate(config, args.files),
    "report": lambda config, args: cmd_report(config),
}

# The documented exit code of each error a run reports without a traceback.
_EXIT_CODES: dict[type[Exception], int] = {ConfigError: 2, DataError: 3, CoverageCollapseError: 4, GenerationError: 5}


def main(argv: Sequence[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr)
    try:
        _COMMANDS[args.command](build_config(args), args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
