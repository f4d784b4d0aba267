"""Command line front end: baseline, optimize, generate, validate, report.

Subcommands compose through a shared output directory, laid out by Workspace:

    baseline  writes <out>/baseline/{manifest.csv,model.txt,graphs/}
    optimize  reads the model, writes <out>/optimize/{best_q.txt,trace.csv}
    generate  reads best_q, writes <out>/result/{manifest.csv,graphs/}
    validate  reads the result manifest plus real graph files,
              writes <out>/validate/metrics.csv
    report    summarizes whichever manifests exist, writes <out>/report/report.txt

Every command is reproducible from (config, seed): parameter draws and
per-graph seeds come from dedicated streams that are advanced serially, so
--jobs changes wall time but never output bytes; the draws alone also fix which
graphs are measured together, as one disjoint union.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .dataset import (
    MANIFEST_DTYPE,
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
from .errors import ConfigError, DataError, GenerationError
from .graph import Graph, metric_projection
from .grids import METRIC_BINS, build_conditional, load_conditional, metric_cells, save_conditional, split_model
from .objective import bargaining_fitness, fitness_bounds
from .optimizer import TRACE_DTYPE, optimize
from .params import check_edge_interval, sample_baseline, sample_from_q, unit_point
from .rmat import MAX_ATTEMPTS, DegenerateParametersError, RmatParams, generate_graph

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

# Tags keep the per-command random streams disjoint under one user seed.
_TAG_BASELINE_PARAMS = 1
_TAG_BASELINE_GRAPHS = 2
_TAG_SPLIT = 3
_TAG_GENERATE_PARAMS = 4
_TAG_GENERATE_GRAPHS = 5

# Graph seeds leave headroom for the retry window inside generate_graph, which
# tries seed, seed + 1, ..., seed + MAX_ATTEMPTS - 1.
_SEED_SPAN = 2**63 - MAX_ATTEMPTS

# Consecutive slots are measured together, as one disjoint union, while their
# requested edges (the sum of e_param) stay within this budget: at desk scale a
# clustering pass costs mostly its fixed per-call overhead. A slot above the
# budget forms a batch of its own.
_BATCH_EDGES = 1 << 16

# A slot's task (slot, params, seed, graph path) and its outcome (n_final,
# e_final, clustering, dlog), None when its parameters proved degenerate.
_Task = tuple[int, RmatParams, int, str]
_Outcome = tuple[int, int, float, float] | None

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
    max_gen: int = _setting(50, "optimizer generation cap")
    seed: int = _setting(0, "random seed")
    jobs: int = _setting(1, "worker processes for graph generation")
    out: str = _setting("out", "output directory")

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("n must be at least 1")
        try:
            check_edge_interval(self.e_min, self.e_max)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        if self.max_gen < 1:
            raise ConfigError("max_gen must be at least 1")


class Workspace:
    """Every path a command reads or writes under the output directory, except the per-slot edge lists."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.baseline_dir = root / "baseline"
        self.baseline_manifest = self.baseline_dir / "manifest.csv"
        self.baseline_model = self.baseline_dir / "model.txt"
        self.baseline_graphs = self.baseline_dir / "graphs"
        self.optimize_dir = root / "optimize"
        self.best_q = self.optimize_dir / "best_q.txt"
        self.trace = self.optimize_dir / "trace.csv"
        self.result_dir = root / "result"
        self.result_manifest = self.result_dir / "manifest.csv"
        self.result_graphs = self.result_dir / "graphs"
        self.validation_csv = root / "validate" / "metrics.csv"
        self.report_dir = root / "report"
        self.report_txt = self.report_dir / "report.txt"


def _run_batch(batch: list[_Task]) -> list[_Outcome]:
    """Generate a batch's graphs, measure them in one call, write each edge list."""
    graphs: dict[int, Graph] = {}
    for k, (_, params, seed, _) in enumerate(batch):
        try:
            graphs[k] = generate_graph(params, seed)
        except DegenerateParametersError:
            pass
    outcomes: list[_Outcome] = [None] * len(batch)
    if graphs:
        for (k, g), point in zip(graphs.items(), metric_projection(*graphs.values())):
            write_edge_list(g, batch[k][3])
            outcomes[k] = (g.node_count, g.edge_count, *point)
    return outcomes


def _batches(tasks: list[_Task]) -> list[list[_Task]]:
    """Consecutive tasks, at most _BATCH_EDGES requested edges per batch; a larger slot stands alone."""
    batches: list[list[_Task]] = []
    edges = 0
    for task in tasks:
        e_param = task[1].e_param
        if not batches or edges + e_param > _BATCH_EDGES:
            batches.append([])
            edges = 0
        batches[-1].append(task)
        edges += e_param
    return batches


def _run_tasks(tasks: list[_Task], jobs: int) -> list[_Outcome]:
    """Each task's outcome, in order; the tasks run in batches, one batch per pool task."""
    batches = _batches(tasks)
    workers = min(jobs, len(batches))
    if workers == 1:
        return [outcome for batch in batches for outcome in _run_batch(batch)]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import active_children

    # Load the scipy modules that every graph needs once, here, so forked
    # workers inherit them instead of each importing them again.
    importlib.import_module("scipy.sparse.csgraph")
    earlier = set(active_children())
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            try:  # map submits every batch at once, which starts the workers
                results = pool.map(_run_batch, batches)
            except OSError as exc:
                # The workers that did start would wait for tasks forever, and
                # the interpreter waits for its child processes before it exits.
                for worker in set(active_children()) - earlier:
                    worker.terminate()
                    worker.join()
                raise GenerationError(f"worker processes could not start ({exc})") from exc
            return [outcome for batch in results for outcome in batch]
    except BrokenProcessPool as exc:
        raise GenerationError(f"a worker process died ({exc})") from exc


def _generate_dataset(
    config: RunConfig,
    label: str,
    tags: tuple[int, int],
    draw: Callable[[np.random.Generator], RmatParams],
    graphs_dir: Path,
    manifest: Path,
) -> np.ndarray:
    """Sample config.n graphs, write their files and manifest, and return the MANIFEST_DTYPE table.

    ``draw(rng)`` gives a slot's parameters from the stream tagged tags[0], and
    graph seeds come from tags[1]. Both streams advance serially between rounds,
    so output does not depend on --jobs. Degenerate draws are logged and resampled.
    """
    rng_params, rng_seeds = (np.random.default_rng([config.seed, tag]) for tag in tags)
    try:
        table = np.zeros(config.n, MANIFEST_DTYPE)
    except ValueError as exc:  # numpy refuses, before allocating, a size beyond what it can address
        raise MemoryError(f"{label}: a manifest of {config.n} rows: {exc}") from exc
    pending = list(range(config.n))
    for _ in range(_MAX_ROUNDS):
        tasks = []
        for slot in pending:
            params = draw(rng_params)
            seed = int(rng_seeds.integers(0, _SEED_SPAN))
            tasks.append((slot, params, seed, str(graphs_dir / f"g{slot:06d}.txt")))
        outcomes = _run_tasks(tasks, config.jobs)
        pending = []
        for (slot, params, seed, _), outcome in zip(tasks, outcomes):
            if outcome is None:
                logger.warning("%s graph %d: degenerate parameters, resampling", label, slot)
                pending.append(slot)
                continue
            recipe = (slot, seed, params.n_param, params.e_param, params.a, params.b, params.c, params.d)
            table[slot] = (*recipe, *unit_point(params), *outcome)
        if not pending:
            break
    else:
        raise GenerationError(f"{label}: {len(pending)} graphs still degenerate after {_MAX_ROUNDS} rounds")
    write_manifest(table, manifest)
    short = int(np.count_nonzero(table["e_final"] < config.e_min))
    logger.info("%s: wrote %s; %d of %d graphs end below e_min = %d edges", label, manifest, short, config.n, config.e_min)
    return table


def cmd_baseline(config: RunConfig) -> tuple[Path, Path]:
    """Generate the naive baseline dataset and build its conditional model."""
    ws = Workspace(Path(config.out))
    logger.info("baseline: generating %d graphs with E in [%d, %d]", config.n, config.e_min, config.e_max)
    table = _generate_dataset(
        config, "baseline", (_TAG_BASELINE_PARAMS, _TAG_BASELINE_GRAPHS),
        lambda rng: sample_baseline(config.e_min, config.e_max, rng),
        ws.baseline_graphs, ws.baseline_manifest,
    )
    units = np.column_stack([table[name] for name in ("u_n", "u_a", "u_b", "u_c")])
    model = build_conditional(units, table["clustering"], table["dlog"])
    save_conditional(model, ws.baseline_model)
    logger.info("baseline: wrote %s", ws.baseline_model)
    return ws.baseline_manifest, ws.baseline_model


def cmd_optimize(config: RunConfig, model_path: str | Path | None = None) -> Path:
    """Fit the Beta parameter vector against the stored conditional model."""
    ws = Workspace(Path(config.out))
    path = Path(model_path) if model_path is not None else ws.baseline_model
    if not path.exists():
        raise DataError(f"model file {path} not found; run baseline first")
    model = load_conditional(path)
    split_seed = int(np.random.default_rng([config.seed, _TAG_SPLIT]).integers(2**63))
    try:
        train, hold = split_model(model, split_seed)
    except ValueError as exc:
        raise DataError(f"{path}: cannot split {model.total} records: {exc}") from exc
    best_q, trace = optimize(train, hold, max_gen=config.max_gen, seed=config.seed)
    generations, _, holdout_fitness, coverage = trace[-1].tolist()
    extra = {"holdout_fitness": holdout_fitness, "coverage": coverage, "generations": generations, "seed": config.seed}
    write_qvector(best_q, ws.best_q, extra=extra)
    write_ascii(ws.trace, csv_lines(TRACE_DTYPE.names, trace.tolist()))
    logger.info("optimize: holdout fitness %.6f after %d generations, wrote %s", holdout_fitness, generations, ws.best_q)
    return ws.best_q


def cmd_generate(config: RunConfig, q_path: str | Path | None = None) -> Path:
    """Sample the result dataset from the optimized parameter distributions."""
    ws = Workspace(Path(config.out))
    path = Path(q_path) if q_path is not None else ws.best_q
    if not path.exists():
        raise DataError(f"q vector file {path} not found; run optimize first")
    q = read_qvector(path)
    logger.info("generate: sampling %d graphs from %s", config.n, path)
    _generate_dataset(
        config, "result", (_TAG_GENERATE_PARAMS, _TAG_GENERATE_GRAPHS),
        lambda rng: sample_from_q(q, config.e_min, config.e_max, rng),
        ws.result_graphs, ws.result_manifest,
    )
    return ws.result_manifest


def _read_validation_graph(path: Path) -> Graph:
    """The graph of a MatrixMarket file (.mtx) or of an edge list (any other suffix), cleaned alike by sanitize."""
    if not (path.name.isascii() and path.name.isprintable()) or "," in path.name:
        raise DataError(f"{path}: a metrics.csv name must be printable ASCII without commas")
    return read_matrix_market(path) if path.suffix.lower() == ".mtx" else read_edge_list(path)


def cmd_validate(config: RunConfig, files: Sequence[str]) -> float | None:
    """Measure real graphs and check how many land in occupied metric cells."""
    ws = Workspace(Path(config.out))
    if not ws.result_manifest.exists():
        raise DataError(f"result manifest {ws.result_manifest} not found; run generate first")
    table = read_manifest(ws.result_manifest)
    occupied = metric_cells(table["clustering"], table["dlog"])

    measured: list[tuple[str, int, int, float, float]] = []
    for name in files:
        try:
            g = _read_validation_graph(Path(name))
        except DataError as exc:
            logger.error("validate: skipping %s: %s", name, exc)
            continue
        (point,) = metric_projection(g)
        measured.append((Path(name).name, g.node_count, g.edge_count, *point))

    write_ascii(ws.validation_csv, csv_lines(("name", "n", "e", "clustering", "dlog"), measured))

    for name, n, e, clustering, dlog in measured:
        print(f"{name}: N={n} E={e} clustering={clustering:.4f} dlog={dlog:.4f}")
    if not measured:
        print("coverage: n/a (no validation graphs)")
        return None
    cells = metric_cells([m[3] for m in measured], [m[4] for m in measured])
    hits = int(np.isin(cells, occupied).sum())
    coverage = hits / len(measured)
    print(f"coverage: {hits}/{len(measured)} = {coverage:.3f}")
    return coverage


def cmd_report(config: RunConfig) -> Path:
    """Summarize the manifests present under the output directory."""
    ws = Workspace(Path(config.out))
    sources = (("baseline", ws.baseline_manifest), ("result", ws.result_manifest))
    tables = [(label, read_manifest(path)) for label, path in sources if path.exists()]
    if not tables:
        raise DataError(f"no manifests under {ws.root}; run baseline or generate first")
    cells = METRIC_BINS**2
    f_min, f_max = fitness_bounds(cells)
    lines = [f"metric grid: {METRIC_BINS}x{METRIC_BINS}, fitness bounds [{f_min:.6f}, {f_max:.6f}]"]
    for label, table in tables:
        clustering, dlog = table["clustering"], table["dlog"]
        _, counts = np.unique(metric_cells(clustering, dlog), return_counts=True)
        fitness = bargaining_fitness(counts / len(table), cells)
        occupied = len(counts)
        corr = correlation(clustering, dlog)
        corr_text = "n/a" if corr is None else f"{corr:.4f}"
        lines.append(
            f"{label}: count={len(table)} occupied_cells={occupied}/{cells} "
            f"fitness={fitness:.6f} corr={corr_text} max_clustering={clustering.max():.4f} "
            f"mean_clustering={clustering.mean():.4f} mean_dlog={dlog.mean():.4f}"
        )
    write_ascii(ws.report_txt, lines)
    print("\n".join(lines))
    return ws.report_txt


def build_config(args: argparse.Namespace) -> RunConfig:
    """The run settings: each flag that was given, else its default."""
    return RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})


def _make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("run configuration")
    for f in fields(RunConfig):
        flag, description = f"--{f.name.replace('_', '-')}", f"{f.metadata['help']} (default {f.default})"
        g.add_argument(flag, type=type(f.default), default=f.default, help=description)

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
# Readers turn OSError into DataError, so an OSError here is a failed write.
_EXIT_CODES: dict[type[Exception], int] = {
    ConfigError: 2, DataError: 3, GenerationError: 5, OSError: 6, MemoryError: 7,
}


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
