"""Measurement process: runs one workload's passes in a fresh interpreter.

Started by ``run.py`` with the checkout root, the workload, the seed, the
measurement window and the trace flag. Writes ``result.json`` into the work
directory. It first sets up: writes the workload's seeded inputs and imports
the package in a fresh interpreter. Untraced mode repeats the workload's pass
at its own ``--jobs``, cycling through the program-seed variants, until the
window is spent, and times a fresh set-up after each of the first passes, so
that the set-up times, like the pass times, sample the whole window.
Traced mode repeats rounds of variant 0: an untraced pass at the workload's
jobs, an untraced pass at ``--jobs 1`` and a traced pass at ``--jobs 1``.
The traced pass is compared with the second, so that both run warm. Every pass of a variant must leave the same artifact
digests, and every traced round the same counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracing import Tracer

MIN_PASSES = 3
SETUP_REPEATS = 5  # timed set-ups of an untraced run: one before the passes, then one after each pass
DRAWS_SHOWN = 4  # manifests this small list the (E, a) of each draw


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, src: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.probe = f"import sys; sys.path.insert(0, {str(src)!r}); import graphbargain.cli"
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.log = work / "program.log"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[int, dict[str, str]] = {}
        self.draws: dict[str, list[tuple[int, float]]] = {}
        self.setup_s: list[float] = []
        self.input_digests: dict[str, str] | None = None
        self.unmeasured_s = 0.0  # checks and set-ups, kept out of the measurement window

    def import_package(self) -> None:
        subprocess.run([sys.executable, "-c", self.probe], check=True)

    def set_up(self, directory: Path) -> None:
        """Write the inputs into ``directory`` and import the package in a fresh interpreter, timed.

        The importing interpreter is a child, so its peak RSS enters the
        children's ``ru_maxrss``; it stays far below the measuring process's.
        """
        start = perf_counter()
        workloads.make_inputs(self.workload, self.seed, directory)
        self.import_package()
        self.setup_s.append(perf_counter() - start)
        found = {p.name: checks.sha256(p) for p in sorted(directory.iterdir())}
        self.attempted += 1
        if self.input_digests is None:
            self.input_digests = found
        elif found != self.input_digests:
            self.failed += 1
            self.problems.append("set-up wrote different inputs for the same seed")
        self.unmeasured_s += perf_counter() - start

    def run_pass(self, jobs: int, variant: int, tracer: Tracer | None = None) -> dict | None:
        """One pass of the workload's commands; None if a command raised."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        plan = workloads.build_plan(self.workload, self.seed, variant, jobs, self.inputs, self.out)
        stages: dict[str, float] = {}
        graphs = 0
        with open(self.log, "a", encoding="utf-8") as log, contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            for step in plan.steps:
                self.attempted += 1
                t0 = perf_counter()
                try:
                    if tracer is None:
                        step.call()
                    else:
                        tracer.call(f"cli.cmd_{step.stage}", step.call)
                except Exception:
                    self.failed += 1
                    log.write(f"{step.stage} raised:\n{traceback.format_exc()}")
                    self.problems.append(f"{step.stage} raised; see program.log")
                    return None
                stages[step.stage] = stages.get(step.stage, 0.0) + perf_counter() - t0
                graphs += step.graphs
            wall = perf_counter() - start
        self._check(plan, variant)
        return {"wall_s": wall, "stages": stages, "graphs": graphs}

    def _check(self, plan: workloads.Plan, variant: int) -> None:
        """Digests must repeat across passes of one variant; its first pass is checked in full."""
        start = perf_counter()
        found = checks.digests(self.out)
        reference = self.references.setdefault(variant, found)
        if reference is not found:
            if found != reference:
                self.failed += 1
                self.problems.append(f"variant {variant}: artifact digests differ from its first pass")
            self.unmeasured_s += perf_counter() - start
            return
        problems = []
        for manifest, rows in plan.manifests:
            problems += checks.check_manifest(manifest, rows, sample=3)
            if variant == 0 and manifest.exists() and rows <= DRAWS_SHOWN:
                self.draws[str(manifest.relative_to(self.out))] = checks.draws(manifest)
        for q in sorted(self.out.rglob("best_q.txt")):
            problems += checks.check_qvector(q)
        for report in sorted(self.out.rglob("report.txt")):
            ws = report.parent.parent
            counts = {m.parent.name: rows for m, rows in plan.manifests if m.parent.parent == ws}
            problems += checks.check_report(report, counts)
        metrics = sorted(self.out.rglob("metrics.csv"))
        if len(metrics) != 1:
            problems.append(f"expected one validate/metrics.csv, found {len(metrics)}")
        else:
            problems += checks.check_validation(metrics[0], self.inputs / "expected.json")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        self.unmeasured_s += perf_counter() - start


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def stage_metrics(passes: list[dict]) -> dict[str, float]:
    """Medians over passes of the command-level figures."""

    def stage(p: dict, *names: str) -> float:
        return sum(p["stages"].get(n, 0.0) for n in names)

    return {
        "wall_s": _median([p["wall_s"] for p in passes]),
        "graphs_per_s": _median([p["graphs"] / stage(p, "baseline", "generate") for p in passes]),
        "optimize_s": _median([stage(p, "optimize") for p in passes]),
        "validate_s": _median([stage(p, "validate") for p in passes]),
        "generating_s": _median([stage(p, "baseline", "generate") for p in passes]),
        "passes": len(passes),
    }


def measure(runner: Runner, jobs: int, seconds: float) -> dict:
    passes: list[dict] = []
    start = perf_counter()
    for count in itertools.count():
        result = runner.run_pass(jobs, count % workloads.VARIANTS)
        if result is None:
            break
        passes.append(result)
        if len(runner.setup_s) < SETUP_REPEATS:
            runner.set_up(runner.work / "setup")
            shutil.rmtree(runner.work / "setup")
        elapsed = perf_counter() - start - runner.unmeasured_s
        typical = _median([p["wall_s"] for p in passes])
        if elapsed + typical > seconds and (len(passes) >= MIN_PASSES or elapsed + typical > 2 * seconds):
            break
    return stage_metrics(passes) if passes else {}


def self_timed_layers(root: Path) -> list[str]:
    """The layers whose self time BENCHMARK.json lists as a per-layer metric."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"].removesuffix(".self_s") for m in spec["per_layer"] if m["name"].endswith(".self_s")]


def measure_traced(runner: Runner, jobs: int, seconds: float, spans_path: Path, self_timed: list[str]) -> dict:
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        parallel = runner.run_pass(jobs, 0)
        serial = runner.run_pass(1, 0)
        tracer = Tracer()
        with tracer.installed():
            traced = runner.run_pass(1, 0, tracer)
        if None in (parallel, serial, traced):
            break
        layers, silent = tracer.layer_metrics(self_timed)
        runner.attempted += 1
        if silent:
            runner.failed += 1
            runner.problems.append(f"traced pass left no span of {', '.join(silent)}")
        rounds.append((parallel, serial, traced, layers))
        if len(rounds) == 1:
            spans_path.write_text(json.dumps({"spans": tracer.dump()}), encoding="ascii")
        elif _counts(rounds[-1][3]) != _counts(rounds[0][3]):
            runner.failed += 1
            runner.problems.append("traced counts differ between rounds")
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    if not rounds:
        return {}
    metrics = {name: _median([r[3][name] for r in rounds]) for name in rounds[0][3]}
    par = stage_metrics([r[0] for r in rounds])
    ser = stage_metrics([r[1] for r in rounds])
    tr = stage_metrics([r[2] for r in rounds])
    metrics.update(
        {
            "cli.graphs_per_s": par["graphs_per_s"],
            "cli.optimize_s": par["optimize_s"],
            "cli.validate_s": par["validate_s"],
            "cli.pool_efficiency": ser["generating_s"] / (jobs * par["generating_s"]),
            "trace.overhead_s": tr["wall_s"] - ser["wall_s"],
        }
    )
    return metrics


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()
    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import graphbargain

    if Path(graphbargain.__file__).resolve().parent != (src / "graphbargain").resolve():
        print(f"imported graphbargain from {graphbargain.__file__}, not from {src}", file=sys.stderr)
        return 2
    work = Path(args.work)
    logging.basicConfig(filename=work / "program.log", level=logging.WARNING)
    runner = Runner(args.workload, args.seed, work, src)
    if not args.trace:
        runner.import_package()  # warm-up: the first import after a pause is slower
    runner.set_up(runner.inputs)
    jobs = workloads.jobs_for(args.workload)
    if args.trace:
        metrics = measure_traced(runner, jobs, args.seconds, work / "spans.json", self_timed_layers(root))
    else:
        metrics = measure(runner, jobs, args.seconds)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "metrics": metrics,
        "peak_rss_mb": peak_kb / 1024.0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "setup_s": _median(runner.setup_s),
        "input_digests": runner.input_digests,
        "digests": runner.references.get(0, {}),
        "draws": runner.draws,
        "jobs": jobs,
        "package_version": graphbargain.__version__,
    }
    (work / "result.json").write_text(json.dumps(result, indent=1), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
