"""graphbargain benchmark: one workload, one seed, one measurement window.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 50 --trace 0

A worker process (``worker.py``, a fresh interpreter) sets up (writes the
workload's seeded inputs and imports the package in a fresh interpreter),
runs the workload's passes for ``--seconds`` and checks their outputs.
``setup_s`` is the median of the set-ups it times across the window.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. If the worker
fails, that line still comes, with ``correct`` false and every metric 0,
and the exit code is 1. A fuller record, with the machine's description and
the artifact digests, goes to ``.perfbench_out/results/``.

``--update-pins`` stores the digests of a run at the pinned seed in
``pinned.json``; later runs at that seed must reproduce them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pinned.json"
PIN_SEED = 1
RUN_LIMIT_S = 170.0
SANDBOX_LIMITS = (
    "shared machine: other tenants' load adds run-to-run spread; "
    "no page-cache dropping, so file reads may be served from cache; "
    "no system-wide tracing: spans come from wrappers in the benchmark's own process"
)


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def failure_summary(trace: int) -> str:
    """The summary line of a run whose worker failed."""
    units = metric_units("per_layer" if trace else "end_to_end")
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": metrics})


def environment() -> dict[str, object]:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "sandbox_limits": SANDBOX_LIMITS,
    }


def run_worker(args: argparse.Namespace, work: Path, budget: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Stop the worker, if still running, and any pool process it left in its session.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    result = work / "result.json"
    if code != 0 or not result.exists():
        tail = (work / "worker.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {code}:\n{tail}")
    return json.loads(result.read_text(encoding="ascii"))


def compare_pins(workload: str, seed: int, digests: dict[str, str]) -> list[str]:
    if seed != PIN_SEED or not PINS.exists():
        return []
    pinned = json.loads(PINS.read_text(encoding="ascii"))["workloads"].get(workload)
    if pinned is None:
        return []
    return [f"{name}: digest differs from pinned.json" for name in sorted(pinned) if digests.get(name) != pinned[name]]


def update_pins(workload: str, digests: dict[str, str], env: dict[str, object]) -> None:
    data = json.loads(PINS.read_text(encoding="ascii")) if PINS.exists() else {"seed": PIN_SEED, "workloads": {}}
    data["recorded_with"] = {key: env[key] for key in ("python", "numpy", "scipy")}
    data["workloads"][workload] = digests
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="ascii")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true", help=f"record digests of a --seed {PIN_SEED} run")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (ROOT / "src" / "graphbargain" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = ROOT / ".perfbench_out" / "results"
    work = ROOT / ".perfbench_out" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    try:
        worker = run_worker(args, work, RUN_LIMIT_S - (perf_counter() - started))
        if args.trace:
            shutil.copyfile(work / "spans.json", results / f"{tag}-spans.json")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(failure_summary(args.trace))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {f"inputs/{name}": d for name, d in worker["input_digests"].items()}
    digests.update(worker["digests"])
    pin_problems = compare_pins(args.workload, args.seed, digests)
    problems = worker["problems"] + pin_problems
    attempted = worker["attempted"] + 1
    failed = worker["failed"] + bool(pin_problems)
    env = environment()
    if args.trace:
        units = metric_units("per_layer")
        values = worker["metrics"]
    else:
        units = metric_units("end_to_end")
        values = {"peak_rss_mb": worker["peak_rss_mb"], "setup_s": worker["setup_s"]}
        if "wall_s" in worker["metrics"]:
            values["wall_s"] = worker["metrics"]["wall_s"]
    # The metrics measured must be exactly those BENCHMARK.json names; a gap reads 0 and fails the run.
    attempted += 1
    absent, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
    if absent or extra:
        failed += 1
        problems.append(f"metrics not measured: {absent}; measured but not in BENCHMARK.json: {extra}")
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "jobs": worker["jobs"], "package_version": worker["package_version"], "environment": env,
        "metrics": metrics, "stage_metrics": worker["metrics"], "draws": worker["draws"],
        "problems": problems, "digests": digests,
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    if args.update_pins:
        if args.seed != PIN_SEED or worker["problems"]:
            print(f"error: pins come from a clean --seed {PIN_SEED} run", file=sys.stderr)
            return 1
        update_pins(args.workload, digests, env)

    print(f"{tag}: jobs={worker['jobs']} nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} commit={env['git_commit']}")
    if not args.trace:
        stage = worker["metrics"]
        print(f"  passes={stage.get('passes', 0)} graphs_per_s={stage.get('graphs_per_s', 0.0):.4f} 1/s "
              f"optimize_s={stage.get('optimize_s', 0.0):.4f} s validate_s={stage.get('validate_s', 0.0):.4f} s")
    for name, pairs in worker["draws"].items():
        print(f"  {name} (E, a): " + ", ".join(f"({e}, {a:.4f})" for e, a in pairs))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  problem: {problem}")
    summary = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
