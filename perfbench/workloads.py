"""The two workloads: their seeded inputs and the commands one pass runs.

Both workloads run all five commands through the public API
(``graphbargain.cli.RunConfig`` and ``cmd_*``), so every layer does some
work in each; what differs is the scale:

* ``desk-pipeline``: the whole pipeline at the acceptance fixture's edge
  range (E from 1e3 to 1e4) and default grids and optimizer, with
  ``--jobs`` = min(nproc, 2). Hundreds of small graphs, so fixed per-graph
  costs dominate.
* ``paper-graphs``: the paper's scale with ``--jobs 1``. ``generate``
  makes four near-uniform draws of about 1e5 edges, where sanitize and
  writing dominate; ``validate`` cleans a skewed 2e5-sample RMAT file,
  where clustering dominates, and a planted 1.6e5-edge graph; ``optimize``
  parses and searches a 10000-record synthetic model (the paper's n) for
  two split seeds. A 12-graph baseline and a 12-graph generate with E from
  1e3 to 2e3 keep the remaining layers' spans non-empty.

Pass ``i`` of a run uses program seed ``VARIANTS * seed + i % VARIANTS``,
so the median over passes covers several parameter draws of the same
workload rather than one draw timed repeatedly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import inputs

WORKLOADS = ("desk-pipeline", "paper-graphs")
VARIANTS = 4

DESK_EDGES = (1_000, 10_000)
DESK_GRAPHS = 300
# The supporting graphs of paper-graphs stay small, so that neither their
# time nor their memory varies much with the draws.
MINI_EDGES = (1_000, 2_000)
MINI_GRAPHS = 12
MODEL_RECORDS = 10_000
SPLIT_SEEDS = 2
# Fifteen generations is the optimizer's patience, so every split runs all
# of them: the work per split does not hinge on when the search stalls.
SPLIT_GENERATIONS = 15

# Unit-point means (N, a, b, c) of the pinned Beta vectors.
MINI_Q = (0.5, 0.3, 0.5, 0.5)
UNIFORM_Q = (0.5, 0.1, 0.5, 0.5)
UNIFORM_EDGES = (100_000, 101_000)
UNIFORM_GRAPHS = 4
Q_CONCENTRATION = 100.0
# params_from_unit(200000, UnitPoint(0.2, 0.5, 0.5, 0.5)): a skewed draw.
SKEWED_RMAT = (41_601, 200_000, (0.625, 0.1875, 0.09375, 0.09375))


def jobs_for(workload: str) -> int:
    if workload == "desk-pipeline":
        return max(1, min(2, len(os.sched_getaffinity(0))))
    return 1


def make_inputs(workload: str, seed: int, directory: Path) -> None:
    """Write the workload's inputs and ``expected.json`` into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    expected = []
    if workload == "desk-pipeline":
        for k, (n, chords, symmetric, valued) in enumerate(
            ((600, 1500, False, True), (900, 3000, True, False), (1200, 2400, False, False), (1500, 4500, True, True))
        ):
            expected.append(inputs.write_validation_mtx(directory / f"desk{k}.mtx", rng, n, chords, symmetric, valued))
    else:
        inputs.write_pinned_q(directory / "mini_q.txt", MINI_Q, Q_CONCENTRATION)
        inputs.write_pinned_q(directory / "uniform_q.txt", UNIFORM_Q, Q_CONCENTRATION)
        inputs.write_synthetic_model(directory / "model.txt", rng, MODEL_RECORDS)
        expected.append(inputs.write_validation_mtx(directory / "planted.mtx", rng, 40_000, 80_000, False, False))
        expected.append(inputs.write_rmat_mtx(directory / "skewed.mtx", rng, *SKEWED_RMAT))
    (directory / "expected.json").write_text(json.dumps([e.__dict__ for e in expected], indent=1), encoding="ascii")


@dataclass
class Step:
    stage: str
    call: Callable[[], object]
    graphs: int = 0


@dataclass
class Plan:
    """One pass: the steps in order, and the manifests it must leave behind."""

    steps: list[Step] = field(default_factory=list)
    manifests: list[tuple[Path, int]] = field(default_factory=list)  # (path, expected row count)


def build_plan(workload: str, seed: int, variant: int, jobs: int, inputs_dir: Path, out: Path) -> Plan:
    from graphbargain.cli import RunConfig, Workspace, cmd_baseline, cmd_generate, cmd_optimize, cmd_report, cmd_validate

    program_seed = VARIANTS * seed + variant
    mtx = sorted(str(p) for p in inputs_dir.glob("*.mtx"))
    n, (e_min, e_max) = (DESK_GRAPHS, DESK_EDGES) if workload == "desk-pipeline" else (MINI_GRAPHS, MINI_EDGES)
    main = RunConfig(n=n, e_min=e_min, e_max=e_max, seed=program_seed, jobs=jobs, out=str(out / "main"))
    ws = Workspace(Path(main.out))
    plan = Plan(manifests=[(ws.baseline_manifest, n), (ws.result_manifest, n)])
    plan.steps.append(Step("baseline", lambda: cmd_baseline(main), n))
    if workload == "desk-pipeline":
        plan.steps.append(Step("optimize", lambda: cmd_optimize(main)))
        plan.steps.append(Step("generate", lambda: cmd_generate(main), n))
    else:
        plan.steps.append(Step("generate", lambda: cmd_generate(main, inputs_dir / "mini_q.txt"), n))
        for k in range(SPLIT_SEEDS):
            split = RunConfig(seed=SPLIT_SEEDS * program_seed + k, max_gen=SPLIT_GENERATIONS, out=str(out / f"split{k}"))
            plan.steps.append(Step("optimize", lambda split=split: cmd_optimize(split, inputs_dir / "model.txt")))
        big = RunConfig(
            n=UNIFORM_GRAPHS, e_min=UNIFORM_EDGES[0], e_max=UNIFORM_EDGES[1], seed=program_seed, jobs=jobs, out=str(out / "uniform")
        )
        plan.steps.append(Step("generate", lambda: cmd_generate(big, inputs_dir / "uniform_q.txt"), big.n))
        plan.manifests.append((Workspace(Path(big.out)).result_manifest, big.n))
    plan.steps.append(Step("validate", lambda: cmd_validate(main, mtx)))
    plan.steps.append(Step("report", lambda: cmd_report(main)))
    return plan
