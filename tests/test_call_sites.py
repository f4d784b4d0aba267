"""Layer functions stay reachable through the module attributes perfbench patches.

``perfbench/tracing.py`` times a layer by replacing a module attribute, for
example ``graphbargain.optimizer.predicted_mass``, with a wrapper. A refactor
that calls the function some other way (a local alias, a second copy beside
the batched one, a direct import into another module) leaves the wrapper idle,
and the traced benchmark then reports wrong self times and counts. These tests
wrap the same attributes with counters and pin the call counts of small fixed
runs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import graphbargain.cli
import graphbargain.graph
import graphbargain.optimizer
import graphbargain.rmat
from graphbargain.cli import RunConfig, cmd_generate
from graphbargain.dataset import read_manifest, write_qvector
from graphbargain.grids import conditional_from_pairs, split_model
from graphbargain.optimizer import optimize
from graphbargain.rmat import DegenerateParametersError, RmatParams, generate_graph


@pytest.fixture
def calls(monkeypatch):
    counts: Counter = Counter()
    counts.args = {}  # name -> the positional arguments of each call

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            counts.args.setdefault(name, []).append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(graphbargain.optimizer, "predicted_mass")
    counting(graphbargain.optimizer, "bargaining_fitness")
    counting(graphbargain.rmat, "generate_raw_edges")
    counting(graphbargain.graph, "mean_local_clustering")
    counting(graphbargain.cli, "write_edge_list")
    return counts


def pinned_model():
    rng = np.random.default_rng(31)
    param_bins, metric_bins = 6, 4
    records = 600
    flat = rng.integers(0, param_bins**4, size=records)
    metric = (flat * 7 + rng.integers(0, 3, size=records)) % metric_bins**2
    return conditional_from_pairs(metric_bins, param_bins, flat, metric, np.ones(records, dtype=np.int64))


def test_optimize_calls_predicted_mass_and_fitness_once_per_evaluation(calls):
    train, hold = split_model(pinned_model(), 0.25, seed=4)
    _, trace = optimize(train, hold, pop=6, max_gen=5, tol=1e-3, seed=9)
    assert trace["generation"][-1] == 5
    # 2 uniform coverage probes, 12 initial evaluations, 30 trials and 12
    # accepted trials re-scored on the holdout; no candidate fell below the
    # coverage floor, so every evaluation but the probes reached the fitness.
    assert calls["predicted_mass"] == 56
    assert calls["bargaining_fitness"] == 54
    assert calls["generate_raw_edges"] == 0


def test_generate_graph_draws_raw_edges_through_its_module(calls):
    generate_graph(RmatParams(64, 200, 0.45, 0.2, 0.2, 0.15), seed=5)
    assert calls["generate_raw_edges"] == 1
    with pytest.raises(DegenerateParametersError):
        generate_graph(RmatParams(2, 1, 1.0, 0.0, 0.0, 0.0), seed=0)
    assert calls["generate_raw_edges"] == 1 + graphbargain.rmat.MAX_ATTEMPTS
    assert calls["predicted_mass"] == calls["bargaining_fitness"] == 0


def test_generate_measures_and_writes_each_graph_through_its_module(calls, tmp_path):
    q_path = tmp_path / "q.txt"
    write_qvector(np.ones(8), q_path)
    config = RunConfig(n=12, e_min=30, e_max=90, seed=5, out=str(tmp_path / "run"))
    rows = read_manifest(cmd_generate(config, q_path))
    assert len(rows) == 12
    # the 12 slots run in batches of len(tasks) // 4 = 3, each measured by one
    # clustering pass over its disjoint union; every graph is written once
    assert calls["mean_local_clustering"] == 4
    assert calls["write_edge_list"] == 12
    # the unions cover every slot's nodes exactly once, in slot order
    measured = calls.args["mean_local_clustering"]
    assert [union.node_count for union, sizes in measured] == [sum(sizes) for _, sizes in measured]
    assert [n for _, sizes in measured for n in sizes] == rows["n_final"].tolist()
    assert calls["generate_raw_edges"] == 12
    assert calls["predicted_mass"] == calls["bargaining_fitness"] == 0
