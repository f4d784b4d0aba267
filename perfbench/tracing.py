"""In-memory spans around the package's layer functions, and their reduction.

The tracer patches module attributes that the package calls through (for
example ``graphbargain.rmat.sanitize``, which ``generate_graph`` looks up in
its own module) and restores them on exit. It is single-threaded: traced
passes run with ``--jobs 1`` so every call happens in this process.

A span is (name, start, end, parent index). A layer's self time is its
spans' durations minus the time covered by their direct child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator


def _raw_edges(counts: Counter, args: tuple, result: object) -> None:
    counts["rmat.generate_raw_edges.edges"] += len(result)


def _sanitize_in(counts: Counter, args: tuple) -> None:
    counts["rmat.sanitize.raw_edges"] += len(args[0])


def _sanitize_out(counts: Counter, args: tuple, result: object) -> None:
    counts["rmat.sanitize.final_edges"] += result.edge_count


def _wedges(counts: Counter, args: tuple) -> None:
    # Computed, not counted by the program: sum over edges (u, v) of deg(u).
    deg = args[0].degrees.astype("int64")
    counts["graph.mean_local_clustering.wedges_computed"] += int((deg * deg).sum())


def _written_bytes(counts: Counter, args: tuple, result: object) -> None:
    counts["dataset.write_edge_list.bytes"] += os.path.getsize(args[1])


def _read_bytes(counts: Counter, args: tuple) -> None:
    counts["dataset.read_matrix_market.bytes"] += os.path.getsize(args[0])


# (module, attribute, span name, hook before the call, hook after it)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("cli", "sample_baseline", "params.sample_baseline", None, None),
    ("cli", "sample_from_q", "params.sample_from_q", None, None),
    ("cli", "generate_graph", "rmat.generate_graph", None, None),
    ("cli", "write_edge_list", "dataset.write_edge_list", None, _written_bytes),
    ("cli", "write_manifest", "dataset.write_manifest", None, None),
    ("cli", "read_manifest", "dataset.read_manifest", None, None),
    ("cli", "read_matrix_market", "dataset.read_matrix_market", _read_bytes, None),
    ("cli", "metric_projection", "graph.metric_projection", None, None),
    ("cli", "build_conditional", "grids.build_conditional", None, None),
    ("cli", "save_conditional", "grids.save_conditional", None, None),
    ("cli", "load_conditional", "grids.load_conditional", None, None),
    ("cli", "split_model", "optimizer.split_model", None, None),
    ("cli", "optimize", "optimizer.optimize", None, None),
    ("cli", "bargaining_fitness", "objective.bargaining_fitness", None, None),
    ("rmat", "generate_raw_edges", "rmat.generate_raw_edges", None, _raw_edges),
    ("rmat", "sanitize", "rmat.sanitize", _sanitize_in, _sanitize_out),
    ("rmat", "largest_connected_component", "graph.largest_connected_component", None, None),
    ("rmat", "metric_projection", "graph.metric_projection", None, None),
    ("dataset", "sanitize", "rmat.sanitize", _sanitize_in, _sanitize_out),
    ("graph", "mean_local_clustering", "graph.mean_local_clustering", _wedges, None),
    ("optimizer", "predicted_mass", "grids.predicted_mass", None, None),
    ("optimizer", "bargaining_fitness", "objective.bargaining_fitness", None, None),
)

class Tracer:
    """Spans kept in memory as [name, start, end, parent] plus event counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn: Callable, before: Callable | None, after: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            if before is not None:
                before(self.counts, args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(self.counts, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target and restore the originals on exit; a missing target raises AttributeError."""
        saved = []
        try:
            for module_name, attr, name, before, after in TARGETS:
                module = importlib.import_module(f"graphbargain.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, self_timed: list[str]) -> tuple[dict[str, float], list[str]]:
        """Self times of the ``self_timed`` layers, the counts and the ratios derived from them.

        Also returns the ``self_timed`` layers that left no span, so a layer the
        package stopped calling through its patched attribute does not pass as 0 s.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        validate_projection = 0.0
        optimize_s = 0.0
        evals = 0
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if name == "graph.metric_projection" and self._inside(i, "cli.cmd_validate"):
                validate_projection += end - start
            elif name == "optimizer.optimize":
                optimize_s += end - start
            elif name == "grids.predicted_mass" and self._inside(i, "optimizer.optimize"):
                evals += 1
        out = {f"{name}.self_s": self_s[name] for name in self_timed}
        raw = self.counts["rmat.sanitize.raw_edges"]
        out.update(
            {
                "rmat.generate_raw_edges.edges": self.counts["rmat.generate_raw_edges.edges"],
                "rmat.sanitize.final_edges": self.counts["rmat.sanitize.final_edges"],
                "rmat.sanitize.kept_ratio": self.counts["rmat.sanitize.final_edges"] / raw if raw else 0.0,
                "rmat.vanished_retries": self.counts["rmat.sanitize.raised.VanishedGraphError"],
                "rmat.degenerate_draws": self.counts["rmat.generate_graph.raised.DegenerateParametersError"],
                "graph.mean_local_clustering.wedges_computed": self.counts["graph.mean_local_clustering.wedges_computed"],
                "graph.metric_projection.validate_s": validate_projection,
                "dataset.write_edge_list.bytes": self.counts["dataset.write_edge_list.bytes"],
                "dataset.read_matrix_market.bytes": self.counts["dataset.read_matrix_market.bytes"],
                "grids.predicted_mass.calls": calls["grids.predicted_mass"],
                "objective.bargaining_fitness.calls": calls["objective.bargaining_fitness"],
                "optimizer.evals_per_s": evals / optimize_s if optimize_s > 0 else 0.0,
            }
        )
        return out, [name for name in self_timed if not calls[name]]

    def dump(self) -> list[list]:
        return [[name, start, end, parent] for name, start, end, parent in self.spans]
