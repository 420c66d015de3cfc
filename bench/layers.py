"""Per-layer tracing for the traced benchmark run.

Each layer's public function is wrapped at the name where its caller looks
it up (``diverank.cli.composite_matrix``, ``diverank.selection.score_batch``,
...), and then the same ``cli.main`` calls run as in the untraced run.  A
span's self time is its duration minus the time of the wrapped calls made
inside it.  Totals are kept per pass, one pass being one traced round of
the workload, and self time is also summed per CLI stage.

A wrap point whose name no longer exists, or whose counter no longer fits
the value it inspects, is reported absent; the run goes on without it.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class WrapPoint:
    """One function wrapped at the module attribute its caller reads."""

    layer: str  # metric prefix, e.g. "kernels.composite_matrix"
    module: str
    attr: str
    # hook(tracer, args, result, t_start, t_end) adds counters; a non-None
    # return value replaces the result handed back to the caller.
    hook: Callable | None = None


def _count_candidates(tr, args, result, t0, t1):
    tr.add("data.items_parsed", sum(len(cs.ids) for cs in result))
    tr.add("data.bytes_read", os.path.getsize(args[0]))


def _count_kernel(tr, args, result, t0, t1):
    n = len(args[0])
    tr.add("kernels.calls", 1)
    tr.add("kernels.entries", n * n)
    if tr.stage == "rerank":
        tr.list_start = t0


def _count_score(tr, args, result, t0, t1):
    tr.add("accuracy.score.rows", len(args[0]))


def _count_impressions(tr, args, result, t0, t1):
    tr.add("accuracy.impressions", len(result))


def _count_moves(tr, args, result, t0, t1):
    tr.add("clustering.moves", len(result.move_log))


def _count_selection(tr, args, result, t0, t1):
    res = result[0] if isinstance(result, tuple) else result
    tr.add("selection.steps", len(res.item_ids))
    if tr.stage == "rerank":
        tr.add("selection.exhausted_lists", int(res.exhausted))
        if tr.list_start is not None:
            tr.list_ms.append((t1 - tr.list_start) * 1000.0)
            tr.list_start = None


def _count_sim_calls(tr, args, result, t0, t1):
    def sim(i, j):
        tr.add("selection.mmr.sim_calls", 1)
        return result(i, j)

    return sim


WRAP_POINTS = (
    WrapPoint("data.load_candidates", "diverank.cli", "load_candidates", _count_candidates),
    WrapPoint("data.load_behaviors", "diverank.cli", "load_behaviors"),
    WrapPoint("data.save_candidates", "diverank.cli", "save_candidates"),
    WrapPoint("data.save_results", "diverank.cli", "save_results"),
    WrapPoint("synth.generate", "diverank.cli", "generate"),
    WrapPoint("kernels.composite_matrix", "diverank.cli", "composite_matrix", _count_kernel),
    WrapPoint("accuracy.score", "diverank.selection", "score_batch", _count_score),
    WrapPoint("accuracy.train_scorer", "diverank.cli", "train_scorer"),
    WrapPoint("accuracy.build_impressions", "diverank.cli", "build_impressions",
              _count_impressions),
    WrapPoint("autodiff.backward", "diverank.autodiff", "backward"),
    WrapPoint("interests.build_profile", "diverank.cli", "build_profile"),
    WrapPoint("clustering.louvain", "diverank.cli", "louvain", _count_moves),
    WrapPoint("clustering.modularity", "diverank.cli", "modularity"),
    WrapPoint("selection.bs_dpp", "diverank.cli", "bs_dpp_select", _count_selection),
    WrapPoint("selection.mmr", "diverank.cli", "mmr_select"),
    WrapPoint("selection.mmr_similarity", "diverank.cli", "cosine_similarity_fn", _count_sim_calls),
    WrapPoint("selection.fixed_dpp", "diverank.cli", "fixed_score_dpp_select"),
    WrapPoint("metrics.auc", "diverank.accuracy", "auc"),
    WrapPoint("metrics.eval", "diverank.cli", "ndcg_at_k"),
    WrapPoint("metrics.eval", "diverank.cli", "ilad"),
)


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the wrap points it needs, and what it should move."""

    name: str
    unit: str
    better: str
    needs: tuple[str, ...]  # layers of the WrapPoints that produce it
    moves: str  # end-to-end metric and workload this number explains


# A user's list time runs from its kernel build to the end of its selection.
LIST_TIMING = ("kernels.composite_matrix", "selection.bs_dpp")

PER_LAYER = (
    LayerMetric("data.load_candidates.self_s", "s", "lower", ("data.load_candidates",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("data.items_parsed", "count", "lower", ("data.load_candidates",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("data.bytes_read", "bytes", "lower", ("data.load_candidates",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("data.load_behaviors.self_s", "s", "lower", ("data.load_behaviors",),
                "eval_s on wide-pools; train_s on pipeline"),
    LayerMetric("data.save_candidates.self_s", "s", "lower", ("data.save_candidates",),
                "setup_s on every workload, most on wide-pools"),
    LayerMetric("data.save_results.self_s", "s", "lower", ("data.save_results",),
                "rerank_lists_per_s on every workload"),
    LayerMetric("synth.generate.self_s", "s", "lower", ("synth.generate",),
                "setup_s on every workload"),
    LayerMetric("kernels.composite_matrix.self_s", "s", "lower", ("kernels.composite_matrix",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("kernels.calls", "count", "lower", ("kernels.composite_matrix",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("kernels.entries", "count", "lower", ("kernels.composite_matrix",),
                "rerank_lists_per_s on wide-pools; less on pipeline"),
    LayerMetric("accuracy.score.self_s", "s", "lower", ("accuracy.score",),
                "rerank_lists_per_s and sweep_s on pipeline; less on wide-pools"),
    LayerMetric("accuracy.score.calls", "count", "lower", ("accuracy.score",),
                "rerank_lists_per_s and sweep_s on pipeline; less on wide-pools"),
    LayerMetric("accuracy.score.rows", "count", "lower", ("accuracy.score",),
                "rerank_lists_per_s and sweep_s on pipeline; less on wide-pools"),
    LayerMetric("accuracy.train_scorer.self_s", "s", "lower", ("accuracy.train_scorer",),
                "train_s on pipeline"),
    LayerMetric("accuracy.impressions", "count", "lower", ("accuracy.build_impressions",),
                "train_s on pipeline"),
    LayerMetric("autodiff.backward.self_s", "s", "lower", ("autodiff.backward",),
                "train_s on pipeline"),
    LayerMetric("autodiff.backward.calls", "count", "lower", ("autodiff.backward",),
                "train_s on pipeline"),
    LayerMetric("interests.build_profile.self_s", "s", "lower", ("interests.build_profile",),
                "train_s on pipeline"),
    LayerMetric("clustering.louvain.self_s", "s", "lower", ("clustering.louvain",),
                "train_s on pipeline"),
    LayerMetric("clustering.modularity.self_s", "s", "lower", ("clustering.modularity",),
                "train_s on pipeline"),
    LayerMetric("clustering.moves", "count", "lower", ("clustering.louvain",),
                "train_s on pipeline"),
    LayerMetric("selection.bs_dpp.self_s", "s", "lower", ("selection.bs_dpp",),
                "rerank_lists_per_s on every workload"),
    LayerMetric("selection.steps", "count", "lower", ("selection.bs_dpp",),
                "rerank_lists_per_s on every workload"),
    LayerMetric("selection.exhausted_lists", "count", "lower", ("selection.bs_dpp",),
                "rerank_lists_per_s on every workload"),
    LayerMetric("selection.mmr.self_s", "s", "lower", ("selection.mmr",),
                "sweep_s on pipeline"),
    LayerMetric("selection.mmr.sim_calls", "count", "lower", ("selection.mmr_similarity",),
                "sweep_s on pipeline"),
    LayerMetric("selection.fixed_dpp.self_s", "s", "lower", ("selection.fixed_dpp",),
                "sweep_s on pipeline"),
    LayerMetric("metrics.auc.self_s", "s", "lower", ("metrics.auc",),
                "train_s on pipeline"),
    LayerMetric("metrics.eval.self_s", "s", "lower", ("metrics.eval",),
                "eval_s on wide-pools and pipeline"),
    LayerMetric("rerank.list_ms.p50", "ms", "lower", LIST_TIMING,
                "rerank_lists_per_s on every workload"),
    LayerMetric("rerank.list_ms.p90", "ms", "lower", LIST_TIMING,
                "rerank_lists_per_s on every workload"),
    LayerMetric("rerank.list_ms.samples", "count", "higher", LIST_TIMING,
                "sample count behind the two percentiles above"),
    LayerMetric("trace.overhead_frac", "share", "lower", (),
                "traced rerank time over untraced, minus 1; explains no end-to-end metric"),
)


class Tracer:
    """Installs the wrap points and sums self time and counters per pass."""

    def __init__(self):
        self.stage: str | None = None
        self.passes: dict[object, dict[str, float]] = {}
        self.stage_self: dict[str, dict[str, float]] = {}  # stage -> layer -> self seconds
        self.list_ms: list[float] = []
        self.list_start: float | None = None  # when the current user's kernel build began
        self.absent: set[str] = set()
        self._current: dict[str, float] = {}
        self._open: list[list[float]] = []  # child time of each open span
        self._installed: list[tuple[object, str, object]] = []

    def begin_pass(self, key) -> None:
        self._current = self.passes.setdefault(key, {})

    def add(self, name: str, value: float) -> None:
        self._current[name] = self._current.get(name, 0.0) + value

    def install(self) -> None:
        for point in WRAP_POINTS:
            try:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr)
            except (ImportError, AttributeError):
                self._mark_absent(point, "no longer exists")
                continue
            self._installed.append((module, point.attr, original))
            setattr(module, point.attr, self._wrap(point, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _mark_absent(self, point: WrapPoint, why: str) -> None:
        if point.layer not in self.absent:
            self.absent.add(point.layer)
            print(f"trace: {point.module}.{point.attr} {why}; "
                  f"{point.layer} metrics reported absent", file=sys.stderr)

    def _wrap(self, point: WrapPoint, fn):
        def traced(*args, **kwargs):
            child = [0.0]
            self._open.append(child)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][0] += t1 - t0
                self_s = t1 - t0 - child[0]
                self.add(point.layer + ".self_s", self_s)
                by_layer = self.stage_self.setdefault(self.stage, {})
                by_layer[point.layer] = by_layer.get(point.layer, 0.0) + self_s
                self.add(point.layer + ".calls", 1)
            if point.hook is not None and point.layer not in self.absent:
                # A counter that no longer fits the layer's return value must
                # not break the run it observes.
                try:
                    replaced = point.hook(self, args, result, t0, t1)
                except Exception as exc:  # noqa: BLE001
                    self._mark_absent(point, f"counter failed ({exc!r})")
                else:
                    if replaced is not None:
                        result = replaced
            return result

        return traced
