"""Spans around the hgrw layers, recorded from outside the package.

``Tracer.install`` wraps every public function and method that a module of
``hgrw`` defines and rebinds each reference to it in every ``hgrw`` module
namespace, so the CLI's ``from .x import y`` names, the learner's
``min_norm_point`` solver hook and class methods all record spans. Spans stay
in memory as ``[name, parent, start, end]`` and the worker writes them out
when it exits. ``layer_metrics`` turns one round's spans into the per-layer
metrics; it needs no ``hgrw`` import.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import time
import tracemalloc

MODULES = (
    "cli", "dataio", "diagnostics", "graph", "learner", "metapath",
    "multiobjective", "rewire", "sparse", "synth", "targets",
)

# Accessors called once per row or per parameter inside hot loops: wrapping
# them would move loop time out of the layer that runs the loop.
SKIP = {"CsrMatrix.row_cols", "SimilarityModel.param_items", "SimilarityModel.set_param"}

# Calls whose peak traced allocation is recorded in memory rounds. tracemalloc
# runs only inside them, and only in rounds whose span times are not used:
# it slows every allocation, most of all in per-row Python loops.
MEMORY = {
    "learner.gradients": "learner.gradients_peak_mb",
    "rewire.score_candidates": "rewire.scan_peak_mb",
    "metapath.compose_metapath": "metapath.compose_peak_mb",
}


def _window_pairs(a, result):
    return {"learner.window_pairs": len(a["batch"].rows) * len(a["batch"].cols)}


def _scan_pairs(a, result):
    n = a["m"].graph.target_count
    return {"rewire.scan_pairs": n * n}


def _plan_sizes(a, result):
    plan = result[1]
    return {"rewire.additions": len(plan.additions), "rewire.removals": len(plan.removals)}


def _composed_nnz(a, result):
    return {"metapath.composed_nnz": result.adjacency.nnz}


def _edges_loaded(a, result):
    return {"dataio.edges_loaded": sum(adj.nnz for adj in result.adjacency)}


def _edges_saved(a, result):
    return {"dataio.edges_saved": sum(adj.nnz for adj in a["g"].adjacency)}


COUNTERS = {
    "learner.gradients": _window_pairs,
    "rewire.score_candidates": _scan_pairs,
    "rewire.rewire_metapath": _plan_sizes,
    "metapath.compose_metapath": _composed_nnz,
    "dataio.load_graph": _edges_loaded,
    "dataio.save_graph": _edges_saved,
}


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.peaks_mb: dict[str, float] = {}
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, 0.0, 0.0])
        self._stack.append(idx)
        memory_key = MEMORY.get(name) if self.memory else None
        if memory_key and tracemalloc.is_tracing():
            memory_key = None  # an enclosing call already measures
        if memory_key:
            tracemalloc.start()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if memory_key:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peaks_mb[memory_key] = max(self.peaks_mb.get(memory_key, 0.0), peak)
            self._stack.pop()
            self.spans[idx][2] = start
            self.spans[idx][3] = end

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if counter:
                bound = signature.bind(*args, **kwargs).arguments
                self.counts.update(counter(bound, result))
            return result

        return traced

    def install(self) -> None:
        modules = {short: importlib.import_module(f"hgrw.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for mod in (importlib.import_module("hgrw"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            qual = f"{cls.__name__}.{attr}"
            if attr.startswith("_") or qual in SKIP:
                continue
            name = f"{short}.{qual}"
            if inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(name, obj))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, obj.__func__)))


# Per-layer metrics: name -> (unit, better, the spans whose summed inclusive
# time it is, or None for a derived or counted value).
LAYER_METRICS = {
    "rewire.scan_s": ("s", "lower", ["rewire.score_candidates"]),
    "rewire.scan_pairs": ("count", "lower", None),
    "rewire.scan_pairs_per_s": ("1/s", "higher", None),
    "rewire.apply_s": ("s", "lower", ["rewire.rewire_metapath"]),
    "rewire.additions": ("count", "higher", None),
    "rewire.removals": ("count", "higher", None),
    "rewire.merge_s": ("s", "lower", ["rewire.merge_into_graph"]),
    "rewire.plan_write_s": ("s", "lower", ["rewire.save_plan_tsv"]),
    "learner.gradients_s": ("s", "lower", ["learner.gradients"]),
    "learner.gradients_calls": ("count", "lower", None),
    "learner.window_pairs": ("count", "lower", None),
    "learner.pairs_per_s": ("1/s", "higher", None),
    "learner.train_self_s": ("s", "lower", None),
    "learner.flatten_s": ("s", "lower", ["learner.flatten_gradient"]),
    "learner.checkpoint_s": ("s", "lower", ["learner.save_model", "learner.load_model"]),
    "multiobjective.min_norm_s": ("s", "lower", ["multiobjective.min_norm_point"]),
    "multiobjective.min_norm_calls": ("count", "lower", None),
    "targets.build_s": ("s", "lower", ["targets.similarity_targets"]),
    "targets.block_s": ("s", "lower", [
        "targets.SimilarityTargets.attr_block",
        "targets.SimilarityTargets.label_block",
        "targets.SimilarityTargets.mask_block",
    ]),
    "metapath.compose_s": ("s", "lower", ["metapath.compose_metapath"]),
    "metapath.compose_calls": ("count", "lower", None),
    "metapath.composed_nnz": ("count", "lower", None),
    "sparse.spgemm_s": ("s", "lower", ["sparse.bool_spgemm"]),
    "diagnostics.report_s": ("s", "lower", ["diagnostics.homophily_report"]),
    "diagnostics.complexity_s": ("s", "lower", [
        "diagnostics.mean_aggregation", "diagnostics.complexity_measure",
    ]),
    "dataio.load_s": ("s", "lower", ["dataio.load_graph"]),
    "dataio.load_calls": ("count", "lower", None),
    "dataio.edges_loaded": ("count", "lower", None),
    "graph.validate_s": ("s", "lower", ["graph.validate_graph"]),
    "dataio.save_s": ("s", "lower", ["dataio.save_graph"]),
    "dataio.edges_saved": ("count", "lower", None),
    "synth.generate_s": ("s", "lower", ["synth.synth_generate"]),
}
LAYER_METRICS.update({key: ("MB", "lower", None) for key in MEMORY.values()})
LAYER_METRICS.update(
    {f"{layer}.self_s": ("s", "lower", None) for layer in MODULES}
)

CALL_COUNTS = {
    "learner.gradients_calls": "learner.gradients",
    "multiobjective.min_norm_calls": "multiobjective.min_norm_point",
    "metapath.compose_calls": "metapath.compose_metapath",
    "dataio.load_calls": "dataio.load_graph",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    """One span round's per-layer metrics (all but the memory peaks)."""
    inclusive: collections.Counter = collections.Counter()
    calls: collections.Counter = collections.Counter()
    layer_self: collections.Counter = collections.Counter()
    for (name, _, start, end), own in zip(spans, self_times(spans)):
        inclusive[name] += end - start
        calls[name] += 1
        layer_self[f"{name.split('.')[0]}.self_s"] += own
        if name == "learner.train":
            layer_self["learner.train_self_s"] += own

    out: dict[str, float] = {}
    for metric, (_, _, sources) in LAYER_METRICS.items():
        if sources:
            out[metric] = sum(inclusive[s] for s in sources)
    out.update({m: calls[s] for m, s in CALL_COUNTS.items()})
    out.update({m: layer_self[m] for m in LAYER_METRICS if m.endswith("self_s")})
    out.update({m: v for m, v in counts.items() if m in LAYER_METRICS})
    for metric in ("rewire.scan_pairs", "rewire.additions", "rewire.removals",
                   "learner.window_pairs", "metapath.composed_nnz",
                   "dataio.edges_loaded", "dataio.edges_saved"):
        out.setdefault(metric, 0)
    out["rewire.scan_pairs_per_s"] = out["rewire.scan_pairs"] / out["rewire.scan_s"]
    out["learner.pairs_per_s"] = out["learner.window_pairs"] / out["learner.gradients_s"]
    return out
