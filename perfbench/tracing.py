"""Spans around the public functions of each ``asbench`` module.

The tracer wraps functions from outside, so no source file changes. A
function imported by name into another module (``selectors`` does ``from
.learners import fit_forest``) is replaced at every module binding that
holds it, or those calls would bypass the wrapper. ``uninstall`` puts every
original back.

Each span records (command id, name, start, end, parent index, counts).
Spans stay in memory; the runner writes them out when the run ends. A span's
self time is its duration minus the durations of its direct children, which
nest inside it because the chain runs on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "scenario", "scenario_io", "evaluation", "selectors", "learners", "stats")

# Per-instance, per-pair or per-tree helpers called inside another wrapped
# function. A span each would cost more than their work; their time lands in
# the caller's self time.
UNWRAPPED = {
    "scenario.effective_cost",
    "scenario.best_ok_time",
    "scenario.collapse_repetitions",
    "evaluation.validate_schedule",
    "evaluation.par10",
    "evaluation.mcp",
    "learners.rng_stream",
    "learners.grow_tree",
    "learners.Tree.predict",
    "selectors.select_algorithm",
}


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


# Counts taken at a span boundary: name -> f(args, result) -> {count: value}.
COUNTERS = {
    "scenario_io.write_predictions": lambda a, r: {"steps": sum(len(s) for s in a[0].values())},
    "scenario_io.parse_predictions": lambda a, r: {"steps": sum(len(s) for s in r.values())},
    "evaluation.simulate": lambda a, r: {"steps": len(a[2])},
    "selectors.build_presolver": lambda a, r: {"steps": len(r)},
    "selectors.presolved_instances": lambda a, r: {"instances": len(r)},
    "selectors.build_training_set": lambda a, r: {"cells": len(r.instances) * len(r.algorithms)},
    "selectors.save_model": lambda a, r: {"bytes": os.path.getsize(a[1])},
    "learners.fit_forest": lambda a, r: {
        "trees": len(r.trees),
        "nodes": sum(int(t.feature.size) for t in r.trees),
    },
    "learners.Forest.predict": lambda a, r: {"rows": _rows(a[1])},
    "learners.Forest.predict_dist": lambda a, r: {"rows": _rows(a[1])},
    "learners.KNN.neighbors": lambda a, r: {"queries": 1},
    "learners.KNN.predict": lambda a, r: {"queries": _rows(a[1])},
}


class Tracer:
    """Records spans while installed; hands the originals back on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.kinds: list[str] = []  # kind of each command id
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([len(self.kinds) - 1, name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._open.pop()

    def command(self, kind: str) -> int:
        """Open the span of one chain command; its children share its id.

        The span belongs to no ``asbench`` layer: its self time is the
        benchmark's own cost around the call.
        """
        self.kinds.append(kind)
        return self.begin(f"bench.{kind}")

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter:
                self.spans[index][5] = counter(args, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        mods = {short: importlib.import_module(f"asbench.{short}") for short in MODULES}
        bindings = [importlib.import_module("asbench"), *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{short}.{attr}"
                    if name in UNWRAPPED:
                        continue
                    wrapped = self._wrap(name, obj)
                    for holder in bindings:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, key, wrapped)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        name = f"{short}.{attr}.{meth}"
                        if meth.startswith("_") or not inspect.isfunction(fn) or name in UNWRAPPED:
                            continue
                        self._patch(obj, meth, self._wrap(name, fn))

    def _patch(self, holder, key, value) -> None:
        self._patches.append((holder, key, getattr(holder, key)))
        setattr(holder, key, value)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; every ``*_s`` is a self time."""
    spans = tracer.spans
    own = self_times(spans)
    seconds, n_calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    for s, t in zip(spans, own):
        seconds[s[1]] += t
        n_calls[s[1]] += 1
        for key, value in (s[5] or {}).items():
            counts[s[1], key] += value

    def secs(*names):
        return sum(seconds[n] for n in names)

    def calls(*names):
        return sum(n_calls[n] for n in names)

    def count(key, *names):
        return sum(counts[n, key] for n in names)

    # forest predictions made outside model fitting: the predict path
    fitting = {i for i, s in enumerate(spans) if s[1] == "selectors.fit_system"}
    under_fit = [False] * len(spans)
    for i, s in enumerate(spans):
        under_fit[i] = s[4] in fitting or (s[4] >= 0 and under_fit[s[4]])
    forest_calls = forest_rows = 0
    forest_s = 0.0
    for i, (s, t) in enumerate(zip(spans, own)):
        if s[1] in ("learners.Forest.predict", "learners.Forest.predict_dist") and not under_fit[i]:
            forest_calls += 1
            forest_rows += s[5]["rows"]
            forest_s += t

    stats_in_compare = sum(
        t for s, t in zip(spans, own) if s[1].startswith("stats.") and tracer.kinds[s[0]] == "compare"
    )
    m = {
        "scenario_io.parse_scenario_s": secs("scenario_io.parse_scenario"),
        "scenario_io.parse_scenario_calls": calls("scenario_io.parse_scenario"),
        "scenario_io.write_scenario_s": secs("scenario_io.write_scenario"),
        "scenario_io.write_predictions_s": secs("scenario_io.write_predictions"),
        "scenario_io.parse_predictions_s": secs("scenario_io.parse_predictions"),
        "scenario_io.prediction_steps": count(
            "steps", "scenario_io.write_predictions", "scenario_io.parse_predictions"
        ),
        "scenario.validate_s": secs("scenario.validate"),
        "scenario.vbs_cost_s": secs("scenario.vbs_cost"),
        "scenario.vbs_cost_calls": calls("scenario.vbs_cost"),
        "scenario.sbs_s": secs("scenario.sbs"),
        "evaluation.score_system_s": secs("evaluation.score_system"),
        "evaluation.simulate_s": secs("evaluation.simulate"),
        "evaluation.simulate_calls": calls("evaluation.simulate"),
        "evaluation.steps_replayed": count("steps", "evaluation.simulate"),
        "selectors.build_presolver_s": secs("selectors.build_presolver"),
        "selectors.presolver_steps": count("steps", "selectors.build_presolver"),
        "selectors.presolved_instances": count("instances", "selectors.presolved_instances"),
        "selectors.build_training_set_s": secs("selectors.build_training_set"),
        "selectors.training_cells": count("cells", "selectors.build_training_set"),
        **{
            f"selectors.fit.{kind}_s": secs(f"selectors.fit_{kind}")
            for kind in ("regression", "pairwise", "cluster", "stacking", "sunny")
        },
        "selectors.predict_s": secs("selectors.predict"),
        "selectors.predict_calls": calls("selectors.predict"),
        "selectors.save_model_s": secs("selectors.save_model"),
        "selectors.load_model_s": secs("selectors.load_model"),
        "selectors.model_bytes": count("bytes", "selectors.save_model"),
        "learners.fit_forest_s": secs("learners.fit_forest"),
        "learners.trees_grown": count("trees", "learners.fit_forest"),
        "learners.tree_nodes": count("nodes", "learners.fit_forest"),
        "learners.forest_predict_s": forest_s,
        "learners.forest_predict_calls": forest_calls,
        "learners.rows_per_predict_call": forest_rows / forest_calls if forest_calls else 0.0,
        "learners.kmeans_s": secs("learners.fit_kmeans", "learners.KMeans.assign"),
        "learners.knn_s": secs("learners.fit_knn", "learners.KNN.neighbors", "learners.KNN.predict"),
        "learners.knn_queries": count("queries", "learners.KNN.neighbors", "learners.KNN.predict"),
        "stats.compare_s": stats_in_compare,
        "stats.ecdf_s": secs("stats.ecdf", "stats.ecdf_points"),
    }
    layers = {short: 0.0 for short in MODULES}
    for s, t in zip(spans, own):
        layer = s[1].split(".", 1)[0]
        if layer in layers:
            layers[layer] += t
    m["cli.overhead_s"] = layers.pop("cli")
    for short, t in layers.items():
        m[f"layer.{short}_s"] = t
    return m
