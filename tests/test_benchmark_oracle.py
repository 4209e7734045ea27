"""The benchmark's exact scorer (``perfbench/oracle.py``) imports the
reference replay from ``tests/oracles.py``; this keeps that import chain
working and its scores equal to the library's. The benchmark's tracer
(``perfbench/tracing.py``) counts prediction steps through
``Schedules.values``; this keeps that count equal to the step arrays'. Every
span name the tracer reads must name a function of ``asbench``, or its
metric reads 0; the names already dead are listed, so no more can join them.
The chain run through the CLI must also open those spans: a function the
code reaches through a binding the tracer does not rebind runs untraced."""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from asbench import (
    Hyperparameters,
    Schedules,
    build_presolver,
    fit_system,
    parse_predictions,
    predict_batch,
    score_system,
    write_predictions,
    write_scenario,
)
from asbench import cli
from asbench.selectors import SELECTOR_KINDS

from gen import build_scenario, learnable_scenario, random_scenario, random_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_score_of_a_prediction_file_matches_score_system(tmp_path):
    oracle = load("oracle")
    scen = random_scenario(3, n_insts=30)
    split = scen.splits[0]
    rng = np.random.default_rng(3)
    path = tmp_path / "pred.csv"
    write_predictions(Schedules.from_steps(scen, [(i, random_schedule(rng, scen)) for i in split.test]), scen, path)
    par10, gap = oracle.score(scen, path, split)
    report = score_system(scen, split, parse_predictions(path, scen))
    assert gap is not None
    assert report.metrics["par10"].value == pytest.approx(float(par10), rel=1e-12)
    assert report.metrics["par10"].gap == pytest.approx(float(gap), rel=1e-12)


def test_the_tracer_counts_every_prediction_step(tmp_path):
    counters = load("tracing").COUNTERS
    scen = learnable_scenario(n_train=60, n_test=20, seed=4)
    split = scen.splits[0]
    hp = Hyperparameters(n_trees=3, seed=1, presolve_budget_fraction=0.1)
    model = fit_system(scen, split.train, "sunny", hp, mode="oasc2017")
    predicted = predict_batch(model, scen, split.test)
    path = tmp_path / "pred.csv"
    write_predictions(predicted, scen, path)
    parsed = parse_predictions(path, scen)
    assert predicted.kind.size > len(split.test)  # schedules of several steps
    for x in (predicted, parsed):
        assert sum(len(s) for s in x.values()) == x.kind.size
    assert counters["scenario_io.write_predictions"]((predicted, scen, path), None) == {"steps": predicted.kind.size}
    assert counters["scenario_io.parse_predictions"]((path, scen), parsed) == {"steps": parsed.kind.size}


# Span names the tracer reads that no function of asbench carries any more;
# each metric built on them reads 0 (see the FOUND lines in CHANGES.md).
DEAD_SPANS = {
    "selectors.predict",  # prediction runs through predict_batch
    "selectors.presolved_instances",  # training reads the dispatch off the run table
    "learners.fit_knn",  # sunny builds its KNN directly
    "learners.KNN.predict",  # KNN answers through neighbors alone
}


def traced_span_names() -> set[str]:
    """The COUNTERS keys, the names passed to ``secs``/``calls``/``count``
    in ``layer_metrics``, and the ``selectors.fit_<kind>`` spans."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    names = {f"selectors.fit_{kind}" for kind in SELECTOR_KINDS}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["COUNTERS"]:
            names |= {key.value for key in node.value.keys}
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("secs", "calls", "count"):
            args = node.args[1:] if node.func.id == "count" else node.args  # count's first argument is a key
            names |= {arg.value for arg in args if isinstance(arg, ast.Constant)}
    return names


def resolves(name: str) -> bool:
    module, *path = name.split(".")
    obj = importlib.import_module(f"asbench.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return inspect.isfunction(obj)


def test_every_traced_span_names_a_function():
    assert {name for name in traced_span_names() if not resolves(name)} == DEAD_SPANS


def test_the_cli_chain_opens_a_span_of_each_function_it_runs(tmp_path):
    # a module-level table holding function objects from import time would
    # call the originals around the tracer's wrappers, and their metrics read 0
    bundle = tmp_path / "bundle"
    write_scenario(learnable_scenario(40, 20, seed=3), bundle)
    tracer = load("tracing").Tracer()
    tracer.install()
    try:
        for kind in SELECTOR_KINDS:
            model, preds = tmp_path / f"{kind}.json", tmp_path / f"{kind}.csv"
            for argv in (
                ["train", "--scenario", bundle, "--selector", kind, "--hp", "n_trees=2", "--out", model],
                ["predict", "--scenario", bundle, "--model", model, "--out", preds],
                ["evaluate", "--scenario", bundle, "--predictions", preds, "--out", tmp_path / kind],
            ):
                assert cli.main([str(a) for a in argv]) == 0
    finally:
        tracer.uninstall()
    wanted = {"scenario_io.parse_predictions", "scenario_io.write_predictions", "evaluation.score_system"}
    wanted |= {f"selectors.fit_{kind}" for kind in SELECTOR_KINDS}
    assert wanted - {span[1] for span in tracer.spans} == set()


def test_the_tracer_counts_the_presolver_steps():
    counters = load("tracing").COUNTERS
    instances = [f"i{j}" for j in range(9)]
    runs = {}
    for j, inst in enumerate(instances):
        runs[(inst, "A0")] = 10.0 if j < 3 else (1000.0, "timeout")
        runs[(inst, "A1")] = 20.0 if 3 <= j < 6 else (1000.0, "timeout")
    scen = build_scenario(runs, ["A0", "A1"], instances, cutoff=1000.0)
    args = (scen.instances, scen, Hyperparameters(presolve_budget_fraction=0.1), "oasc2017")
    prefix = build_presolver(*args)
    assert len(prefix) == 2
    assert counters["selectors.build_presolver"](args, prefix) == {"steps": 2}
