"""The benchmark's exact scorer (``perfbench/oracle.py``) imports the
reference replay from ``tests/oracles.py``; this keeps that import chain
working and its scores equal to the library's. The benchmark's tracer
(``perfbench/tracing.py``) counts prediction steps through
``Schedules.values``; this keeps that count equal to the step arrays'."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from asbench import (
    Hyperparameters,
    Schedules,
    fit_system,
    parse_predictions,
    predict_batch,
    score_system,
    write_predictions,
)

from gen import learnable_scenario, random_scenario, random_schedule

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
    report = score_system(scen, split, parse_predictions(path, scen, require_cover=split.test))
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
